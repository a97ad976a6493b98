"""Lowest-order mixed discretization of -div(A grad u) = f in flux form.

The flux space is spanned by one Raviart-Thomas basis function per edge,
normalized so the total flux across the edge equals one:

    phi_E|_T(x) = s_{T,E} / (2|T|) * (x - P),

where P is the vertex of T opposite E and ``s_{T,E}`` is +1 when the global
edge normal points out of T.  With this normalization the divergence
coupling matrix B has entries in {-1, 0, +1} exactly, and the discrete
divergence constraint B p = -|T| f_T enforces ``div p_h + f_h = 0``
elementwise up to solver roundoff.

Displacements are elementwise constant; the Dirichlet datum g enters the
flux equations naturally through boundary edge averages of g.

The saddle-point system

    [ M   B^T ] [ p ]   [ rhs_flux ]
    [ B    0  ] [ u ] = [ rhs_div  ]

is solved by hybridization: with the normal continuity of the fluxes broken,
each element's 3 outward fluxes and its displacement are eliminated in
closed form (Arnold-Brezzi 1985), leaving a_T times the Crouzeix-Raviart
stiffness matrix: one SPD system for the displacement traces on the interior
edges.  The traces are numbered in the nested-dissection order that
:func:`amfem.mesh.dissection_order` reads off the bisection genealogy
(George 1973), and SuperLU factorizes the system in that order.  No matrix
is kept: with the edges E_i = P_{i+2} - P_{i+1} of T, its local mass matrix
in the outward basis is loc = kappa (Pc Pc^T + sigma e e^T), Pc_i = (E_{i+1}
- E_{i+2})/3, kappa = 1/(4 a_T |T|), sigma = sum|E_i|^2/36, which the
refinement round's residual applies element by element.  The solution is
itself the RT0 flux field (elementwise affine) that the estimator reads.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ancestor_map, dissection_order
from .quadrature import TRI_6, EDGE_3, edge_points

__all__ = [
    "AssemblyError", "SolverError", "SaddleSystem", "MixedSolution",
    "FluxField", "PwConstData", "root_a_inv", "project_f", "assemble",
    "solve",
]

RESIDUAL_TOL = 1e-10


class AssemblyError(ValueError):
    """Raised when coefficient data is unusable (e.g. a not positive)."""


class SolverError(RuntimeError):
    """Raised when the linear solver misses its residual contract."""


class PwConstData:
    """A piecewise-constant function attached to the elements of a mesh.

    Used as right-hand side data after projecting f onto a coarse mesh:
    on any refinement of the carrier the values are recovered exactly by
    ancestor lookup, so the data oscillation vanishes identically.  No
    queried mesh is kept alive.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (mesh.n_elements,):
            raise ValueError("one value per carrier element required")

    def values_on(self, mesh):
        """Per-element values on ``mesh``, which must refine the carrier."""
        if mesh is self.mesh:
            return self.values
        return self.values[ancestor_map(mesh, self.mesh)]


def root_a_inv(problem, mesh):
    """1/a on each element for A = a I per root element (``problem.a``: one
    value or one per root); AssemblyError, naming the first bad root, for
    an a that is missing or not usable."""
    a = np.asarray(problem.a, dtype=np.float64)     # None reads as NaN
    if a.shape not in ((), (mesh.n_roots,)):
        raise AssemblyError(f"a must hold one value per root element "
                            f"({mesh.n_roots}), got shape {a.shape}")
    a = np.broadcast_to(a, (mesh.n_roots,))
    with np.errstate(divide="ignore", over="ignore"):
        a_inv = 1.0 / a
    # 1/a is finite and positive just where a is, and does not overflow
    bad = np.flatnonzero(~(np.isfinite(a_inv) & (a_inv > 0.0)))
    if bad.size:
        raise AssemblyError(f"a = {float(a[bad[0]])!r} on root element "
                            f"{bad[0]}: a and 1/a must be finite, positive")
    return a_inv[mesh.root_elem]


def eval_f_on_elements(f, mesh, pts):
    """Source data at per-element points ``pts`` (nt, q, 2); a callable f
    is called as ``f(points, roots)`` with each point's root element."""
    if isinstance(f, PwConstData):
        vals = f.values_on(mesh)
        return np.broadcast_to(vals[:, None], pts.shape[:2]).copy()
    nt, q = pts.shape[:2]
    vals = f(pts.reshape(-1, 2), np.repeat(mesh.root_elem, q))
    return np.asarray(vals, dtype=np.float64).reshape(nt, q)


def project_f(f, mesh):
    """L2 projection of f onto elementwise constants: the cellwise means."""
    if isinstance(f, PwConstData):
        return f.values_on(mesh).copy()
    return eval_f_on_elements(f, mesh, mesh.quad_points) @ TRI_6[1]


class FluxField:
    """An elementwise-affine vector field q|_T(x) = alpha_T + beta_T * x.

    Every RT0 function has this form; ``beta`` is scalar per element and
    the divergence equals ``2 beta``.  A field can be restricted to any
    refinement of its mesh, where it keeps the ancestor's polynomial on
    each fine element.  Instances are read-only once built.
    """

    def __init__(self, mesh, alpha, beta):
        self.mesh = mesh
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)

    @staticmethod
    def from_coeffs(mesh, coeffs):
        """The RT0 function with edge coefficients ``coeffs``."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        s = mesh.tri_edge_sign.astype(np.float64)
        c = coeffs[mesh.tri_edges] * s            # (nt, 3)
        inv2a = 1.0 / (2.0 * mesh.areas)
        beta = c.sum(axis=1) * inv2a
        P = mesh.vertices[mesh.triangles]         # (nt, 3, 2)
        alpha = -np.einsum("ti,tid->td", c, P) * inv2a[:, None]
        return FluxField(mesh, alpha, beta)

    def eval(self, elems, pts):
        """Values at ``pts`` of shape (k, q, 2) lying inside elements ``elems``."""
        return self.alpha[elems][:, None, :] + self.beta[elems][:, None, None] * pts

    @property
    def div(self):
        return 2.0 * self.beta

    def restrict_to(self, fine_mesh, amap=None):
        """This field on a refinement; ``amap`` is its ancestor map if known."""
        if fine_mesh is self.mesh:
            return self
        if amap is None:
            amap = ancestor_map(fine_mesh, self.mesh)
        return FluxField(fine_mesh, self.alpha[amap], self.beta[amap])


class SaddleSystem:
    """The saddle-point system of one mesh, held element by element.

    The edge vectors ``E`` (nt, 3, 2) of ``mesh``, ``a_inv`` = 1/a per
    element and the edge signs are the whole operator; the local mass
    matrices are the module's closed form in them.  ``rhs`` stacks the flux
    and divergence right-hand sides, the latter from the source means.
    """

    def __init__(self, E, a_inv, rhs, mesh, f_elem):
        self.E = E
        self.a_inv = a_inv
        self.rhs = rhs
        self.mesh = mesh
        self.f_elem = f_elem

    def apply(self, x):
        """``[[M, B^T], [B, 0]] @ x`` for ``x = (p, u)``: element T with
        outward fluxes ``q = s p[tri_edges]`` adds ``s (loc q + u_T)`` to
        its edge rows, with ``loc q = kappa (Pc (Pc^T q) + sigma (e.q) e)``
        formed from ``E``, and ``sum(q)`` is its divergence row."""
        mesh, E = self.mesh, self.E
        s, ne, edges = mesh.tri_edge_sign, mesh.n_edges, mesh.tri_edges
        q = s * x[:ne][edges]
        div = q.sum(axis=1)
        Pc = (E[:, [1, 2, 0]] - E[:, [2, 0, 1]]) / 3.0
        loc_q = np.einsum("tid,td->ti", Pc, np.einsum("tid,ti->td", Pc, q))
        loc_q += (np.einsum("tid,tid->t", E, E) / 36.0 * div)[:, None]
        loc_q *= (0.25 * self.a_inv / mesh.areas)[:, None]
        flux = s * (loc_q + x[ne:, None])
        rows = np.bincount(edges.ravel(), flux.ravel(), minlength=ne)
        return np.concatenate([rows, div])


def assemble(mesh, problem, f_elem):
    """Build the saddle-point system for the given cellwise source means."""
    f_elem = np.asarray(f_elem, dtype=np.float64)
    if f_elem.shape != (mesh.n_elements,):
        raise AssemblyError("f_elem must hold one value per element")
    a_inv = root_a_inv(problem, mesh)
    ne = mesh.n_edges
    rhs = np.zeros(ne + mesh.n_elements)
    g = problem.g
    if g is not None:
        bed = np.flatnonzero(mesh.boundary_edge)
        if bed.size:
            epts = edge_points(EDGE_3, mesh.vertices[mesh.edges[bed, 0]],
                               mesh.vertices[mesh.edges[bed, 1]])
            gv = np.asarray(g(epts.reshape(-1, 2))).reshape(epts.shape[:2])
            sign = np.where(mesh.edge_tris[bed, 0] >= 0, 1.0, -1.0)
            rhs[bed] = sign * (gv @ EDGE_3[1])

    rhs[ne:] = -mesh.areas * f_elem
    E = np.diff(mesh.vertices[mesh.triangles[:, [1, 2, 0, 1]]], axis=1)
    return SaddleSystem(E, a_inv, rhs, mesh, f_elem)


class MixedSolution(FluxField):
    """Solution pair of one mixed solve, and its own RT0 flux field:
    ``alpha`` and ``beta`` are those of :meth:`FluxField.from_coeffs` of p.

    Attributes
    ----------
    p : flux coefficients, one per edge
    u : displacement values, one per element
    f_elem : the cellwise source means the solve used
    residual_inf : inf-norm of the algebraic residual
    div_defect : max_T |div p_h + f_h|, the divergence-exactness defect
    balance_defect : max_T |sum_E s_E p_E + |T| f_T| / max_E |p_E|, the
        flux balance of each element relative to the largest flux
    local_balance_defect : max_T |sum_E s_E p_E + |T| f_T| / (sum_E |p_E|
        + |T| |f_T|), the same balance relative to each element's own terms
    """

    def __init__(self, mesh, p, u, f_elem, residual_inf):
        field = FluxField.from_coeffs(mesh, p)
        super().__init__(mesh, field.alpha, field.beta)
        self.p = p
        self.u = u
        self.f_elem = f_elem
        self.residual_inf = residual_inf

    @property
    def div_defect(self):
        return float(np.abs(self.div + self.f_elem).max())

    @property
    def balance_defect(self):
        mesh = self.mesh
        net = (mesh.tri_edge_sign * self.p[mesh.tri_edges]).sum(axis=1)
        scale = np.abs(self.p).max()
        return float(np.abs(net + mesh.areas * self.f_elem).max()
                     / (scale if scale > 0.0 else 1.0))

    @property
    def local_balance_defect(self):
        mesh = self.mesh
        terms = np.column_stack([mesh.tri_edge_sign * self.p[mesh.tri_edges],
                                 mesh.areas * self.f_elem])
        scale = np.abs(terms).sum(axis=1)           # 0 only if every term is
        return float((np.abs(terms.sum(axis=1))
                      / np.where(scale > 0.0, scale, 1.0)).max())


def _local_elimination(system):
    """``(S, w)`` per element, so that ``loc q + u e = c``, ``e.q = r``
    give ``q = S c + r/3`` and ``u = mean(c) - w r``.  As Pc e = 0 in the
    closed form of loc, S = a_T/|T| E E^T, a_T times the Crouzeix-Raviart
    stiffness matrix, and w = kappa sigma = sum|E_i|^2 / (144 a_T |T|)."""
    a_inv, areas = system.a_inv, system.mesh.areas
    EE = np.einsum("tid,tjd->tij", system.E, system.E)
    return (EE / (a_inv * areas)[:, None, None],
            np.trace(EE, axis1=1, axis2=2) * a_inv / (144.0 * areas))


def solve(system):
    """Solve the saddle-point system by hybridization.

    On element T, with q its outward fluxes and e = (1, 1, 1), the local
    equations ``loc q + u e = c`` and ``e.q = r`` give ``q = S c + r/3`` and
    ``u = mean(c) - w r`` in closed form (Arnold-Brezzi 1985;
    :func:`_local_elimination`), and no matrix is inverted.  Here r is T's
    divergence right-hand side and c the trace of u on T's edges plus the
    flux right-hand sides T carries: each edge's is carried by its owner
    slot in ``mesh.edge_slots``, side 0 where that side exists, else side 1.
    Flux continuity across the interior edges is the SPD system for their
    traces, numbered by :func:`amfem.mesh.dissection_order` and factorized
    once in that order (``permc_spec="NATURAL"``): each bisection region's
    inner traces come before its separator, which bounds the fill.  One
    round of iterative refinement on the residual follows, unless the
    residual is already at round-off; one round suffices in working
    precision (Skeel 1980).

    The residual contract ``||K x - rhs||_inf <= 1e-10 (1 + ||rhs||_inf)``
    is enforced; a violation raises :class:`SolverError`.
    """
    mesh = system.mesh
    nt, ne = mesh.n_elements, mesh.n_edges
    # over- and underflow at the ends of the float range fail the contract
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S, w = _local_elimination(system)

    # trace unknowns: one per interior edge, in nested-dissection order
    n_tr = int(np.count_nonzero(~mesh.boundary_edge))
    slot_id = dissection_order(mesh)[mesh.tri_edges]
    inner = slot_id >= 0
    pair = inner[:, :, None] & inner[:, None, :]
    K_tr = sp.coo_matrix(
        (S[pair], (np.broadcast_to(slot_id[:, :, None], S.shape)[pair],
                   np.broadcast_to(slot_id[:, None, :], S.shape)[pair])),
        shape=(n_tr, n_tr)).tocsc()
    solve_traces = np.asarray         # no interior edge, nothing to solve
    if n_tr:
        try:
            solve_traces = spla.splu(K_tr, permc_spec="NATURAL").solve
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc

    # each edge's owner slot: side 0 where it exists, else side 1
    outward = mesh.edge_slots[:, 0] >= 0
    owner = np.where(outward, mesh.edge_slots[:, 0], mesh.edge_slots[:, 1])
    sign = np.where(outward, 1.0, -1.0)

    def condensed(rhs):
        c = np.zeros(3 * nt)
        c[owner] = sign * rhs[:ne]
        c = c.reshape(nt, 3)
        r = rhs[ne:]
        # fluxes with zero traces; their jumps across interior edges
        # are cancelled by the traces
        q = np.einsum("tij,tj->ti", S, c) + r[:, None] / 3.0
        c[inner] += solve_traces(
            -np.bincount(slot_id[inner], q[inner], minlength=n_tr)
        )[slot_id[inner]]
        q = np.einsum("tij,tj->ti", S, c) + r[:, None] / 3.0
        u = c.mean(axis=1) - w * r
        return np.concatenate([sign * q.ravel()[owner], u])

    rhs = system.rhs
    x = condensed(rhs)
    r = rhs - system.apply(x)
    if np.abs(r).max() > 1e-16 * (1.0 + np.abs(rhs).max()):
        x = x + condensed(r)

    residual = float(np.abs(system.apply(x) - rhs).max())
    if not np.isfinite(residual) or residual > RESIDUAL_TOL * (1.0 + np.abs(rhs).max()):
        raise SolverError(
            f"solver residual {residual:.3e} violates the contract")

    return MixedSolution(mesh, x[:ne], x[ne:], system.f_elem, residual)

