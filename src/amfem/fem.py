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

is solved by hybridization: with the normal continuity of the fluxes
broken, each element's 3 outward fluxes and its displacement are
eliminated through the inverse of its 3x3 local mass matrix, leaving one
SPD system for the displacement traces on the interior edges.  The traces
are numbered in the nested-dissection order that
:func:`amfem.mesh.dissection_order` reads off the bisection genealogy
(George 1973), and SuperLU factorizes the system in that order.  The local
matrices and the edge signs are all that is kept of M and B: the
residual of the refinement round applies them element by element.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ancestor_map, dissection_order
from .quadrature import TRI_6, EDGE_3, edge_points

__all__ = [
    "AssemblyError", "SolverError", "DofMap", "SaddleSystem", "MixedSolution",
    "FluxField", "PwConstData", "build_dofmap", "coef_at", "root_a_inv",
    "project_f", "assemble", "solve",
]

RESIDUAL_TOL = 1e-10


class AssemblyError(ValueError):
    """Raised when coefficient data is unusable (e.g. A not SPD)."""


class SolverError(RuntimeError):
    """Raised when the linear solver misses its residual contract."""


class DofMap:
    """Degrees of freedom of the mixed pair on one mesh.

    Flux dof ids are edge ids and displacement dof ids are element ids.
    """

    def __init__(self, mesh):
        self.mesh = mesh


def build_dofmap(mesh):
    return DofMap(mesh)


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


def coef_at(fn, roots, pts):
    """Coefficient ``fn`` at the points ``pts`` (k, q, 2), where row i is
    sampled for an element whose root element is ``roots[i]``.  The
    values have shape (k, q, ...)."""
    k, q = pts.shape[:2]
    vals = np.asarray(fn(pts.reshape(-1, 2), np.repeat(roots, q)),
                      dtype=np.float64)
    return vals.reshape(k, q, *vals.shape[1:])


def root_a_inv(problem, mesh):
    """1/a on each element for A = a I per root element (``problem.a``: one
    value or one per root), None without ``a``; AssemblyError for a bad a."""
    if problem.a is None:
        return None
    a = np.asarray(problem.a, dtype=np.float64)
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
    """Evaluate source data at per-element quadrature points ``pts`` (nt, q, 2)."""
    if isinstance(f, PwConstData):
        vals = f.values_on(mesh)
        return np.broadcast_to(vals[:, None], pts.shape[:2]).copy()
    return coef_at(f, mesh.root_elem, pts)


def project_f(f, mesh):
    """L2 projection of f onto elementwise constants: the cellwise means."""
    if isinstance(f, PwConstData):
        return f.values_on(mesh).copy()
    vals = eval_f_on_elements(f, mesh, mesh.quad_points)
    _, w = TRI_6
    return vals @ w


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

    @classmethod
    def from_coeffs(cls, mesh, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        s = mesh.tri_edge_sign.astype(np.float64)
        c = coeffs[mesh.tri_edges] * s            # (nt, 3)
        inv2a = 1.0 / (2.0 * mesh.areas)
        beta = c.sum(axis=1) * inv2a
        P = mesh.vertices[mesh.triangles]         # (nt, 3, 2)
        alpha = -np.einsum("ti,tid->td", c, P) * inv2a[:, None]
        return cls(mesh, alpha, beta)

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

    ``loc`` holds the local mass matrices (nt, 3, 3) in the outward basis
    (x - P_i) / (2|T|) of each element; with the edge signs they are the
    whole operator.  ``rhs`` stacks the flux and divergence right-hand sides,
    the latter built from the cellwise source means ``f_elem``.
    """

    def __init__(self, loc, rhs, dofmap, f_elem):
        self.loc = loc
        self.rhs = rhs
        self.dofmap = dofmap
        self.f_elem = f_elem

    def apply(self, x):
        """``[[M, B^T], [B, 0]] @ x`` for ``x = (p, u)``: element T with
        outward fluxes ``q = s p[tri_edges]`` adds ``s (loc q + u_T)`` to
        its edge rows, and ``sum(q)`` is its divergence row."""
        mesh = self.dofmap.mesh
        s, ne, edges = mesh.tri_edge_sign, mesh.n_edges, mesh.tri_edges
        q = s * x[:ne][edges]
        flux = s * (np.einsum("tij,tj->ti", self.loc, q) + x[ne:, None])
        rows = np.bincount(edges.ravel(), flux.ravel(), minlength=ne)
        return np.concatenate([rows, q.sum(axis=1)])


def _check_spd(ainv, pts):
    # each 2x2 block is divided by its largest entry, so that no test over-
    # or underflows; a zero or non-finite block gives NaN and fails them
    scale = np.abs(ainv).max(axis=(1, 2))[:, None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = ainv / scale
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    bad = ~((np.abs(a[:, 0, 1] - a[:, 1, 0]) <= 1e-12) & (a[:, 0, 0] > 0.0)
            & (det > 0.0))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise AssemblyError(
            f"A^-1 not symmetric positive definite at point {pts[i]}")


def assemble(mesh, dofmap, problem, f_elem):
    """Build the saddle-point system for the given cellwise source means."""
    if dofmap.mesh is not mesh:
        raise AssemblyError("dofmap was built for a different mesh")
    f_elem = np.asarray(f_elem, dtype=np.float64)
    if f_elem.shape != (mesh.n_elements,):
        raise AssemblyError("f_elem must hold one value per element")

    _, w = TRI_6
    verts = mesh.vertices[mesh.triangles]                 # (nt, 3, 2)
    pts = mesh.quad_points                                # (nt, q, 2)

    # outward basis at point x: (x - P_i) / (2|T|); the local mass matrix
    # is |T| sum_q w_q d_qi^T A^-1 d_qj / (2|T|)^2 with d_qi = x_q - P_i
    nt, nq, ne = mesh.n_elements, w.size, mesh.n_edges
    d = pts[:, :, None, :] - verts[:, None, :, :]         # (nt, q, 3, 2)
    if problem.a is None:
        ainv = coef_at(problem.A_inv, mesh.root_elem, pts)  # (nt, q, 2, 2)
        _check_spd(ainv.reshape(-1, 2, 2), pts.reshape(-1, 2))
        ad = np.matmul(d, ainv * w[:, None, None])       # (nt, q, 3, 2)
    else:   # the same products: the off-diagonal zeros only add +-0
        ad = d * (root_a_inv(problem, mesh)[:, None] * w)[:, :, None, None]
    loc = np.matmul(ad.transpose(0, 2, 1, 3).reshape(nt, 3, 2 * nq),
                    d.transpose(0, 1, 3, 2).reshape(nt, 2 * nq, 3))
    loc *= (0.25 / mesh.areas)[:, None, None]
    loc = 0.5 * (loc + loc.transpose(0, 2, 1))            # exact symmetry

    rhs = np.zeros(ne + nt)
    g = getattr(problem, "g", None)
    if g is not None:
        bed = np.flatnonzero(mesh.boundary_edge)
        if bed.size:
            a = mesh.vertices[mesh.edges[bed, 0]]
            bpt = mesh.vertices[mesh.edges[bed, 1]]
            epts = edge_points(EDGE_3, a, bpt)
            _, ew = EDGE_3
            gv = np.asarray(g(epts.reshape(-1, 2))).reshape(epts.shape[:2])
            sign = np.where(mesh.edge_tris[bed, 0] >= 0, 1.0, -1.0)
            rhs[bed] = sign * (gv @ ew)

    rhs[ne:] = -mesh.areas * f_elem
    return SaddleSystem(loc, rhs, dofmap, f_elem)


class MixedSolution:
    """Solution pair of one mixed solve.

    Attributes
    ----------
    p : flux coefficients, one per edge
    u : displacement values, one per element
    f_elem : the cellwise source means the solve used
    residual_inf : inf-norm of the algebraic residual
    div_defect : max_T |div p_h + f_h|, the divergence-exactness defect
    balance_defect : max_T |sum_E s_E p_E + |T| f_T| / max_E |p_E|, the
        flux balance of each element relative to the largest flux
    """

    def __init__(self, mesh, p, u, f_elem, residual_inf):
        self.mesh = mesh
        self.p = p
        self.u = u
        self.f_elem = f_elem
        self.residual_inf = residual_inf
        self._field = None

    @property
    def field(self):
        if self._field is None:
            self._field = FluxField.from_coeffs(self.mesh, self.p)
        return self._field

    @property
    def div(self):
        return self.field.div

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


def _inv_sym3(a):
    """Inverses of the symmetric 3x3 matrices ``a`` (k, 3, 3) from their
    adjugates.  Each matrix is scaled by its trace first, so neither the
    adjugate nor the determinant over- or underflows."""
    t = np.trace(a, axis1=1, axis2=2)
    a = a / t[:, None, None]
    adj = np.stack([np.cross(a[:, 1], a[:, 2]), np.cross(a[:, 2], a[:, 0]),
                    np.cross(a[:, 0], a[:, 1])], axis=1)
    det = (a[:, 0] * adj[:, 0]).sum(axis=1)
    return adj / (det * t)[:, None, None]


def solve(system):
    """Solve the saddle-point system by hybridization.

    On element T, with q its outward fluxes and e = (1, 1, 1), the local
    equations ``loc q + u e = c`` and ``e.q = r`` give ``q = S c + z r``
    and ``u = (W e.c - r) / s``, where ``W = loc^-1``, ``s = e.W e``,
    ``z = W e / s`` and ``S = W - (W e) z^T``.  Here r is T's divergence
    right-hand side and c the trace of u on T's edges plus the flux
    right-hand sides T carries: each edge's is carried by its owner slot
    in ``mesh.edge_slots``, side 0 where that side exists, else side 1.
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
    mesh = system.dofmap.mesh
    nt, ne = mesh.n_elements, mesh.n_edges
    # overflow near the ends of the float range fails the residual contract
    with np.errstate(over="ignore", invalid="ignore"):
        W = _inv_sym3(system.loc)
        We = W.sum(axis=2)
        s = We.sum(axis=1)
        z = We / s[:, None]
        S = W - We[:, :, None] * z[:, None, :]

    # trace unknowns: one per interior edge, numbered in nested-dissection
    # order, by element slot
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
        q = np.einsum("tij,tj->ti", S, c) + z * r[:, None]
        c[inner] += solve_traces(
            -np.bincount(slot_id[inner], q[inner], minlength=n_tr)
        )[slot_id[inner]]
        q = np.einsum("tij,tj->ti", S, c) + z * r[:, None]
        u = ((We * c).sum(axis=1) - r) / s
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

