"""Residual error estimators and oscillation terms for the mixed solution.

All quantities are per-element squares with the mesh weight

    h_T = |T|^(1/2),

not the diameter.  On bisection meshes this weight drops by exactly
2^(-1/2) per bisection, which is what makes the estimator reduction on
refined elements hold with the factor 2^(-b/2) without shape-regularity
slack.

The coefficient is A = a_T I with a_T constant on each initial element
(``problem.a``), and 1/a_T is read once per element.  A flux q in RT0 is
affine on each element with gradient beta * I, so curl(A^-1 q) vanishes
there and A^-1 q is affine on elements and edges: the estimators carry
no curl term.

Stress estimator (drives the adaptive loop)::

    eta2(q, T) = h_T^2 ||f - f_h||_T^2
               + h_T   ||J(A^-1 q . tau)||_{dT}^2

Full estimator (exposes the displacement residual, exponent kappa on the
data term)::

    eta2_kappa(q, u_h, T) = ||h^kappa (f + div q)||_T^2
                          + h_T ||J(A^-1 q . tau)||_{dT}^2
                          + ||h (A^-1 q - grad_h u_h)||_T^2

with grad_h u_h = 0 for elementwise-constant displacements.

Jumps are taken along the stored edge orientation; each interior edge
contributes its full jump integral to both incident elements.  On boundary
edges the one-sided tangential trace is measured against the tangential
derivative of the Dirichlet datum (zero for g = 0, recovering the plain
one-sided trace).

Oscillations replace integrands by their residuals under local L2-best
approximation; every report carries them next to the estimator terms of
the same mesh.  Only two terms leave one: the stress data term, whose
integrand f - f_h already is the residual of the cellwise mean (one array
serves as both), and the boundary jumps, where -g_tan is projected onto
quadratics along each boundary edge; no other edge is sampled.  That
projection commutes with the affine map of an edge, and a quadrature rule
has the same reference nodes and weights on every edge, so its residual
is one constant matrix ``I - V (V^T W V)^-1 V^T W`` applied to the
samples, V holding the monomials 1, t, t^2 at the nodes of the 5-point
rule; a 3-point rule would interpolate them exactly and return
identically zero residuals.

The flux q is one :class:`~amfem.fem.FluxField` on the estimator's mesh; a
solution of :func:`amfem.fem.solve` is one, as is a restriction to a
refinement.  ``_edge_jumps`` samples its tangential jumps at edge points
and ``_edge_term`` turns them into the weighted per-element squares above.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .fem import PwConstData, eval_f_on_elements, root_a_inv
from .mesh import MeshError
from .quadrature import TRI_6, EDGE_3, EDGE_5, edge_points
from .util import ordered_sum

__all__ = [
    "IndicatorReport", "indicators_stress", "indicators_full", "data_osc_elem",
]

@dataclass(frozen=True)
class IndicatorReport:
    """Per-element squared indicator and oscillation terms plus their
    ordered global sums; the oscillation terms have the same weights and
    counting as the indicator terms."""
    mesh: object
    data2: np.ndarray
    jump2: np.ndarray
    jump_osc2: np.ndarray
    data_osc2: np.ndarray
    disp2: np.ndarray = None      # full estimator only
    eta2_elem: np.ndarray = dc_field(init=False)
    eta2: float = dc_field(init=False)
    osc2: float = dc_field(init=False)          # jump + data
    osc_f2: float = dc_field(init=False)        # data only: osc(f, T)^2

    def __post_init__(self):
        total = self.data2 + self.jump2
        if self.disp2 is not None:
            total = total + self.disp2
        object.__setattr__(self, "eta2_elem", total)
        object.__setattr__(self, "eta2", ordered_sum(total))
        object.__setattr__(self, "osc2", ordered_sum(
            self.jump_osc2 + self.data_osc2))
        object.__setattr__(self, "osc_f2", ordered_sum(self.data_osc2))

    @property
    def eta(self):
        return float(np.sqrt(self.eta2))

    def subset_sum(self, ids):
        """Sum of eta2 over the given elements, ascending-id order."""
        ids = np.sort(np.asarray(ids, dtype=np.int64))
        return ordered_sum(self.eta2_elem[ids])


def _check_mesh(mesh, field):
    if field.mesh is not mesh:
        raise MeshError("field lives on a different mesh than the indicators")


def _projection_residual(basis, w):
    """I - V (V^T W V)^-1 V^T W: the residual of the discrete L2 projection
    onto the span of the columns of ``basis`` (V) at nodes with weights w."""
    vw = basis.T * w
    return np.eye(basis.shape[0]) - basis @ np.linalg.solve(vw @ basis, vw)


# quadratics along an edge, in its parameter t
_P2_EDGE_RESIDUAL = _projection_residual(
    np.vander(EDGE_5[0], 3, increasing=True), EDGE_5[1])


def _edge_jumps(mesh, field, problem):
    """Jump of A^-1 q . tau at the EDGE_3 points of every edge, (ne, 3)."""
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    epts = edge_points(EDGE_3, a, b)                     # (ne, q, 2)
    tau = mesh.edge_tangents
    ne, q = epts.shape[:2]
    # every element side of every edge in one batch, each side reading 1/a
    # by its own element's root; a missing side keeps a zero trace.  The
    # batch sets the estimator's peak memory, so the points and the flux
    # values are dropped as soon as they are used
    traces = np.zeros((ne, 2, q))
    e, side = np.nonzero(mesh.edge_tris >= 0)
    t = mesh.edge_tris[e, side]
    av = root_a_inv(problem, mesh)[t][:, None, None] * field.eval(t, epts[e])
    traces[e, side] = np.einsum("eqd,ed->eq", av, tau[e])

    # side 0 minus side 1 inside; the one-sided trace on the boundary
    bnd = mesh.boundary_edge
    jumps = traces[:, 0] - traces[:, 1]
    jumps[bnd] = traces[bnd].sum(axis=1)
    if problem.g_tan is not None:
        jumps[bnd] -= _g_tan(mesh, problem, EDGE_3)
    return jumps


def _g_tan(mesh, problem, rule):
    """g_tan at the ``rule`` points of the boundary edges, (nb, q)."""
    bnd = mesh.boundary_edge
    epts = edge_points(rule, mesh.vertices[mesh.edges[bnd, 0]],
                       mesh.vertices[mesh.edges[bnd, 1]])
    q = epts.shape[1]
    taub = np.repeat(mesh.edge_tangents[bnd], q, axis=0)
    return np.asarray(problem.g_tan(epts.reshape(-1, 2), taub)).reshape(-1, q)


def _jump_osc(mesh, problem):
    """Per-element jump oscillation: h_T times the squared residuals, over
    T's edges, of the jumps under the projection onto quadratics.

    A^-1 q is affine, so its jumps leave no residual: only the -g_tan of
    the boundary edges is sampled, at their EDGE_5 points."""
    jumps = np.zeros((mesh.n_edges, EDGE_5[0].size))
    if problem.g_tan is not None:
        jumps[mesh.boundary_edge] -= _g_tan(mesh, problem, EDGE_5)
    return _edge_term(mesh, jumps @ _P2_EDGE_RESIDUAL.T, EDGE_5)


def _edge_term(mesh, jumps, rule):
    """h_T times the sum of ||jump||_E^2 over each element's edges."""
    edge_int = ((jumps ** 2) @ rule[1]) * mesh.edge_lengths
    return np.sqrt(mesh.areas) * edge_int[mesh.tri_edges].sum(axis=1)


def data_osc_elem(f, mesh):
    """Per-element squared data oscillation h_T^2 ||f - f_h||_T^2.

    Exactly zero for mesh-attached constant data, which requires ``mesh`` to
    refine the data's carrier (not checked here).  The cellwise mean f_h
    comes from the same 6-point samples, as in ``fem.project_f``.
    """
    if isinstance(f, PwConstData):
        return np.zeros(mesh.n_elements)
    fv = eval_f_on_elements(f, mesh, mesh.quad_points)
    f_h = fv @ TRI_6[1]
    return ((fv - f_h[:, None]) ** 2 @ TRI_6[1]) * mesh.areas ** 2


def indicators_stress(mesh, field, problem):
    """Stress estimator, the default input of the marking step, with the
    oscillation terms of the same mesh."""
    _check_mesh(mesh, field)
    data2 = data_osc_elem(problem.f, mesh)
    return IndicatorReport(
        mesh=mesh,
        data2=data2,
        jump2=_edge_term(mesh, _edge_jumps(mesh, field, problem), EDGE_3),
        jump_osc2=_jump_osc(mesh, problem),
        data_osc2=data2)


def indicators_full(mesh, field, problem, kappa=1.0):
    """Full estimator with data exponent kappa in [0, 1].

    The data residual is ``f + div q`` (not the projected difference), the
    displacement residual compares ``A^-1 q`` against the elementwise
    gradient of u_h, which vanishes for the lowest-order pair.  The jump
    and oscillation terms are those of the stress estimator.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    stress = indicators_stress(mesh, field, problem)
    pts = mesh.quad_points
    aq = root_a_inv(problem, mesh)[:, None, None] \
        * field.eval(np.arange(mesh.n_elements), pts)
    resid = eval_f_on_elements(problem.f, mesh, pts) + field.div[:, None]
    return replace(
        stress,
        data2=((resid ** 2) @ TRI_6[1]) * mesh.areas ** kappa * mesh.areas,
        disp2=(np.einsum("tqd,tqd->tq", aq, aq) @ TRI_6[1]) * mesh.areas ** 2)
