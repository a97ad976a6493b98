"""Residual error estimators and oscillation terms for the mixed solution.

All quantities are per-element squares with the mesh weight

    h_T = |T|^(1/2),

not the diameter.  On bisection meshes this weight drops by exactly
2^(-1/2) per bisection, which is what makes the estimator reduction on
refined elements hold with the factor 2^(-b/2) without shape-regularity
slack.

Stress estimator (drives the adaptive loop)::

    eta2(q, T) = h_T^2 ||f - f_h||_T^2
               + h_T^2 ||curl(A^-1 q)||_T^2
               + h_T   ||J(A^-1 q . tau)||_{dT}^2

Full estimator (exposes the displacement residual, exponent kappa on the
data term)::

    eta2_kappa(q, u_h, T) = ||h^kappa (f + div q)||_T^2
                          + h_T^2 ||curl(A^-1 q)||_T^2
                          + h_T ||J(A^-1 q . tau)||_{dT}^2
                          + ||h (A^-1 q - grad_h u_h)||_T^2

with grad_h u_h = 0 for elementwise-constant displacements.  The curl of
the matrix-vector product splits as

    curl(A^-1 q) = (Curl A^-1) . q + A^-1 : curl~ q,

where Curl A^-1 holds the scalar curls of the columns of A^-1 and, for an
elementwise-affine q with gradient beta * I, the contraction reduces to
beta (A^-1_21 - A^-1_12); it vanishes for symmetric A.

Jumps are taken along the stored edge orientation; each interior edge
contributes its full jump integral to both incident elements.  On boundary
edges the one-sided tangential trace is measured against the tangential
derivative of the Dirichlet datum (zero for g = 0, recovering the plain
one-sided trace).

Oscillations replace integrands by their residuals under local L2-best
approximation: degree 1 on elements, degree 2 on edges.  Both projections
commute with the affine map of an element or edge, and a quadrature rule
has the same reference nodes and weights everywhere, so each projection
residual is one constant matrix ``I - V (V^T W V)^-1 V^T W`` applied to
the samples: V holds the barycentric coordinates of the 6-point rule on
elements and the monomials 1, t, t^2 at the nodes of the 5-point rule on
edges.  Element terms use the same 6-point rule as the estimator (so
oscillation never exceeds the matching estimator term); edges use a
5-point rule because a 3-point rule would interpolate the quadratic basis
exactly and return identically zero residuals.

Every term samples the flux the same way: ``_element_samples`` gives
A^-1 q and curl(A^-1 q) at the mesh's cached 6-point rule points
``mesh.quad_points``, ``_edge_jumps`` the
tangential jumps at edge points, and ``_element_term`` / ``_edge_term``
turn samples into the weighted per-element squares above.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (FluxField, MixedSolution, PwConstData, coef_at,
                  eval_f_on_elements)
from .mesh import MeshError
from .quadrature import TRI_6, EDGE_3, EDGE_5, edge_points
from .util import ordered_sum

__all__ = [
    "IndicatorReport", "OscReport", "indicators_stress", "indicators_full",
    "oscillations", "data_osc_elem",
]

@dataclass(frozen=True)
class IndicatorReport:
    """Per-element squared indicator terms plus their ordered global sum."""
    mesh: object
    data2: np.ndarray
    curl2: np.ndarray
    jump2: np.ndarray
    disp2: np.ndarray = None      # full estimator only
    eta2_elem: np.ndarray = dc_field(default=None)
    eta2: float = dc_field(default=None)

    def __post_init__(self):
        total = self.data2 + self.curl2 + self.jump2
        if self.disp2 is not None:
            total = total + self.disp2
        object.__setattr__(self, "eta2_elem", total)
        object.__setattr__(self, "eta2", ordered_sum(total))

    @property
    def eta(self):
        return float(np.sqrt(self.eta2))

    def subset_sum(self, ids):
        """Sum of eta2 over the given elements, ascending-id order."""
        ids = np.sort(np.asarray(ids, dtype=np.int64))
        return ordered_sum(self.eta2_elem[ids])


@dataclass(frozen=True)
class OscReport:
    """Oscillation terms; same weights and counting as the estimator terms."""
    curl_osc2: np.ndarray
    jump_osc2: np.ndarray
    data_osc2: np.ndarray
    disp_osc2: np.ndarray
    osc2: float = dc_field(default=None)        # curl + jump + data
    osc_f2: float = dc_field(default=None)      # data only: osc(f, T)^2

    def __post_init__(self):
        object.__setattr__(self, "osc2", ordered_sum(
            self.curl_osc2 + self.jump_osc2 + self.data_osc2))
        object.__setattr__(self, "osc_f2", ordered_sum(self.data_osc2))


def _as_field(mesh, sol_or_field):
    if isinstance(sol_or_field, MixedSolution):
        f = sol_or_field.field
    elif isinstance(sol_or_field, FluxField):
        f = sol_or_field
    else:
        raise TypeError("expected a MixedSolution or FluxField")
    if f.mesh is not mesh:
        raise MeshError("field lives on a different mesh than the indicators")
    return f


def _projection_residual(basis, w):
    """I - V (V^T W V)^-1 V^T W: the residual of the discrete L2 projection
    onto the span of the columns of ``basis`` (V) at nodes with weights w."""
    vw = basis.T * w
    return np.eye(basis.shape[0]) - basis @ np.linalg.solve(vw @ basis, vw)


# affine functions on an element are spanned by its barycentric coordinates
_P1_RESIDUAL = _projection_residual(TRI_6[0], TRI_6[1])
# quadratics along an edge, in its parameter t
_P2_EDGE_RESIDUAL = _projection_residual(
    np.vander(EDGE_5[0], 3, increasing=True), EDGE_5[1])


def _element_samples(mesh, field, problem):
    """A^-1 q and curl(A^-1 q) at the 6-point rule points of each element."""
    pts = mesh.quad_points
    ainv = coef_at(problem.A_inv, mesh.root_elem, pts)
    q = field.eval(np.arange(mesh.n_elements), pts)
    curl = field.beta[:, None] * (ainv[:, :, 1, 0] - ainv[:, :, 0, 1])
    if problem.curl_A_inv is not None:
        cai = coef_at(problem.curl_A_inv, mesh.root_elem, pts)
        curl = curl + np.einsum("tqd,tqd->tq", cai, q)
    return np.einsum("tqab,tqb->tqa", ainv, q), curl


def _element_term(mesh, values):
    """h_T^2 ||v||_T^2 from samples of shape (nt, 6) or (nt, 6, 2)."""
    sq = values ** 2 if values.ndim == 2 else \
        np.einsum("tqd,tqd->tq", values, values)
    return (sq @ TRI_6[1]) * mesh.areas ** 2


def _p1_residual(values):
    """Residual of the L2(T) projection onto affine functions, per element."""
    return np.einsum("pq,tq...->tp...", _P1_RESIDUAL, values)


def _edge_jumps(mesh, field, problem, rule):
    """Jump of A^-1 q . tau at edge quadrature points, shape (ne, q)."""
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    epts = edge_points(rule, a, b)                       # (ne, q, 2)
    tau = mesh.edge_tangents
    ne, q = epts.shape[:2]
    # every element side of every edge in one batch, each side reading A^-1
    # by its own element's root; a missing side keeps a zero trace
    e, side = np.nonzero(mesh.edge_tris >= 0)
    t = mesh.edge_tris[e, side]
    # the batch sets the estimator's peak memory, so each array is dropped
    # once used
    pts = epts[e]
    qv = field.eval(t, pts)
    ainv = coef_at(problem.A_inv, mesh.root_elem[t], pts)
    del pts
    av = np.einsum("eqab,eqb->eqa", ainv, qv)
    del ainv, qv
    traces = np.zeros((ne, 2, q))
    traces[e, side] = np.einsum("eqd,ed->eq", av, tau[e])

    # side 0 minus side 1 inside; the one-sided trace on the boundary
    bnd = mesh.boundary_edge
    jumps = traces[:, 0] - traces[:, 1]
    jumps[bnd] = traces[bnd].sum(axis=1)
    if problem.g_tan is not None:
        taub = np.repeat(tau[bnd], q, axis=0)
        gt = np.asarray(problem.g_tan(epts[bnd].reshape(-1, 2), taub))
        jumps[bnd] -= gt.reshape(-1, q)
    return jumps


def _edge_term(mesh, jumps, rule):
    """h_T times the sum of ||jump||_E^2 over each element's edges."""
    edge_int = ((jumps ** 2) @ rule[1]) * mesh.edge_lengths
    return np.sqrt(mesh.areas) * edge_int[mesh.tri_edges].sum(axis=1)


def data_osc_elem(f, mesh):
    """Per-element squared data oscillation h_T^2 ||f - f_h||_T^2.

    Exactly zero for mesh-attached constant data.  The cellwise mean f_h
    comes from the same 6-point samples, as in ``fem.project_f``.
    """
    if isinstance(f, PwConstData):
        return np.zeros(mesh.n_elements)
    fv = eval_f_on_elements(f, mesh, mesh.quad_points)
    f_h = fv @ TRI_6[1]
    return ((fv - f_h[:, None]) ** 2 @ TRI_6[1]) * mesh.areas ** 2


def indicators_stress(mesh, sol_or_field, problem):
    """Stress estimator, the default input of the marking step."""
    fld = _as_field(mesh, sol_or_field)
    _, curl = _element_samples(mesh, fld, problem)
    jumps = _edge_jumps(mesh, fld, problem, EDGE_3)
    return IndicatorReport(
        mesh=mesh,
        data2=data_osc_elem(problem.f, mesh),
        curl2=_element_term(mesh, curl),
        jump2=_edge_term(mesh, jumps, EDGE_3))


def indicators_full(mesh, sol, problem, kappa=1.0):
    """Full estimator with data exponent kappa in [0, 1].

    The data residual is ``f + div q`` (not the projected difference), the
    displacement residual compares ``A^-1 q`` against the elementwise
    gradient of u_h, which vanishes for the lowest-order pair.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    fld = _as_field(mesh, sol)
    aq, curl = _element_samples(mesh, fld, problem)
    resid = eval_f_on_elements(problem.f, mesh, mesh.quad_points) \
        + fld.div[:, None]
    jumps = _edge_jumps(mesh, fld, problem, EDGE_3)
    return IndicatorReport(
        mesh=mesh,
        data2=((resid ** 2) @ TRI_6[1]) * mesh.areas ** kappa * mesh.areas,
        curl2=_element_term(mesh, curl),
        jump2=_edge_term(mesh, jumps, EDGE_3),
        disp2=_element_term(mesh, aq))


def oscillations(mesh, sol_or_field, problem):
    """Oscillation terms of the stress estimator, elementwise.

    ``osc2`` collects curl, jump and data parts; ``osc_f2`` is the pure
    data oscillation ||h (f - f_h)||^2; ``disp_osc2`` holds the
    displacement residual part per element.
    """
    fld = _as_field(mesh, sol_or_field)
    aq, curl = _element_samples(mesh, fld, problem)
    jumps = _edge_jumps(mesh, fld, problem, EDGE_5) @ _P2_EDGE_RESIDUAL.T
    return OscReport(
        curl_osc2=_element_term(mesh, _p1_residual(curl)),
        jump_osc2=_edge_term(mesh, jumps, EDGE_5),
        data_osc2=data_osc_elem(problem.f, mesh),
        disp_osc2=_element_term(mesh, _p1_residual(aq)))
