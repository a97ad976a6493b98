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
approximation: degree 1 on elements, degree 2 on edges.  The projections
are computed by local mass-matrix solves on monomial bases; element terms
use the same 6-point rule as the estimator (so oscillation never exceeds
the matching estimator term), edge projections use a 5-point rule because
a 3-point rule would interpolate the quadratic basis exactly and return
identically zero residuals.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (FluxField, MixedSolution, PwConstData, eval_f_on_elements,
                  project_f)
from .mesh import MeshError
from .quadrature import TRI_6, EDGE_3, EDGE_5, tri_points, edge_points
from .util import ordered_sum

__all__ = [
    "IndicatorReport", "OscReport", "indicators_stress", "indicators_full",
    "oscillations", "data_osc_elem", "tangential_jump", "dump_indicators_csv",
]

# relative pull of edge quadrature points toward the element centroid when
# evaluating A^-1 traces, so piecewise coefficients are sampled on the
# correct side of their interfaces
_TRACE_PULL = 1e-8


@dataclass(frozen=True)
class IndicatorReport:
    """Per-element squared indicator terms plus their ordered global sum."""
    mesh: object
    estimator: str
    data2: np.ndarray
    curl2: np.ndarray
    jump2: np.ndarray
    disp2: np.ndarray = None      # full estimator only
    kappa: float = None
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
    mesh: object
    curl_osc2: np.ndarray
    jump_osc2: np.ndarray
    data_osc2: np.ndarray
    disp_osc2: np.ndarray
    osc2: float = dc_field(default=None)        # curl + jump + data
    osc_f2: float = dc_field(default=None)      # data only: osc(f, T)^2
    osc_tilde2: float = dc_field(default=None)  # curl + jump + displacement

    def __post_init__(self):
        object.__setattr__(self, "osc2", ordered_sum(
            self.curl_osc2 + self.jump_osc2 + self.data_osc2))
        object.__setattr__(self, "osc_f2", ordered_sum(self.data_osc2))
        object.__setattr__(self, "osc_tilde2", ordered_sum(
            self.curl_osc2 + self.jump_osc2 + self.disp_osc2))


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


def _curl_values(mesh, field, problem, pts, flat_ainv):
    """curl(A^-1 q) at per-element points; flat_ainv is A^-1 at pts."""
    nt, q = pts.shape[:2]
    vals = field.eval(np.arange(nt), pts)
    skew = flat_ainv[:, :, 1, 0] - flat_ainv[:, :, 0, 1]
    out = field.beta[:, None] * skew
    if problem.curl_A_inv is not None:
        cai = np.asarray(problem.curl_A_inv(pts.reshape(-1, 2))).reshape(nt, q, 2)
        out = out + np.einsum("tqd,tqd->tq", cai, vals)
    return out


def _edge_jumps(mesh, field, problem, rule):
    """Jump of A^-1 q . tau at edge quadrature points, shape (ne, q)."""
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    epts = edge_points(rule, a, b)                       # (ne, q, 2)
    tau = mesh.edge_tangents
    ne, q = epts.shape[:2]
    traces = np.zeros((2, ne, q))
    for side in range(2):
        t = mesh.edge_tris[:, side]
        valid = t >= 0
        tv = t[valid]
        pv = epts[valid]
        cent = mesh.centroids[tv]
        shifted = pv + _TRACE_PULL * (cent[:, None, :] - pv)
        ainv = np.asarray(problem.A_inv(shifted.reshape(-1, 2))).reshape(
            pv.shape[0], q, 2, 2)
        qv = field.eval(tv, pv)
        av = np.einsum("eqab,eqb->eqa", ainv, qv)
        traces[side][valid] = np.einsum("eqd,ed->eq", av, tau[valid])

    interior = ~mesh.boundary_edge
    jumps = np.zeros((ne, q))
    jumps[interior] = traces[0][interior] - traces[1][interior]

    bnd = np.flatnonzero(mesh.boundary_edge)
    if bnd.size:
        side0 = mesh.edge_tris[bnd, 0] >= 0
        one_sided = np.where(side0[:, None], traces[0][bnd], traces[1][bnd])
        if problem.g_tan is not None:
            taub = np.repeat(tau[bnd], q, axis=0)
            gt = np.asarray(problem.g_tan(epts[bnd].reshape(-1, 2), taub))
            one_sided = one_sided - gt.reshape(bnd.size, q)
        jumps[bnd] = one_sided
    return jumps


def _edge_sq_integrals(mesh, jumps, rule):
    _, w = rule
    return ((jumps ** 2) @ w) * mesh.edge_lengths


def _scatter_edge_to_elem(mesh, edge_int):
    """h_T times the sum of edge integrals over each element's boundary."""
    h = np.sqrt(mesh.areas)
    return h * edge_int[mesh.tri_edges].sum(axis=1)


def _element_quadrature(mesh, field, problem):
    verts = mesh.vertices[mesh.triangles]
    pts = tri_points(TRI_6, verts)
    flat = pts.reshape(-1, 2)
    ainv = np.asarray(problem.A_inv(flat)).reshape(pts.shape[0], pts.shape[1], 2, 2)
    return pts, ainv


def data_osc_elem(f, mesh, f_elem=None, pts=None):
    """Per-element squared data oscillation h_T^2 ||f - f_h||_T^2.

    Exactly zero for mesh-attached constant data.  ``f_elem`` (the cellwise
    means of f) and ``pts`` (the element points of the 6-point rule) are
    computed when not given.
    """
    if isinstance(f, PwConstData):
        return np.zeros(mesh.n_elements)
    if f_elem is None:
        f_elem = project_f(f, mesh)
    if pts is None:
        pts = tri_points(TRI_6, mesh.vertices[mesh.triangles])
    fv = eval_f_on_elements(f, mesh, pts)
    return ((fv - f_elem[:, None]) ** 2 @ TRI_6[1]) * mesh.areas ** 2


def indicators_stress(mesh, sol_or_field, problem, f_elem=None):
    """Stress estimator, the default input of the marking step."""
    fld = _as_field(mesh, sol_or_field)
    if f_elem is None:
        f_elem = project_f(problem.f, mesh)
    _, w = TRI_6
    pts, ainv = _element_quadrature(mesh, fld, problem)

    data2 = data_osc_elem(problem.f, mesh, f_elem, pts)
    cv = _curl_values(mesh, fld, problem, pts, ainv)
    curl2 = ((cv ** 2) @ w) * mesh.areas ** 2
    jumps = _edge_jumps(mesh, fld, problem, EDGE_3)
    jump2 = _scatter_edge_to_elem(mesh, _edge_sq_integrals(mesh, jumps, EDGE_3))
    return IndicatorReport(mesh=mesh, estimator="stress",
                           data2=data2, curl2=curl2, jump2=jump2)


def indicators_full(mesh, sol, problem, kappa=1.0, f_elem=None):
    """Full estimator with data exponent kappa in [0, 1].

    The data residual is ``f + div q`` (not the projected difference), the
    displacement residual compares ``A^-1 q`` against the elementwise
    gradient of u_h, which vanishes for the lowest-order pair.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    fld = _as_field(mesh, sol)
    if f_elem is None:
        f_elem = project_f(problem.f, mesh)
    _, w = TRI_6
    pts, ainv = _element_quadrature(mesh, fld, problem)

    fv = eval_f_on_elements(problem.f, mesh, pts)
    resid = fv + fld.div[:, None]
    data2 = ((resid ** 2) @ w) * mesh.areas ** kappa * mesh.areas

    cv = _curl_values(mesh, fld, problem, pts, ainv)
    curl2 = ((cv ** 2) @ w) * mesh.areas ** 2
    jumps = _edge_jumps(mesh, fld, problem, EDGE_3)
    jump2 = _scatter_edge_to_elem(mesh, _edge_sq_integrals(mesh, jumps, EDGE_3))

    av = np.einsum("tqab,tqb->tqa", ainv,
                   fld.eval(np.arange(mesh.n_elements), pts))
    disp2 = (np.einsum("tqd,tqd->tq", av, av) @ w) * mesh.areas ** 2
    return IndicatorReport(mesh=mesh, estimator="full", kappa=kappa,
                           data2=data2, curl2=curl2, jump2=jump2, disp2=disp2)


def _project_residual_elem(mesh, values, pts, w):
    """Residual of the L2(T) projection onto affine functions, per element.

    ``values`` has shape (nt, q) or (nt, q, d); the projection uses the
    centroid-centered, h-scaled monomials {1, x, y} and the same quadrature
    as the integrand, so the returned residual norm never exceeds the plain
    norm of ``values``.
    """
    cent = mesh.centroids
    scale = np.sqrt(mesh.areas)
    mono = np.concatenate(
        [np.ones(pts.shape[:2])[..., None],
         (pts - cent[:, None, :]) / scale[:, None, None]], axis=2)  # (nt,q,3)
    mass = np.einsum("tqi,tqj,q->tij", mono, mono, w)
    vec = values if values.ndim == 3 else values[..., None]
    rhs = np.einsum("tqi,tqd,q->tid", mono, vec, w)
    try:
        coef = np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise MeshError(f"ill-conditioned local mass matrix: {exc}") from exc
    resid = vec - np.einsum("tqi,tid->tqd", mono, coef)
    return resid if values.ndim == 3 else resid[..., 0]


def _edge_projection_residual(jumps, rule):
    """Residual of the L2 projection onto quadratics along each edge."""
    t, w = rule
    mono = np.stack([np.ones_like(t), t - 0.5, (t - 0.5) ** 2], axis=1)  # (q,3)
    mass = np.einsum("qi,qj,q->ij", mono, mono, w)
    rhs = np.einsum("qi,eq,q->ei", mono, jumps, w)
    coef = np.linalg.solve(mass, rhs.T).T
    return jumps - coef @ mono.T


def oscillations(mesh, sol_or_field, problem, f_elem=None):
    """Oscillation terms of the stress estimator, elementwise.

    ``osc2`` collects curl, jump and data parts; ``osc_f2`` is the pure
    data oscillation ||h (f - f_h)||^2; ``osc_tilde2`` swaps the data part
    for the displacement residual part.
    """
    fld = _as_field(mesh, sol_or_field)
    if f_elem is None:
        f_elem = project_f(problem.f, mesh)
    _, w = TRI_6
    pts, ainv = _element_quadrature(mesh, fld, problem)

    data_osc2 = data_osc_elem(problem.f, mesh, f_elem, pts)

    cv = _curl_values(mesh, fld, problem, pts, ainv)
    cres = _project_residual_elem(mesh, cv, pts, w)
    curl_osc2 = ((cres ** 2) @ w) * mesh.areas ** 2

    jumps5 = _edge_jumps(mesh, fld, problem, EDGE_5)
    jres = _edge_projection_residual(jumps5, EDGE_5)
    jint = _edge_sq_integrals(mesh, jres, EDGE_5)
    jump_osc2 = _scatter_edge_to_elem(mesh, jint)

    av = np.einsum("tqab,tqb->tqa", ainv,
                   fld.eval(np.arange(mesh.n_elements), pts))
    ares = _project_residual_elem(mesh, av, pts, w)
    disp_osc2 = (np.einsum("tqd,tqd->tq", ares, ares) @ w) * mesh.areas ** 2

    return OscReport(mesh=mesh, curl_osc2=curl_osc2, jump_osc2=jump_osc2,
                     data_osc2=data_osc2, disp_osc2=disp_osc2)


def tangential_jump(mesh, sol_or_field, problem, edge, orientation=1, rule=EDGE_3):
    """Samples of J(A^-1 q . tau) at the quadrature points of one edge.

    ``orientation=-1`` reverses the tangent while keeping the stored side
    order, so the returned samples change sign.
    """
    fld = _as_field(mesh, sol_or_field)
    jumps = _edge_jumps(mesh, fld, problem, rule)
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return orientation * jumps[edge]


def dump_indicators_csv(report, osc, path):
    """Per-element CSV: indicator terms, oscillation terms and h_T."""
    mesh = report.mesh
    h = np.sqrt(mesh.areas)
    cols = ["element", "data2", "curl2", "jump2"]
    if report.disp2 is not None:
        cols.append("disp2")
    cols += ["curl_osc2", "jump_osc2", "data_osc2", "disp_osc2", "h"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(mesh.n_elements):
            row = [str(t), repr(float(report.data2[t])),
                   repr(float(report.curl2[t])),
                   repr(float(report.jump2[t]))]
            if report.disp2 is not None:
                row.append(repr(float(report.disp2[t])))
            row += [repr(float(osc.curl_osc2[t])),
                    repr(float(osc.jump_osc2[t])),
                    repr(float(osc.data_osc2[t])),
                    repr(float(osc.disp_osc2[t])), repr(float(h[t]))]
            fh.write(",".join(row) + "\n")
