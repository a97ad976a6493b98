"""Error indicators and oscillation terms: frozen values and structure."""

import numpy as np
import pytest

import amfem.quadrature as quad
from amfem.cli import make_custom_problem
from amfem.estimate import (_edge_jumps, indicators_full, indicators_stress,
                            oscillations)
from amfem.adapt import solve_on
from amfem.fem import FluxField
from amfem.mesh import create_initial, refine, uniform_refine
from amfem.problems import ProblemSpec, builtin


def identity_A(x, roots):
    x = np.atleast_2d(x)
    return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()


def make_problem(f, name="synthetic", **kw):
    return ProblemSpec(name=name, domain="unit_square", A=identity_A,
                       A_inv=identity_A, f=f, **kw)


def zero_field(mesh):
    return FluxField.from_coeffs(mesh, np.zeros(mesh.n_edges))


def varcoef_problem():
    """A = (1 + x^2) I: smooth, symmetric, with a nonzero Curl A^-1."""

    def A(x, roots):
        x = np.atleast_2d(x)
        return (1.0 + x[:, 0] ** 2)[:, None, None] * np.eye(2)[None]

    def A_inv(x, roots):
        x = np.atleast_2d(x)
        return (1.0 / (1.0 + x[:, 0] ** 2))[:, None, None] * np.eye(2)[None]

    def curl_A_inv(x, roots):
        x = np.atleast_2d(x)
        gx = -2.0 * x[:, 0] / (1.0 + x[:, 0] ** 2) ** 2
        return np.stack([np.zeros_like(gx), gx], axis=-1)

    return ProblemSpec(name="varcoef", domain="unit_square", A=A,
                       A_inv=A_inv, f=lambda x, roots: np.ones(
                           np.atleast_2d(x).shape[0]),
                       curl_A_inv=curl_A_inv)


# ---------------------------------------------------------------------------
# frozen data term


def test_data_term_linear_source():
    # f = x on the two-triangle square: h_T^2 ||f - f_T||^2 = 1/72 per
    # element (variance of a linear function over a half square)
    prob = make_problem(lambda x, roots: np.atleast_2d(x)[:, 0])
    mesh = create_initial("unit_square")
    rep = indicators_stress(mesh, zero_field(mesh), prob)
    assert np.allclose(rep.data2, 1.0 / 72.0, rtol=1e-14)
    osc = oscillations(mesh, zero_field(mesh), prob)
    assert osc.osc_f2 <= rep.data2.sum() + 1e-15


def test_zero_everything_gives_zero_estimator():
    prob = make_problem(lambda x, roots: np.zeros(np.atleast_2d(x).shape[0]))
    mesh = uniform_refine(create_initial("unit_square"), 2)
    rep = indicators_stress(mesh, zero_field(mesh), prob)
    assert rep.eta2 == 0.0
    assert np.all(rep.eta2_elem == 0.0)


# ---------------------------------------------------------------------------
# term structure


def test_curl_term_vanishes_for_constant_coefficients():
    for name in ("square_sine", "square_pwconst", "checkerboard"):
        prob = builtin(name)
        mesh = uniform_refine(create_initial(prob.domain), 2)
        rep = indicators_stress(mesh, solve_on(prob, mesh), prob)
        assert np.all(rep.curl2 == 0.0)


def test_curl_term_matches_independent_quadrature():
    # for a flux in the lowest-order space and A = (1 + x^2) I,
    # curl(A^-1 q) reduces to Curl(a^-1) . q
    prob = varcoef_problem()
    mesh = uniform_refine(create_initial("unit_square"), 4)
    sol = solve_on(prob, mesh)
    rep = indicators_stress(mesh, sol, prob)
    assert rep.curl2.sum() > 0.0

    pts = quad.tri_points(quad.TRI_7, mesh.vertices[mesh.triangles])
    el = np.arange(mesh.n_elements)
    vals = sol.field.eval(el, pts)
    cai = prob.curl_A_inv(pts.reshape(-1, 2), np.repeat(
        mesh.root_elem, pts.shape[1])).reshape(pts.shape)
    cv = np.einsum("tqd,tqd->tq", cai, vals)
    manual = mesh.areas ** 2 * ((cv ** 2) @ quad.TRI_7[1])
    # different quadrature degrees, so agreement is approximate
    assert np.allclose(rep.curl2, manual, rtol=2e-3, atol=1e-15)


def test_element_oscillations_match_least_squares_fits():
    # the constant reference projector against a weighted least-squares
    # fit of {1, x, y} in physical coordinates on every element of a mesh
    # graded toward (1, 1), where curl(A^-1 q) and A^-1 q are not affine
    prob = varcoef_problem()
    mesh = uniform_refine(create_initial("unit_square"), 4)
    for _ in range(8):
        corner = (mesh.vertices[mesh.triangles] == 1.0).all(axis=2).any(axis=1)
        mesh = refine(mesh, np.flatnonzero(corner)).mesh
    sol = solve_on(prob, mesh)
    osc = oscillations(mesh, sol, prob)

    pts = quad.tri_points(quad.TRI_6, mesh.vertices[mesh.triangles])
    w = quad.TRI_6[1]
    q = sol.field.eval(np.arange(mesh.n_elements), pts)
    cai = prob.curl_A_inv(pts.reshape(-1, 2), np.repeat(
        mesh.root_elem, pts.shape[1])).reshape(pts.shape)
    curl = np.einsum("tqd,tqd->tq", cai, q)
    aq = q / (1.0 + pts[..., :1] ** 2)
    ref_curl = np.empty(mesh.n_elements)
    ref_disp = np.empty(mesh.n_elements)
    for t in range(mesh.n_elements):
        basis = np.column_stack([np.ones(6), pts[t]])
        for vals, out in ((curl[t][:, None], ref_curl), (aq[t], ref_disp)):
            coef = np.linalg.lstsq(np.sqrt(w)[:, None] * basis,
                                   np.sqrt(w)[:, None] * vals, rcond=None)[0]
            resid = vals - basis @ coef
            out[t] = mesh.areas[t] ** 2 * (w @ (resid ** 2).sum(axis=1))

    assert ref_curl.min() > 0.0 and ref_disp.min() > 0.0
    assert np.allclose(osc.curl_osc2, ref_curl, rtol=1e-10, atol=0.0)
    assert np.allclose(osc.disp_osc2, ref_disp, rtol=1e-10, atol=0.0)


def test_jump_locality_single_edge_field():
    prob = make_problem(lambda x, roots: np.zeros(np.atleast_2d(x).shape[0]))
    mesh = uniform_refine(create_initial("unit_square"), 3)
    interior = np.flatnonzero(~mesh.boundary_edge)
    e = int(interior[interior.size // 2])
    coeffs = np.zeros(mesh.n_edges)
    coeffs[e] = 1.0
    rep = indicators_stress(mesh, FluxField.from_coeffs(mesh, coeffs), prob)
    support = set(mesh.edge_tris[e].tolist())
    # the support and every element sharing an edge with it
    allowed = set(mesh.edge_tris[mesh.tri_edges[sorted(support)]].ravel()
                  .tolist()) - {-1}
    outside = np.setdiff1d(np.arange(mesh.n_elements), sorted(allowed))
    assert np.all(rep.eta2_elem[outside] == 0.0)
    assert rep.eta2_elem[sorted(support)].min() > 0.0


def test_interface_traces_read_their_own_side():
    # a custom checkerboard on a mesh graded toward the centre, where all
    # four coefficient interfaces meet, down to h_T <= 1e-6: with a constant
    # flux q each side's trace is exactly (1/a) q.tau, read by the side's
    # own initial element however close the edge points lie to both
    a = np.ones(8)
    a[[0, 1, 6, 7]] = 100.0
    prob = make_custom_problem({"a.%d" % r: 100.0 for r in (0, 1, 6, 7)},
                               "checkerboard")
    mesh = create_initial("checkerboard")
    while mesh.areas.min() > 1e-12:
        at = np.all(mesh.vertices[mesh.triangles] == 0.5, axis=2)
        mesh = refine(mesh, np.flatnonzero(at.any(axis=1))).mesh
    q = np.array([0.3, -1.7])
    field = FluxField(mesh, np.tile(q, (mesh.n_elements, 1)),
                      np.zeros(mesh.n_elements))
    jumps = _edge_jumps(mesh, field, prob, quad.EDGE_3)

    inner = np.flatnonzero(~mesh.boundary_edge)
    side_a = a[mesh.root_elem[mesh.edge_tris[inner]]]       # (n_inner, 2)
    want = (1.0 / side_a[:, 0] - 1.0 / side_a[:, 1]) \
        * (mesh.edge_tangents[inner] @ q)
    interface = side_a[:, 0] != side_a[:, 1]
    small = np.sqrt(mesh.areas[mesh.edge_tris[inner]].min(axis=1)) <= 1e-6
    assert np.count_nonzero(interface & small) >= 4
    assert np.allclose(jumps[inner], want[:, None], rtol=1e-12, atol=0.0)


def test_full_estimator_kappa_weight():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(prob, mesh)
    r0 = indicators_full(mesh, sol, prob, kappa=0.0)
    r1 = indicators_full(mesh, sol, prob, kappa=1.0)
    # the data term carries the extra |T|^kappa factor, elementwise
    assert np.allclose(r1.data2, r0.data2 * mesh.areas, rtol=1e-13)
    with pytest.raises(ValueError):
        indicators_full(mesh, sol, prob, kappa=1.5)


def test_full_estimator_includes_displacement_term():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(prob, mesh)
    full = indicators_full(mesh, sol, prob)
    stress = indicators_stress(mesh, sol, prob)
    assert full.disp2 is not None
    assert np.all(full.disp2 >= 0.0)
    assert full.eta2 >= stress.eta2 - 1e-15


# ---------------------------------------------------------------------------
# oscillation behavior


def test_oscillation_dominance_elementwise():
    for name in ("square_sine", "lshape_singular"):
        prob = builtin(name)
        mesh = uniform_refine(create_initial(prob.domain), 2)
        sol = solve_on(prob, mesh)
        rep = indicators_stress(mesh, sol, prob)
        osc = oscillations(mesh, sol, prob)
        assert np.all(osc.data_osc2 <= rep.data2 + 1e-15)
        assert np.all(osc.curl_osc2 <= rep.curl2 + 1e-15)
        assert np.all(osc.jump_osc2 <= rep.jump2 + 1e-15)
        assert osc.osc2 <= rep.eta2 + 1e-12


def test_jump_oscillation_interior_affine_exact():
    # with A = I the tangential trace of a lowest-order flux is affine on
    # every interior edge, so its quadratic projection residual vanishes;
    # the inhomogeneous boundary data keeps the boundary residual positive
    prob = builtin("lshape_singular")
    mesh = uniform_refine(create_initial("lshape"), 2)
    sol = solve_on(prob, mesh)
    osc = oscillations(mesh, sol, prob)
    has_bdry = mesh.boundary_edge[mesh.tri_edges].any(axis=1)
    assert np.all(osc.jump_osc2[~has_bdry] <= 1e-24)
    assert osc.jump_osc2[has_bdry].max() > 1e-12


def test_pwconst_data_has_zero_data_oscillation():
    prob = builtin("square_pwconst")
    mesh = uniform_refine(create_initial("unit_square"), 3)
    sol = solve_on(prob, mesh)
    osc = oscillations(mesh, sol, prob)
    assert osc.osc_f2 <= 1e-28


def test_fixed_field_estimator_monotone_under_refinement():
    prob = builtin("square_sine")
    coarse = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(prob, coarse)
    fine = uniform_refine(coarse)
    rep_c = indicators_stress(coarse, sol, prob)
    rep_f = indicators_stress(fine, sol.field.restrict_to(fine), prob)
    assert rep_f.eta2 <= rep_c.eta2


# ---------------------------------------------------------------------------
# report plumbing


def test_indicator_report_subset_sum():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    rep = indicators_stress(mesh, solve_on(prob, mesh), prob)
    ids = np.array([3, 0, 5])
    got = rep.subset_sum(ids)
    assert got == pytest.approx(float(rep.eta2_elem[ids].sum()), rel=1e-14)
    assert rep.subset_sum(np.arange(mesh.n_elements)) == \
        pytest.approx(rep.eta2, rel=1e-14)
    assert rep.eta == pytest.approx(np.sqrt(rep.eta2))


def test_field_and_solution_reports_agree():
    prob = builtin("checkerboard")
    mesh = uniform_refine(create_initial("checkerboard"))
    sol = solve_on(prob, mesh)
    r1 = indicators_stress(mesh, sol, prob)
    r2 = indicators_stress(mesh, sol.field, prob)
    assert np.array_equal(r1.eta2_elem, r2.eta2_elem)
