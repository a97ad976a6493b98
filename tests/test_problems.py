"""Benchmark problem data: exactness of the closed-form pairs and errors."""

from dataclasses import replace

import numpy as np
import pytest

import amfem.quadrature as quad
import sampled_path as sampled
from amfem.adapt import data_osc_elem, make_reference, solve_on
from amfem.estimate import (_P2_EDGE_RESIDUAL, _edge_term, indicators_full,
                            indicators_stress)
from amfem.fem import (AssemblyError, PwConstData, assemble, project_f,
                       root_a_inv)
from amfem.mesh import Mesh, create_initial, refine, uniform_refine
from amfem.problems import (BUILTIN_PROBLEMS, ProblemSpec, builtin,
                            exact_errors, flux_dist2, piecewise)
from amfem.util import ordered_sum


def bubble_problem():
    """u = x(1-x) y(1-y) with A = I; everything polynomial."""

    def u(x):
        x = np.atleast_2d(x)
        return x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])

    def p(x):
        x = np.atleast_2d(x)
        gx = (1 - 2 * x[:, 0]) * x[:, 1] * (1 - x[:, 1])
        gy = x[:, 0] * (1 - x[:, 0]) * (1 - 2 * x[:, 1])
        return np.stack([gx, gy], axis=-1)

    def f(x, roots):
        x = np.atleast_2d(x)
        return 2 * x[:, 1] * (1 - x[:, 1]) + 2 * x[:, 0] * (1 - x[:, 0])

    return ProblemSpec(name="bubble", domain="unit_square", f=f, a=1.0,
                       exact_u=u, exact_p=p)


def interior_points(problem, rng, n, min_r=0.0):
    """Random points inside the domain, optionally away from the origin,
    and the initial element of each."""
    mesh = create_initial(problem.domain)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    pts, roots = [], []
    while len(pts) < n:
        t = int(rng.integers(mesh.n_elements))
        lam = rng.dirichlet(np.ones(3))
        x = lam @ mesh.vertices[mesh.triangles[t]]
        # stay away from the boundary so finite differences fit inside
        x = 0.7 * x + 0.3 * cent[t]
        if np.hypot(*x) >= min_r:
            pts.append(x)
            roots.append(t)
    return np.array(pts), np.array(roots)


# ---------------------------------------------------------------------------
# registry and coefficients


def test_registry_and_unknown_name():
    assert sorted(BUILTIN_PROBLEMS) == ["checkerboard", "lshape_singular",
                                        "square_pwconst", "square_sine"]
    with pytest.raises(ValueError):
        builtin("poisson_cube")


@pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
def test_coefficient_inverse_pair(name):
    # A = a I and A^-1 = (1/a) I per root: a is positive (A is SPD) and
    # the 1/a every layer reads inverts it on each element
    prob = builtin(name)
    mesh = uniform_refine(create_initial(prob.domain), 2)
    a = np.broadcast_to(prob.a, (mesh.n_roots,))[mesh.root_elem]
    assert np.all(a > 0.0)
    assert np.allclose(a * root_a_inv(prob, mesh), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a0", [1e-309, 0.0])
def test_unusable_scalar_a_reports_its_root_without_a_warning(a0):
    # 1/a overflows or divides by zero; the typed error names the root
    # when the problem is solved
    prob = piecewise("x", "unit_square", [a0, 1.0], {(0, 0): [1.0, 1.0]})
    with pytest.raises(AssemblyError, match="on root element 0:"):
        solve_on(prob, create_initial("unit_square"))


def test_has_exact_flags():
    assert builtin("square_sine").has_exact
    assert builtin("lshape_singular").has_exact
    assert not builtin("square_pwconst").has_exact
    assert not builtin("checkerboard").has_exact


def test_pwconst_source_sign_split():
    prob = builtin("square_pwconst")
    x = np.array([[0.75, 0.25], [0.25, 0.75], [0.6, 0.1]])
    assert np.allclose(prob.f(x, np.array([0, 1, 0])), [1.0, -1.0, 1.0])


def test_checkerboard_contrast_layout():
    # a = 100 on the lower-left and upper-right quarter cells, 1 elsewhere
    prob = builtin("checkerboard")
    assert np.allclose(prob.a[[0, 6, 4, 2]], [100.0, 100.0, 1.0, 1.0])
    mesh = create_initial("checkerboard")
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    diagonal = (centroids[:, 0] < 0.5) == (centroids[:, 1] < 0.5)
    assert np.array_equal(prob.a, np.where(diagonal, 100.0, 1.0))


# ---------------------------------------------------------------------------
# per-root scalar coefficients against the point-by-point path

# where each domain's mesh is graded: the reentrant corner, a corner of the
# square and the point where all four checkerboard interfaces meet
GRADE_TOWARD = {"lshape": (0.0, 0.0), "unit_square": (1.0, 1.0),
                "checkerboard": (0.5, 0.5)}


def _graded(domain):
    mesh = uniform_refine(create_initial(domain), 4)
    for _ in range(12):
        at = np.all(mesh.vertices[mesh.triangles] == GRADE_TOWARD[domain],
                    axis=2)
        mesh = refine(mesh, np.flatnonzero(at.any(axis=1))).mesh
    return mesh


@pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
def test_scalar_coefficients_equal_the_sampled_path(name):
    # reading 1/a once per element performs the products of sampling
    # A^-1 = (1/a) I as a 2x2 matrix at every point, without its
    # off-diagonal zeros, which only add +-0: the local matrices, both
    # estimators and the error agree bit for bit
    prob = builtin(name)
    A_inv = sampled.a_inv_fn(prob.a)
    mesh = _graded(prob.domain)
    sol = solve_on(prob, mesh)
    loc = assemble(mesh, prob, project_f(prob.f, mesh)).loc
    stress = indicators_stress(mesh, sol, prob)
    full = indicators_full(mesh, sol, prob, kappa=0.5)
    ref = None if prob.has_exact else make_reference(prob, mesh)
    err = exact_errors(sol, prob, ref)

    aq, curl = sampled.element_samples(mesh, sol, A_inv)
    curl2 = sampled.element_term(mesh, curl)
    disp2 = sampled.element_term(mesh, aq)
    jump2 = _edge_term(mesh, sampled.edge_jumps(mesh, sol, prob, A_inv,
                                                quad.EDGE_3), quad.EDGE_3)
    fine = mesh if ref is None else ref.mesh
    pts = quad.tri_points(quad.TRI_7, fine.vertices[fine.triangles])
    ids = np.arange(fine.n_elements)
    exact = prob.exact_p(pts.reshape(-1, 2)).reshape(pts.shape) \
        if ref is None else ref.eval(ids, pts)
    flux2 = sampled.flux_norm2(fine, pts, exact - sol.restrict_to(fine).eval(
        ids, pts), A_inv)
    assert np.array_equal(loc, sampled.local_matrices(mesh, A_inv))
    assert np.array_equal(stress.eta2_elem, stress.data2 + curl2 + jump2)
    assert np.array_equal(full.eta2_elem,
                          full.data2 + curl2 + jump2 + disp2)
    assert err.E2 == flux2 + err.div2

    # A^-1 q_h is affine on each element, so the sampled path's curl,
    # displacement and interior jump oscillations are round-off, and the
    # library leaves them out
    curl_osc2 = sampled.element_term(mesh, sampled.p1_residual(curl))
    disp_osc2 = sampled.element_term(mesh, sampled.p1_residual(aq))
    jumps = sampled.edge_jumps(mesh, sol, prob, A_inv, quad.EDGE_5) \
        @ _P2_EDGE_RESIDUAL.T
    jump_osc2 = _edge_term(mesh, jumps, quad.EDGE_5)
    jumps[mesh.boundary_edge] = 0.0
    inner_jump_osc2 = _edge_term(mesh, jumps, quad.EDGE_5)
    assert np.all(curl_osc2 <= 1e-15 * curl2)
    assert np.all(disp_osc2 <= 1e-15 * disp2)
    assert np.all(inner_jump_osc2 <= 1e-15 * jump2)
    if prob.g_tan is None:
        assert not stress.jump_osc2.any()
    data_osc2 = data_osc_elem(prob.f, mesh)
    assert abs(stress.osc2 - ordered_sum(curl_osc2 + jump_osc2 + data_osc2)) \
        <= 1e-15 * stress.eta2
    assert np.array_equal(stress.data_osc2, data_osc2)


# ---------------------------------------------------------------------------
# closed-form pairs


@pytest.mark.parametrize("name", ["square_sine", "lshape_singular"])
def test_flux_is_coefficient_times_gradient(name):
    prob = builtin(name)
    rng = np.random.default_rng(4)
    x, roots = interior_points(prob, rng, 30,
                               min_r=0.3 if "lshape" in name else 0.0)
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    gx = (prob.exact_u(x + ex) - prob.exact_u(x - ex)) / (2 * h)
    gy = (prob.exact_u(x + ey) - prob.exact_u(x - ey)) / (2 * h)
    grad = np.stack([gx, gy], axis=-1)
    n_roots = create_initial(prob.domain).n_elements
    a = np.broadcast_to(prob.a, (n_roots,))[roots]
    want = a[:, None] * grad
    assert np.allclose(prob.exact_p(x), want, atol=1e-6)


@pytest.mark.parametrize("name", ["square_sine", "lshape_singular"])
def test_flux_divergence_balances_source(name):
    prob = builtin(name)
    rng = np.random.default_rng(9)
    x, roots = interior_points(prob, rng, 30,
                               min_r=0.3 if "lshape" in name else 0.0)
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    div = (prob.exact_p(x + ex)[:, 0] - prob.exact_p(x - ex)[:, 0]
           + prob.exact_p(x + ey)[:, 1] - prob.exact_p(x - ey)[:, 1]) / (2 * h)
    assert np.allclose(div, -prob.f(x, roots), atol=1e-5)


def boundary_flux(problem, mesh):
    be = np.flatnonzero(mesh.boundary_edge)
    a = mesh.vertices[mesh.edges[be, 0]]
    b = mesh.vertices[mesh.edges[be, 1]]
    nodes, wts = quad.EDGE_5
    epts = a[:, None, :] + nodes[None, :, None] * (b - a)[:, None, :]
    pv = problem.exact_p(epts.reshape(-1, 2)).reshape(len(be), len(nodes), 2)
    sign = np.where(mesh.edge_tris[be, 0] >= 0, 1.0, -1.0)
    lens = np.linalg.norm(b - a, axis=1)
    tau = mesh.edge_tangents[be]
    normals = np.column_stack([tau[:, 1], -tau[:, 0]])
    return float(np.sum(np.einsum("eqd,ed,q->e", pv, normals, wts)
                        * lens * sign))


def test_divergence_theorem_square_sine():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 5)
    pts = quad.tri_points(quad.TRI_7, mesh.vertices[mesh.triangles])
    fv = prob.f(pts.reshape(-1, 2), np.repeat(mesh.root_elem, pts.shape[1])
                ).reshape(pts.shape[0], pts.shape[1])
    int_f = float(np.sum((fv @ quad.TRI_7[1]) * mesh.areas))
    assert boundary_flux(prob, mesh) + int_f == pytest.approx(0.0, abs=1e-5)


def test_divergence_theorem_lshape_converges():
    # the normal flux is r^(-1/3)-singular at the corner, so the defect
    # decays slowly but must shrink under refinement
    prob = builtin("lshape_singular")
    defects = []
    for lvl in (4, 6):
        mesh = uniform_refine(create_initial("lshape"), lvl)
        defects.append(abs(boundary_flux(prob, mesh)))
    assert defects[1] < defects[0]
    assert defects[1] <= 0.03


def test_lshape_polar_branch():
    prob = builtin("lshape_singular")
    r = np.array([0.3, 0.7])
    # homogeneous trace on both legs of the reentrant corner
    leg_x = np.stack([r, np.zeros_like(r)], axis=-1)
    leg_y = np.stack([np.zeros_like(r), -r], axis=-1)
    assert np.allclose(prob.exact_u(leg_x), 0.0, atol=1e-14)
    assert np.allclose(prob.exact_u(leg_y), 0.0, atol=1e-12)
    # continuous across the negative x axis
    above = np.array([[-0.5, 1e-9]])
    below = np.array([[-0.5, -1e-9]])
    assert prob.exact_u(above)[0] == pytest.approx(prob.exact_u(below)[0],
                                                   rel=1e-6)
    # u = r^(2/3) sin(2 phi / 3) at a hand-checked point
    x = np.array([[0.0, 0.5]])
    want = 0.5 ** (2.0 / 3.0) * np.sin(np.pi / 3.0)
    assert prob.exact_u(x)[0] == pytest.approx(want, rel=1e-12)


def test_lshape_boundary_data_matches_exact_solution():
    prob = builtin("lshape_singular")
    rng = np.random.default_rng(6)
    mesh = create_initial("lshape")
    be = np.flatnonzero(mesh.boundary_edge)
    t = rng.random((be.size, 4))
    a = mesh.vertices[mesh.edges[be, 0]]
    b = mesh.vertices[mesh.edges[be, 1]]
    pts = (a[:, None, :] + t[:, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    assert np.allclose(prob.g(pts), prob.exact_u(pts), atol=1e-14)
    tau = np.repeat(mesh.edge_tangents[be], 4, axis=0)
    gt = prob.g_tan(pts, tau)
    want = np.einsum("nd,nd->n", prob.exact_p(pts), tau)
    assert np.allclose(gt, want, atol=1e-12)


# ---------------------------------------------------------------------------
# error measurement


def test_error_triple_identities():
    prob = bubble_problem()
    mesh = uniform_refine(create_initial("unit_square"), 3)
    sol = solve_on(prob, mesh)
    tr = exact_errors(sol, prob)
    assert tr.E2 == pytest.approx(tr.flux2 + tr.div2, rel=1e-14)
    assert not tr.surrogate
    # with div p_h = -f_h exact, the div error is the data oscillation
    osc_f2 = indicators_stress(mesh, sol, prob).osc_f2
    assert tr.div2 == pytest.approx(osc_f2, rel=1e-12)


def test_exact_errors_decay():
    prob = builtin("square_sine")
    e = []
    for lvl in (3, 5):
        mesh = uniform_refine(create_initial("unit_square"), lvl)
        e.append(exact_errors(solve_on(prob, mesh), prob).flux2)
    assert e[1] < e[0] / 3.0


def test_reference_errors_track_exact_errors():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 3)
    sol = solve_on(prob, mesh)
    ref_mesh = uniform_refine(mesh, 2)
    ref = solve_on(prob, ref_mesh)
    sur = exact_errors(sol, prob, reference=ref)
    tru = exact_errors(sol, prob)
    assert sur.surrogate
    rel = abs(np.sqrt(sur.flux2) - np.sqrt(tru.flux2)) / np.sqrt(tru.flux2)
    assert rel <= 0.25
    # the surrogate only sees the reference-resolved part of the data
    # oscillation, so it underestimates div2 by about (h_ref/h_H)^2
    assert 0.5 * tru.div2 <= sur.div2 <= tru.div2


def test_reference_errors_build_one_ancestor_map(monkeypatch):
    import amfem.fem as fem
    import amfem.problems as problems
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(prob, mesh)
    ref = solve_on(prob, uniform_refine(mesh, 2))
    calls = []
    for mod in (fem, problems):
        monkeypatch.setattr(mod, "ancestor_map",
                            lambda f, c, real=mod.ancestor_map:
                            calls.append(1) or real(f, c))
    exact_errors(sol, prob, reference=ref)
    assert len(calls) == 1


def test_errors_require_exact_or_reference():
    prob = builtin("checkerboard")
    mesh = uniform_refine(create_initial("checkerboard"))
    sol = solve_on(prob, mesh)
    with pytest.raises(ValueError):
        exact_errors(sol, prob)


def test_stability_of_data_projection():
    # replacing f by its coarse projection moves the discrete flux by at
    # most a fixed multiple of the coarse data oscillation
    prob = builtin("square_sine")
    for coarse_lvl in (2, 3):
        coarse = uniform_refine(create_initial("unit_square"), coarse_lvl)
        fine = uniform_refine(coarse, 2)
        sol_f = solve_on(prob, fine)
        fH = PwConstData(coarse, project_f(prob.f, coarse))
        sol_H = solve_on(replace(prob, f=fH), fine)
        dist = np.sqrt(flux_dist2(prob, fine, sol_f, sol_H))
        osc = np.sqrt(ordered_sum(data_osc_elem(prob.f, coarse)))
        assert dist <= 1.0 * osc


def test_errors_survive_mesh_round_trip():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    tr1 = exact_errors(solve_on(prob, mesh), prob)
    mesh2 = Mesh.loads(mesh.dumps())
    tr2 = exact_errors(solve_on(prob, mesh2), prob)
    assert tr1.flux2 == tr2.flux2
    assert tr1.div2 == tr2.div2
