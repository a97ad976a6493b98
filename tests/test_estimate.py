"""Error indicators and oscillation terms: frozen values and structure."""

import numpy as np
import pytest

from amfem.cli import make_custom_problem
from amfem.estimate import _edge_jumps, indicators_full, indicators_stress
from amfem.adapt import solve_on
from amfem.fem import FluxField
from amfem.mesh import MeshError, create_initial, refine, uniform_refine
from amfem.problems import ProblemSpec, builtin


def make_problem(f, name="synthetic", **kw):
    return ProblemSpec(name=name, domain="unit_square", f=f, a=1.0, **kw)


def zero_field(mesh):
    return FluxField.from_coeffs(mesh, np.zeros(mesh.n_edges))


# ---------------------------------------------------------------------------
# frozen data term


def test_data_term_linear_source():
    # f = x on the two-triangle square: h_T^2 ||f - f_T||^2 = 1/72 per
    # element (variance of a linear function over a half square)
    prob = make_problem(lambda x, roots: np.atleast_2d(x)[:, 0])
    mesh = create_initial("unit_square")
    rep = indicators_stress(mesh, zero_field(mesh), prob)
    assert np.allclose(rep.data2, 1.0 / 72.0, rtol=1e-14)
    assert rep.osc_f2 <= rep.data2.sum() + 1e-15


def test_zero_everything_gives_zero_estimator():
    prob = make_problem(lambda x, roots: np.zeros(np.atleast_2d(x).shape[0]))
    mesh = uniform_refine(create_initial("unit_square"), 2)
    rep = indicators_stress(mesh, zero_field(mesh), prob)
    assert rep.eta2 == 0.0
    assert np.all(rep.eta2_elem == 0.0)


# ---------------------------------------------------------------------------
# term structure


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
    jumps = _edge_jumps(mesh, field, prob)

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
        assert np.all(rep.data_osc2 <= rep.data2 + 1e-15)
        assert np.all(rep.jump_osc2 <= rep.jump2 + 1e-15)
        assert rep.osc2 <= rep.eta2 + 1e-12


def test_jump_oscillation_interior_affine_exact():
    # the tangential trace of A^-1 q, q of lowest order, is affine on every
    # edge, so its quadratic projection residual vanishes: an element
    # without a boundary edge has exactly zero jump oscillation.  The
    # inhomogeneous boundary data of lshape_singular keeps the boundary
    # residual positive; square_sine has no g_tan, so none is left
    for name in ("lshape_singular", "square_sine"):
        prob = builtin(name)
        mesh = uniform_refine(create_initial(prob.domain), 2)
        rep = indicators_stress(mesh, solve_on(prob, mesh), prob)
        has_bdry = mesh.boundary_edge[mesh.tri_edges].any(axis=1)
        assert np.all(rep.jump_osc2[~has_bdry] == 0.0)
        if prob.g_tan is None:
            assert not rep.jump_osc2.any()
        else:
            assert rep.jump_osc2[has_bdry].max() > 1e-12


def test_pwconst_data_has_zero_data_oscillation():
    prob = builtin("square_pwconst")
    mesh = uniform_refine(create_initial("unit_square"), 3)
    sol = solve_on(prob, mesh)
    assert indicators_stress(mesh, sol, prob).osc_f2 <= 1e-28


def test_fixed_field_estimator_monotone_under_refinement():
    prob = builtin("square_sine")
    coarse = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(prob, coarse)
    fine = uniform_refine(coarse)
    rep_c = indicators_stress(coarse, sol, prob)
    rep_f = indicators_stress(fine, sol.restrict_to(fine), prob)
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
    r2 = indicators_stress(mesh, sol, prob)
    assert np.array_equal(r1.eta2_elem, r2.eta2_elem)


@pytest.mark.parametrize("estimator", [indicators_stress, indicators_full])
def test_estimators_refuse_a_field_on_another_mesh(estimator):
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial(prob.domain))
    sol = solve_on(prob, mesh)
    with pytest.raises(MeshError, match="different mesh"):
        estimator(uniform_refine(mesh), sol, prob)
