"""Marking, the adaptive loop, traces, rate fits, and the two-step variant."""

import gc
import itertools
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from amfem.adapt import (AdaptTrace, GAMMA_GRID, TRACE_COLUMNS, amfem,
                         approx_data, contraction_scan, data_osc_elem,
                         dorfler_mark, fit_rate, make_reference, two_step)
from amfem.fem import PwConstData, project_f
from amfem.mesh import MeshError, create_initial, uniform_refine
from amfem.problems import builtin, piecewise
from amfem.util import ordered_sum


# ---------------------------------------------------------------------------
# bulk marking


def test_dorfler_hand_cases():
    ms = dorfler_mark([4.0, 3.0, 2.0, 1.0], 0.5)
    assert ms.ids.tolist() == [0]
    assert ms.marked_sum == 4.0
    assert ms.total_sum == 10.0
    assert ms.ids.size

    ms = dorfler_mark([4.0, 3.0, 2.0, 1.0], 0.8)
    assert ms.ids.tolist() == [0, 1]
    assert ms.marked_sum == 7.0

    ms = dorfler_mark([4.0, 3.0, 2.0, 1.0], 1.0)
    assert ms.ids.tolist() == [0, 1, 2, 3]


def test_dorfler_tie_break_lowest_id():
    ms = dorfler_mark([1.0, 1.0, 1.0, 1.0], 0.5)
    assert ms.ids.tolist() == [0]
    # a later duplicate of the max never displaces an earlier one
    ms = dorfler_mark([2.0, 3.0, 3.0], 0.6)
    assert ms.ranked.tolist()[0] == 1


def test_dorfler_all_zero_report():
    for eta2 in ([0.0, 0.0], []):
        ms = dorfler_mark(eta2, 0.7)
        assert ms.ids.size == 0
        assert ms.marked_sum == 0.0


def test_dorfler_theta_validation():
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 0.0)
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 1.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_dorfler_rejects_non_finite_or_negative_indicators(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        dorfler_mark([bad, 1.0, 2.0], 0.5)


def test_dorfler_bulk_and_minimality_random():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        eta2 = rng.lognormal(sigma=2.0, size=n)
        theta = float(rng.uniform(0.05, 1.0))
        ms = dorfler_mark(eta2, theta)
        thr = theta * theta * float(np.sum(eta2))
        assert ms.marked_sum >= thr - 1e-12 * ms.total_sum
        # dropping the weakest marked element must break the criterion
        if ms.ids.size > 1:
            weakest = eta2[ms.ids].min()
            assert ms.marked_sum - weakest < thr


def test_dorfler_exhaustive_small_reports():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        eta2 = rng.lognormal(size=n)
        theta = float(rng.uniform(0.2, 0.95))
        ms = dorfler_mark(eta2, theta)
        thr = theta * theta * float(np.sum(eta2))
        k = ms.ids.size
        for r in range(k):
            best = max((sum(c) for c in itertools.combinations(eta2, r)),
                       default=0.0)
            assert best < thr


def test_dorfler_theta_prefix_property():
    rng = np.random.default_rng(8)
    eta2 = rng.lognormal(sigma=1.5, size=50)
    prev = []
    for theta in (0.2, 0.4, 0.6, 0.8, 1.0):
        ranked = dorfler_mark(eta2, theta).ranked.tolist()
        assert ranked[:len(prev)] == prev
        prev = ranked


# ---------------------------------------------------------------------------
# adaptive loop


def test_amfem_loop_soundness():
    trace = amfem(builtin("square_sine"), theta=0.5, max_dofs=600, keep=True)
    n_elems = [r["n_elem"] for r in trace.rows]
    assert n_elems == sorted(n_elems)
    assert n_elems[0] == 2
    assert trace.rows[-1]["n_flux_dofs"] <= 600
    assert trace.rows[-1]["eta2"] < trace.rows[0]["eta2"]
    for st in trace.states:
        if st.markset is not None and st.refined is not None:
            assert np.isin(st.markset.ids, st.refined).all()
    # rows and kept states stay aligned
    assert len(trace.states) == len(trace.rows)
    for r, st in zip(trace.rows, trace.states):
        assert r["n_elem"] == st.mesh.n_elements


def test_amfem_keeps_only_final_state_by_default():
    for errors in ("auto", "reference"):
        trace = amfem(builtin("square_pwconst"), theta=0.5, max_dofs=300,
                      errors=errors)
        assert len(trace.rows) >= 3
        assert len(trace.states) == 1
        assert trace.states[0].mesh.n_elements == trace.rows[-1]["n_elem"]
    # the reference backfill still reached every row
    assert all(r["surrogate"] for r in trace.rows)


def test_amfem_holds_one_iteration_at_a_time(monkeypatch):
    # at each solve, once garbage is collected, no earlier mesh is alive
    # but the root mesh, which every mesh holds as Mesh.root
    import amfem.adapt as adapt
    solve_on, seen, alive = adapt.solve_on, [], []

    def watched(problem, mesh):
        gc.collect()
        alive.append([ref() for ref in seen
                      if ref() not in (None, mesh, mesh.root)])
        seen.append(weakref.ref(mesh))
        return solve_on(problem, mesh)

    monkeypatch.setattr(adapt, "solve_on", watched)
    trace = amfem(builtin("lshape_singular"), theta=0.5, max_dofs=3000,
                  keep=False)
    assert len(alive) == len(trace.rows) > 2
    assert not any(alive)


def test_amfem_eps_stop():
    trace = amfem(builtin("square_sine"), eps=0.8, theta=0.5,
                  max_dofs=100_000)
    assert np.sqrt(trace.rows[-1]["eta2"]) < 0.8
    # all earlier iterates were above the tolerance
    for r in trace.rows[:-1]:
        assert np.sqrt(r["eta2"]) >= 0.8


def test_amfem_uniform_mode_marks_everything():
    trace = amfem(builtin("square_sine"), mode="uniform", max_dofs=200)
    for r in trace.rows[:-1]:
        assert r["n_marked"] == r["n_elem"]


def test_refinement_over_budget_is_never_built(monkeypatch):
    # one marked element bisected 12 times leaves 4 096 elements, far over
    # a 200-dof budget, so the step ends the loop without refining
    import amfem.adapt as adapt
    calls = []
    monkeypatch.setattr(adapt, "refine",
                        lambda *args, **kwargs: calls.append(args))
    trace = amfem(builtin("square_sine"), b=12, max_dofs=200)
    assert calls == []
    assert [r["n_marked"] for r in trace.rows] == [0]


# reason: (problem, amfem keywords, MAX_ITER or None)
STOP_CASES = {
    "eps": ("square_sine", {"eps": 0.8}, None),
    "budget": ("square_sine", {"max_dofs": 300}, None),
    "max_iter": ("square_sine", {}, 2),
    # f = 0 and g = 0: the solution and every indicator vanish
    "nothing_marked": ("zero", {}, None),
}


@pytest.mark.parametrize("reason", STOP_CASES)
def test_amfem_says_why_it_stopped(reason, monkeypatch):
    import amfem.adapt as adapt
    name, kw, max_iter = STOP_CASES[reason]
    if max_iter is not None:
        monkeypatch.setattr(adapt, "MAX_ITER", max_iter)
    prob = piecewise("zero", "unit_square", np.ones(2), {}) \
        if name == "zero" else builtin(name)
    trace = amfem(prob, theta=0.5, **{"max_dofs": 100_000, **kw})
    assert trace.stop == reason
    last = trace.rows[-1]
    assert last["n_marked"] == 0
    if reason == "eps":
        assert np.sqrt(last["eta2"]) < kw["eps"]
    elif reason == "budget":
        assert last["n_flux_dofs"] <= kw["max_dofs"]
    elif reason == "max_iter":
        assert len(trace.rows) == max_iter + 1
        assert last["n_flux_dofs"] < 100
    else:
        assert len(trace.rows) == 1 and last["eta2"] == 0.0


def test_budget_stops_before_and_at_the_budget():
    # a refinement that must exceed the budget is not built; an initial
    # mesh at the budget is not refined
    assert amfem(builtin("square_sine"), b=12, max_dofs=200).stop == "budget"
    trace = amfem(builtin("square_sine"), max_dofs=5)
    assert trace.stop == "budget" and len(trace.rows) == 1
    assert trace.rows[0]["n_flux_dofs"] == 5


@pytest.mark.parametrize("run", [
    lambda **kw: amfem(builtin("square_sine"), **kw),
    lambda **kw: two_step(builtin("square_sine"), eps=0.1, **kw),
], ids=["amfem", "two_step"])
def test_budget_below_the_initial_mesh_is_refused(run, monkeypatch):
    # the initial unit square has 5 flux dofs; nothing is solved
    import amfem.adapt as adapt

    def no_solve(*args):
        raise AssertionError("solved although the budget was refused")

    monkeypatch.setattr(adapt, "solve_on", no_solve)
    with pytest.raises(ValueError, match=(
            "^max_dofs 3 is below the 5 flux dofs of the initial mesh$")):
        run(max_dofs=3)


def test_two_step_stop_is_the_adaptive_phase_reason():
    assert two_step(builtin("square_sine"), eps=0.5).stop == "eps"
    trace = two_step(builtin("square_sine"), eps=0.01, max_dofs=2000)
    assert trace.stop == "budget"


def test_amfem_rejects_unknown_knobs():
    with pytest.raises(ValueError):
        amfem(builtin("square_sine"), mode="random")
    with pytest.raises(ValueError):
        amfem(builtin("square_sine"), estimator="recovery")
    with pytest.raises(ValueError):
        amfem(builtin("square_sine"), errors="refernce")


def test_amfem_full_estimator_runs():
    trace = amfem(builtin("square_sine"), estimator="full", kappa=0.5,
                  max_dofs=300)
    assert trace.meta["estimator"] == "full"
    assert trace.rows[-1]["eta2"] > 0.0


@pytest.mark.parametrize("estimator, passes", [("stress", 2), ("full", 3)])
def test_source_is_sampled_once_per_pass(estimator, passes):
    # each iteration samples f at the 6 quadrature points of every element
    # for project_f and the one estimator pass, whose report carries the
    # data oscillation; the full estimator's residual samples them once more
    prob = builtin("checkerboard")
    points = []

    def f(x, roots):
        points.append(len(x))
        return prob.f(x, roots)

    trace = amfem(replace(prob, f=f), theta=0.5, max_dofs=3000,
                  estimator=estimator)
    assert sum(points) == passes * 6 * sum(r["n_elem"] for r in trace.rows)


# ---------------------------------------------------------------------------
# trace plumbing


def test_trace_csv_round_trip(tmp_path):
    trace = amfem(builtin("square_sine"), theta=0.5, max_dofs=400)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + len(trace.rows)
    for line, row in zip(lines[1:], trace.rows):
        cells = line.split(",")
        assert int(cells[0]) == row["k"]
        assert float(cells[3]) == row["eta2"]
    meta = json.loads((tmp_path / "trace.meta.json").read_text())
    assert meta["theta"] == 0.5
    assert meta["columns"] == list(TRACE_COLUMNS)


def test_trace_none_cells_are_empty(tmp_path):
    trace = amfem(builtin("checkerboard"), theta=0.5, max_dofs=200,
                  errors="none")
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    row1 = path.read_text().splitlines()[1].split(",")
    cols = dict(zip(TRACE_COLUMNS, row1))
    assert cols["E2"] == ""
    assert cols["quasi_err"] == ""
    assert np.isnan(trace.column("E2")).all()


def test_complexity_ratio_hand_case():
    trace = AdaptTrace({})
    trace.append({"n_elem": 2, "n_marked": 1})
    trace.append({"n_elem": 4, "n_marked": 2})
    trace.append({"n_elem": 8, "n_marked": 0})
    assert np.allclose(trace.complexity_ratios(), [2.0, 2.0])


# ---------------------------------------------------------------------------
# rate fitting and contraction


def synthetic_trace(slope=0.5, n=10):
    # row 0 pins the fit origin (dn=0, skipped); later rows follow the
    # power law err = dn^(-slope) exactly
    trace = AdaptTrace({})
    trace.append({"k": 0, "n_elem": 2, "flux_err2": 1.0,
                  "E2": None, "eta2": None})
    for k in range(1, n):
        dn = 4 ** k
        trace.append({"k": k, "n_elem": 2 + dn,
                      "flux_err2": float(dn) ** (-2 * slope),
                      "E2": None, "eta2": None})
    return trace


def test_fit_rate_recovers_synthetic_slope():
    fit = fit_rate(synthetic_trace(slope=0.5), "flux_err")
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.stderr <= 1e-12
    assert fit.n_points == 8  # burn-in drops the first two rows
    lo, hi = fit.band
    assert lo <= 0.5 <= hi


def test_fit_rate_burn_in_ignores_prefix():
    trace = synthetic_trace(slope=0.5)
    trace.rows[1]["flux_err2"] = 1e6  # corrupt a burn-in row
    fit = fit_rate(trace, "flux_err")
    assert fit.rate == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_needs_enough_rows():
    with pytest.raises(ValueError):
        fit_rate(synthetic_trace(n=4), "flux_err")
    with pytest.raises(ValueError):
        fit_rate(synthetic_trace(), "entropy")


def test_contraction_scan_synthetic():
    trace = AdaptTrace({})
    for k in range(6):
        trace.append({"n_elem": 2 ** k, "E2": 4.0 ** (-k),
                      "eta2": 4.0 ** (-k)})
    best, ratio, table = contraction_scan(trace)
    assert ratio == pytest.approx(0.25, rel=1e-12)
    assert set(table) == set(GAMMA_GRID)
    assert all(v == pytest.approx(0.25, rel=1e-12) for v in table.values())


def test_contraction_scan_needs_errors():
    trace = amfem(builtin("checkerboard"), max_dofs=150, errors="none")
    with pytest.raises(ValueError):
        contraction_scan(trace)


# ---------------------------------------------------------------------------
# data approximation and two-step


def test_approx_data_meets_tolerance():
    f = lambda x, roots: np.atleast_2d(x)[:, 0]
    mesh0 = create_initial("unit_square")
    osc0 = np.sqrt(ordered_sum(data_osc_elem(f, mesh0)))
    for k in (1, 3, 5):
        tol = osc0 * 2.0 ** (-k)
        mesh = approx_data(f, mesh0, tol)
        osc = np.sqrt(ordered_sum(data_osc_elem(f, mesh)))
        assert osc <= tol
        assert mesh.same_root_as(mesh0)


def test_two_step_run():
    prob = builtin("square_sine")
    trace = two_step(prob, eps=0.5, theta=0.5)
    assert trace.meta["mode"] == "two_step"
    ks = [r["k"] for r in trace.rows]
    assert ks == list(range(len(ks)))
    n_approx = trace.meta["approx_rows"]
    assert n_approx >= 1
    # the second phase solves with resolved data: no data oscillation
    for r in trace.rows[n_approx:]:
        assert r["osc_f2"] <= 1e-20
    # errors are still measured against the original problem
    assert trace.rows[-1]["E2"] is not None
    assert np.sqrt(trace.rows[-1]["eta2"]) < 0.25 + 1e-12


def test_two_step_on_mesh_attached_source():
    # f already piecewise constant on the initial mesh: the data phase
    # stops at once and the adaptive phase runs with the same values
    prob = builtin("square_sine")
    mesh0 = create_initial(prob.domain)
    pw = replace(prob, f=PwConstData(mesh0, project_f(prob.f, mesh0)))
    trace = two_step(pw, eps=0.05, max_dofs=3000)
    assert len(trace.rows) == 35
    assert trace.meta["approx_rows"] == 1
    assert trace.rows[-1]["eta2"] == 0.041626077924645837
    assert trace.stop == "budget"


def test_data_finer_than_the_initial_mesh_is_refused():
    # mesh-attached data whose carrier refines the initial mesh has no
    # oscillation to mark there, so it must not pass as resolved
    prob = builtin("square_sine")
    m0 = create_initial(prob.domain)
    data = PwConstData(uniform_refine(m0, 3),
                       project_f(prob.f, uniform_refine(m0, 3)))
    with pytest.raises(MeshError, match="not a refinement"):
        approx_data(data, m0, 1e-6)
    with pytest.raises(MeshError, match="not a refinement"):
        two_step(replace(prob, f=data), eps=1e-3, max_dofs=2000)


def test_make_reference_levels():
    prob = builtin("square_sine")
    mesh = uniform_refine(create_initial("unit_square"), 2)
    ref = make_reference(prob, mesh)
    assert ref.mesh.n_elements == mesh.n_elements * 4
    assert ref.div_defect <= 1e-9 * (1.0 + np.abs(ref.f_elem).max())
