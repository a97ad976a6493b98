"""Built-in verification suites for the adaptive machinery.

Each suite runs a battery of frozen and seeded randomized checks against
the library's own invariants: mesh conformity and genealogy, minimality
of the bulk marking, the discrete Pythagoras identity, the fixed-field
estimator reduction, oscillation dominance, and the discrete upper bound
for the flux distance between nested solutions.  Results come back as
:class:`CheckResult` records so callers (tests, the ``verify`` command)
can render or aggregate them uniformly.

Numeric caps used here were measured during development and frozen with
generous margin; they are regression tripwires, not sharp constants.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .adapt import amfem, dorfler_mark, solve_on
from .estimate import indicators_stress
from .mesh import (INITIAL_DOMAINS, ancestor_map, create_initial, overlay,
                   refine, uniform_refine)
from .problems import builtin, flux_dist2
from .util import ordered_sum

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_many"]

# Worst ratio seen in development was 0.46 (checkerboard); 4x margin.
UPPER_BOUND_CAP = 2.0
# Bisection of the built-in domains reproduces right isosceles triangles,
# so the regularity indicator diam^2/|T| stays at 4 exactly.
SHAPE_REG_CAP = 4.5


@dataclass(frozen=True)
class CheckResult:
    """One named check: a measured number against a frozen bound."""

    suite: str
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self):
        tag = "ok  " if self.passed else "FAIL"
        s = "%s %s.%s measured=%.6g bound=%.6g" % (
            tag, self.suite, self.name, self.measured, self.bound)
        if self.detail:
            s += "  (%s)" % self.detail
        return s


def _result(suite, name, measured, bound, detail=""):
    return CheckResult(suite=suite, name=name, passed=bool(measured <= bound),
                       measured=float(measured), bound=float(bound),
                       detail=detail)


# ---------------------------------------------------------------------------
# mesh


def _random_refine(mesh, rng, rounds, frac=0.35):
    out = [mesh]
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_elements) < frac)
        if marked.size == 0:
            marked = np.array([int(rng.integers(mesh.n_elements))])
        rr = refine(mesh, marked, b=int(rng.integers(1, 3)))
        # every marked element must appear in the refined set
        if not np.isin(marked, rr.refined).all():
            raise AssertionError("marked element survived refinement")
        mesh = rr.mesh
        out.append(mesh)
    return out


def _suite_mesh(seed):
    rng = np.random.default_rng(seed)
    res = []
    area_defect = 0.0
    gene_defect = 0.0
    shape_worst = 0.0
    for dom in INITIAL_DOMAINS:
        root = create_initial(dom)
        total0 = ordered_sum(root.areas)
        for mesh in _random_refine(root, rng, rounds=5):
            area_defect = max(area_defect,
                              abs(ordered_sum(mesh.areas) - total0) / total0)
            # genealogy: every bisection halves the area exactly
            want = root.areas[mesh.root_elem] * 0.5 ** mesh.generation
            gene_defect = max(gene_defect, float(
                np.max(np.abs(mesh.areas - want) / want)))
            shape_worst = max(shape_worst, float(mesh.shape_regularity()))
    res.append(_result("mesh", "area_conservation", area_defect, 1e-12))
    res.append(_result("mesh", "bisection_area_law", gene_defect, 1e-12))
    res.append(_result("mesh", "shape_regularity", shape_worst, SHAPE_REG_CAP))

    # overlay never exceeds the union bound |Ta| + |Tb| - |T0|
    excess = -np.inf
    for _ in range(200):
        dom = list(INITIAL_DOMAINS)[int(rng.integers(len(INITIAL_DOMAINS)))]
        root = create_initial(dom)
        ma = _random_refine(root, rng, rounds=int(rng.integers(1, 4)))[-1]
        mb = _random_refine(root, rng, rounds=int(rng.integers(1, 4)))[-1]
        ov = overlay(ma, mb)
        excess = max(excess, ov.n_elements - (ma.n_elements + mb.n_elements
                                              - root.n_elements))
        # both inputs must embed: every overlay element has a unique
        # ancestor in each (raises if not)
        ancestor_map(ov, ma)
        ancestor_map(ov, mb)
    res.append(_result("mesh", "overlay_union_bound", excess, 0.0,
                       detail="elements beyond |Ta|+|Tb|-|T0| over 200 pairs"))
    return res


# ---------------------------------------------------------------------------
# dorfler


def _brute_minimal_count(eta2, theta):
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    total = csum[-1]
    if total <= 0.0:
        return 0
    thr = theta * theta * total
    return int(np.searchsorted(csum, thr, side="left")) + 1


def _suite_dorfler(seed):
    rng = np.random.default_rng(seed)
    bad_card = 0
    bad_bulk = 0.0
    trials = 0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        eta2 = rng.lognormal(sigma=2.0, size=n)
        if rng.random() < 0.3:
            eta2[rng.random(n) < 0.4] = 0.0
        if rng.random() < 0.05:
            eta2[:] = 0.0
        for theta in (0.2, 0.5, 0.8, 1.0):
            trials += 1
            ms = dorfler_mark(eta2, theta)
            want = _brute_minimal_count(eta2, theta)
            if ms.ids.size != want:
                bad_card += 1
            if ms.ids.size:
                short = theta * theta * ms.total_sum - ms.marked_sum
                bad_bulk = max(bad_bulk, short / ms.total_sum)
    res = [_result("dorfler", "minimal_cardinality", bad_card, 0.0,
                   detail="%d randomized trials" % trials),
           _result("dorfler", "bulk_criterion", bad_bulk, 1e-12,
                   detail="relative shortfall of marked mass")]

    # exhaustive oracle on small reports: no strictly smaller subset of any
    # composition reaches the bulk threshold
    bad_exh = 0
    small_trials = 0
    for _ in range(30):
        n = int(rng.integers(2, 13))
        eta2 = rng.lognormal(sigma=1.5, size=n)
        for theta in (0.3, 0.6, 0.9):
            small_trials += 1
            ms = dorfler_mark(eta2, theta)
            k = ms.ids.size
            thr = theta * theta * float(np.sum(eta2))
            if k > 1:
                for combo in combinations(range(n), k - 1):
                    if float(np.sum(eta2[list(combo)])) >= thr:
                        bad_exh += 1
                        break
    res.append(_result("dorfler", "exhaustive_minimality", bad_exh, 0.0,
                       detail="%d small reports, all subsets of size k-1"
                       % small_trials))
    return res


# ---------------------------------------------------------------------------
# pythagoras


def _suite_pythagoras(seed):
    # piecewise constant data resolved on every mesh: zero data oscillation,
    # so the flux distances between nested solutions satisfy the identity
    # d(ref, coarse)^2 = d(ref, mid)^2 + d(mid, coarse)^2 exactly.
    problem = builtin("square_pwconst")
    coarse = uniform_refine(uniform_refine(create_initial(problem.domain)))
    mid = uniform_refine(coarse)
    ref = uniform_refine(mid)
    s_coarse = solve_on(problem, coarse)
    s_mid = solve_on(problem, mid)
    s_ref = solve_on(problem, ref)
    pc = s_coarse.restrict_to(ref)
    pm = s_mid.restrict_to(ref)
    lhs = flux_dist2(problem, ref, s_ref, pc)
    rhs = (flux_dist2(problem, ref, s_ref, pm)
           + flux_dist2(problem, ref, pm, pc))
    defect = abs(lhs - rhs) / lhs
    osc_f2 = indicators_stress(coarse, s_coarse, problem).osc_f2
    return [_result("pythagoras", "zero_data_oscillation", osc_f2, 1e-28),
            _result("pythagoras", "orthogonality_defect", defect, 1e-8)]


# ---------------------------------------------------------------------------
# reduction


def _suite_reduction(seed):
    res = []
    for pname, b in (("square_sine", 1), ("lshape_singular", 1),
                     ("square_sine", 2)):
        problem = builtin(pname)
        lam = 1.0 - 2.0 ** (-b / 2.0)
        tr = amfem(problem, theta=0.5, b=b, max_dofs=2500, keep=True,
                   errors="none")
        worst = -np.inf
        for a, bb in zip(tr.states[:-1], tr.states[1:]):
            pc = a.sol.restrict_to(bb.mesh)
            rep = indicators_stress(bb.mesh, pc, problem)
            eta2_m = a.report.subset_sum(a.markset.ids)
            lhs = rep.eta2
            rhs = a.report.eta2 - lam * eta2_m
            worst = max(worst, lhs - rhs)
        res.append(_result("reduction", "fixed_field_%s_b%d" % (pname, b),
                           worst, 1e-10,
                           detail="max eta2_fine - (eta2 - lambda*eta2_marked)"))
    return res


# ---------------------------------------------------------------------------
# oscillation


def _suite_oscillation(seed):
    worst = -np.inf
    for pname in ("square_sine", "lshape_singular", "checkerboard"):
        problem = builtin(pname)
        mesh = uniform_refine(uniform_refine(create_initial(problem.domain)))
        for _ in range(2):
            sol = solve_on(problem, mesh)
            rep = indicators_stress(mesh, sol, problem)
            scale = float(np.max(rep.eta2_elem))
            for o, e in ((rep.data_osc2, rep.data2),
                         (rep.jump_osc2, rep.jump2)):
                worst = max(worst, float(np.max(o - e)) / scale)
            mesh = refine(mesh, dorfler_mark(rep.eta2_elem, 0.5).ids).mesh
    return [_result("oscillation", "termwise_dominance", worst, 1e-13,
                    detail="max (osc2 - eta2) per element and term, relative")]


# ---------------------------------------------------------------------------
# upper bound


def _suite_upper_bound(seed):
    res = []
    for pname, theta in (("square_pwconst", 0.5), ("checkerboard", 0.3)):
        problem = builtin(pname)
        tr = amfem(problem, theta=theta, max_dofs=3000, keep=True,
                   errors="none")
        worst = 0.0
        for a, bb in zip(tr.states[:-1], tr.states[1:]):
            pc = a.sol.restrict_to(bb.mesh)
            num = flux_dist2(problem, bb.mesh, bb.sol, pc)
            den = a.report.subset_sum(a.refined) + a.report.osc_f2
            if den > 0.0:
                worst = max(worst, num / den)
        res.append(_result("upper_bound", "distance_vs_refined_%s" % pname,
                           worst, UPPER_BOUND_CAP,
                           detail="||A^-1/2 dp||^2 / (eta2_refined + osc_f2)"))
    return res


# ---------------------------------------------------------------------------
# dispatch


_SUITES = {
    "mesh": _suite_mesh,
    "dorfler": _suite_dorfler,
    "pythagoras": _suite_pythagoras,
    "reduction": _suite_reduction,
    "oscillation": _suite_oscillation,
    "upper_bound": _suite_upper_bound,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, seed=0):
    """Run one verification suite; returns a list of CheckResult."""
    if name not in _SUITES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (name, ", ".join(SUITE_NAMES)))
    return _SUITES[name](seed)


def run_many(names, seed=0):
    """Run each named suite once, "all" every suite; all names are checked,
    and an unknown one raises ValueError, before any suite runs."""
    choices = SUITE_NAMES + ("all",)
    for n in names:
        if n not in choices:
            raise ValueError("unknown suite %r; choose from %s"
                             % (n, ", ".join(choices)))
    if "all" in names:
        names = SUITE_NAMES
    out = []
    for n in dict.fromkeys(names):
        out.extend(_SUITES[n](seed))
    return out
