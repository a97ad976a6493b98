"""The adaptive loop: solve, estimate, mark, refine.

Marking uses bulk (Doerfler) criterion at the square-root level,

    eta(M) >= theta * eta(T)   <=>   sum_{T in M} eta_T^2 >= theta^2 * sum_T eta_T^2,

realized greedily: indicators are ranked by decreasing squared value (ties
broken by ascending element id) and the shortest prefix reaching the
threshold is taken.  The greedy prefix has minimal cardinality among all
qualifying sets.

``amfem`` iterates until the global estimator drops strictly below the
target or the flux-dof budget is hit.  ``two_step`` first coarsens the
data: a greedy Doerfler loop on the per-element data oscillation
``h_T^2 ||f - f_h||_T^2`` refines the initial mesh until
``osc(f, T_H) <= eps/2``, then the adaptive loop runs with the projected,
now oscillation-free, right-hand side and target ``eps/2``.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__ as _pkg_version
from .estimate import data_osc_elem, indicators_full, indicators_stress
from .fem import AssemblyError, PwConstData, assemble, project_f, solve
from .mesh import create_initial, refine, uniform_refine
from .problems import exact_errors
from .util import ordered_sum, write_csv

__all__ = [
    "MarkSet", "AdaptTrace", "RateFit", "DataApproxError", "dorfler_mark",
    "solve_on", "amfem", "approx_data", "two_step", "fit_rate",
    "contraction_scan", "make_reference", "data_osc_elem", "GAMMA",
    "GAMMA_GRID",
]

GAMMA = 1.0               # weight of eta2 in the quasi-error E2 + GAMMA eta2
GAMMA_GRID = tuple(np.logspace(-3.0, 1.0, 13))  # gammas of contraction_scan
MAX_ITER = 100            # refinements per phase of a run
THETA_DATA = 0.6          # bulk parameter of the data-approximation marking
REFERENCE_LEVELS = 2      # uniform refinements behind a reference solution
BURN_IN = 2               # leading trace rows left out of a rate fit

# perfbench/tracer.py still getattr()s these two former names of this module
# and wraps them; they go with its next change (ROADMAP item 1)
build_dofmap = oscillations = None

TRACE_COLUMNS = ("k", "n_elem", "n_flux_dofs", "eta2", "osc2", "osc_f2",
                 "n_marked", "E2", "quasi_err", "secs")


@dataclass(frozen=True)
class MarkSet:
    """Result of one marking step.

    ``ids`` is ascending; ``ranked`` repeats them in selection order.
    ``marked_sum`` and ``total_sum`` come from one cumulative sum over the
    ranked indicators, so ``marked_sum >= theta^2 * total_sum`` holds
    exactly, and dropping the last ranked member would break it.
    """
    ids: np.ndarray
    ranked: np.ndarray
    marked_sum: float
    total_sum: float


class DataApproxError(RuntimeError):
    """Raised when the data approximation exhausts its MAX_ITER steps."""


def dorfler_mark(eta2, theta):
    """Greedy bulk marking on the squared per-element indicators ``eta2``."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    eta2 = np.asarray(eta2, dtype=np.float64)
    if np.any(~np.isfinite(eta2) | (eta2 < 0.0)):
        raise ValueError("indicators must be finite and non-negative")
    n = eta2.shape[0]
    order = np.lexsort((np.arange(n), -eta2))
    csum = np.cumsum(eta2[order])
    total = float(csum[-1]) if n else 0.0
    if total <= 0.0:
        return MarkSet(ids=np.empty(0, dtype=np.int64),
                       ranked=np.empty(0, dtype=np.int64),
                       marked_sum=0.0, total_sum=0.0)
    thr = theta * theta * total
    k = int(np.searchsorted(csum, thr, side="left")) + 1
    k = min(k, n)
    ranked = order[:k]
    return MarkSet(ids=np.sort(ranked), ranked=ranked,
                   marked_sum=float(csum[k - 1]), total_sum=total)


@dataclass
class IterationState:
    """Everything produced at one adaptive iteration."""
    mesh: object
    sol: object
    report: object
    markset: object = None
    refined: np.ndarray = None


class AdaptTrace:
    """Per-iteration records of an adaptive run plus run metadata.

    ``rows`` are dicts keyed by the trace CSV columns; rows of runs without
    a usable error carry ``None`` in ``E2``/``quasi_err`` until they are
    backfilled against a reference solution.  ``stop`` says why the loop
    ended: ``"eps"``, ``"budget"``, ``"max_iter"`` or ``"nothing_marked"``.
    """

    def __init__(self, meta):
        self.meta = dict(meta)
        self.rows = []
        self.states = []
        self.stop = None

    def append(self, row, state=None):
        self.rows.append(row)
        if state is not None:
            self.states.append(state)

    def column(self, name):
        return np.array([np.nan if r.get(name) is None else r[name]
                         for r in self.rows], dtype=np.float64)

    def complexity_ratios(self):
        """(n_elem_k - n_elem_0) / sum_{j<k} n_marked_j for k >= 1."""
        n0 = self.rows[0]["n_elem"]
        out = []
        cum = 0
        for k in range(1, len(self.rows)):
            cum += self.rows[k - 1]["n_marked"]
            out.append((self.rows[k]["n_elem"] - n0) / cum if cum else np.nan)
        return np.array(out)

    def to_csv(self, path):
        write_csv(path, {c: [r.get(c) for r in self.rows]
                         for c in TRACE_COLUMNS})
        with open(str(path).removesuffix(".csv") + ".meta.json", "w") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def solve_on(problem, mesh):
    """Project f onto ``mesh``, assemble and solve the mixed system there."""
    return solve(assemble(mesh, problem, project_f(problem.f, mesh)))


def _row(k, mesh, **values):
    """Trace row of iteration ``k`` on ``mesh``: ``values`` fill the columns
    they name, ``n_marked`` starts at 0 and every other column at None."""
    row = dict.fromkeys(TRACE_COLUMNS)
    row.update(k=k, n_elem=mesh.n_elements, n_flux_dofs=mesh.n_edges,
               n_marked=0, **values)
    return row


def _refine_within(mesh, marked, b, max_dofs):
    """The one refinement step of both phases: bisect the ``marked`` elements
    ``b`` times each.  ``None`` ends the phase: nothing is marked, or the
    refined mesh would exceed ``max_dofs`` flux dofs (the refinement is then
    dropped, so the budget holds strictly).

    Each marked element leaves at least ``2**b`` elements and a triangulation
    has at least 1.5 edges per element, so a refinement that must exceed
    the budget is dropped before it is built."""
    if marked.size == 0:
        return None
    least = mesh.n_elements + marked.size * (2 ** b - 1)
    if 3 * least > 2 * max_dofs:
        return None
    rr = refine(mesh, marked, b=b)
    return rr if rr.mesh.n_edges <= max_dofs else None


def amfem(problem, eps=0.0, theta=0.5, b=1, max_dofs=100_000, mode="adaptive",
          estimator="stress", kappa=1.0, mesh0=None, errors="auto", keep=False,
          errors_vs=None):
    """Run the adaptive (or uniform) loop and return its trace.

    Parameters
    ----------
    eps : stopping tolerance on the global estimator; the loop runs while
        ``eta_k >= eps`` and stops at the first iterate with ``eta_k < eps``,
        at the flux-dof budget ``max_dofs`` or after ``MAX_ITER`` refinements.
    max_dofs : flux-dof budget; an initial mesh above it raises ValueError.
    b : bisections per marked element.
    mode : "adaptive" (bulk marking) or "uniform" (every element marked).
    errors : "auto" measures against the closed-form solution when one
        exists; "reference" solves once on two extra uniform refinements
        of the final mesh and backfills every row;
        "none" skips error measurement.
    errors_vs : measure errors against this problem spec instead (used by
        :func:`two_step`, whose solve data differ from the original f).
    keep : retain every iteration's mesh, solution and reports in
        ``trace.states``; otherwise only the final iteration's are kept.
    """
    if mode not in ("adaptive", "uniform"):
        raise ValueError(f"unknown mode {mode!r}")
    if estimator not in ("stress", "full"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if errors not in ("auto", "reference", "none"):
        raise ValueError(f"unknown errors {errors!r}")
    mesh = mesh0 if mesh0 is not None else create_initial(problem.domain)
    # two_step's mesh0 exceeds the budget only when its initial mesh does
    if max_dofs < mesh.n_edges:
        raise ValueError(f"max_dofs {max_dofs} is below the {mesh.n_edges} "
                         f"flux dofs of the initial mesh")
    keep_states = keep or errors == "reference"
    measured = errors_vs if errors_vs is not None else problem

    meta = {
        "problem": problem.name, "domain": problem.domain, "mode": mode,
        "estimator": estimator, "theta": theta, "kappa": kappa, "b": b,
        "eps": eps, "max_dofs": max_dofs, "gamma": GAMMA,
        "errors": errors, "version": _pkg_version,
        "columns": list(TRACE_COLUMNS),
    }
    trace = AdaptTrace(meta)

    for k in range(MAX_ITER + 1):
        t0 = time.perf_counter()
        sol = solve_on(problem, mesh)
        with np.errstate(over="ignore", invalid="ignore"):
            if estimator == "stress":
                report = indicators_stress(mesh, sol, problem)
            else:
                report = indicators_full(mesh, sol, problem, kappa)
        if not np.isfinite(report.eta2 + report.osc2):
            raise AssemblyError("estimator or oscillation total overflows")

        et = exact_errors(sol, measured) \
            if errors == "auto" and measured.has_exact else None
        row = _row(k, mesh, eta2=report.eta2, osc2=report.osc2,
                   osc_f2=report.osc_f2)
        if et is not None:
            row.update(E2=et.E2, quasi_err=et.E2 + GAMMA * report.eta2,
                       flux_err2=et.flux2)
        state = IterationState(mesh=mesh, sol=sol, report=report)

        rr = None
        if eps > 0.0 and report.eta < eps:
            trace.stop = "eps"
        elif mesh.n_edges >= max_dofs:
            trace.stop = "budget"
        elif k >= MAX_ITER:
            trace.stop = "max_iter"
        else:
            ms = None if mode == "uniform" \
                else dorfler_mark(report.eta2_elem, theta)
            marked = np.arange(mesh.n_elements) if ms is None else ms.ids
            rr = _refine_within(mesh, marked, b, max_dofs)
            if rr is None:
                trace.stop = "nothing_marked" if marked.size == 0 else "budget"
        if rr is not None:
            row["n_marked"] = int(rr.marked.size)
            state.markset = ms
            state.refined = rr.refined
            mesh = rr.mesh

        row["secs"] = time.perf_counter() - t0
        trace.append(row, state if keep_states else None)
        if rr is None:
            break

    if errors == "reference":
        _backfill_reference(trace, problem, measured)
    if not keep:
        trace.states = [state]
    return trace


def _backfill_reference(trace, problem, measured):
    ref_sol = make_reference(problem, trace.states[-1].mesh)
    for row, st in zip(trace.rows, trace.states):
        et = exact_errors(st.sol, measured, reference=ref_sol)
        row["E2"] = et.E2
        row["quasi_err"] = et.E2 + GAMMA * row["eta2"]
        row["flux_err2"] = et.flux2
        row["surrogate"] = True
    trace.meta["reference_levels"] = REFERENCE_LEVELS
    trace.meta["reference_n_elem"] = ref_sol.mesh.n_elements


def _approx_rows(f, mesh0, eps, b, max_dofs):
    if isinstance(f, PwConstData):
        f.values_on(mesh0)      # MeshError unless mesh0 refines the carrier
    mesh = mesh0
    rows = []
    for k in range(MAX_ITER + 1):
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            osc2_elem = data_osc_elem(f, mesh)
            osc2 = ordered_sum(osc2_elem)
        if not np.isfinite(osc2):
            raise AssemblyError("data oscillation total overflows")
        row = _row(k, mesh, osc2=osc2, osc_f2=osc2)
        rows.append(row)
        rr = None
        if np.sqrt(osc2) > eps and mesh.n_edges < max_dofs:
            rr = _refine_within(mesh, dorfler_mark(osc2_elem, THETA_DATA).ids,
                                b, max_dofs)
        if rr is not None:
            row["n_marked"] = int(rr.marked.size)
        row["secs"] = time.perf_counter() - t0
        if rr is None:
            return mesh, rows
        mesh = rr.mesh
    raise DataApproxError(
        f"data approximation did not reach osc <= {eps} in {MAX_ITER} steps")


def approx_data(f, mesh0, tol):
    """Refine ``mesh0`` until the data oscillation of f drops below ``tol``.

    Greedy bulk marking on the per-element oscillation contributions with
    parameter ``THETA_DATA``, one bisection per marked element.
    """
    mesh, _ = _approx_rows(f, mesh0, tol, 1, np.inf)
    return mesh


def two_step(problem, eps, theta=0.5, b=1, max_dofs=100_000):
    """Data approximation followed by the adaptive loop, each with eps/2.

    The second phase solves with the projected data, whose oscillation
    vanishes on every refinement; errors are still measured against the
    original problem when it has a closed-form solution.  Both phases stay
    within ``max_dofs`` flux dofs.
    """
    mesh0 = create_initial(problem.domain)
    mesh_h, rows1 = _approx_rows(problem.f, mesh0, 0.5 * eps, b, max_dofs)
    mod = replace(problem, f=PwConstData(mesh_h, project_f(problem.f, mesh_h)))
    # the adaptive phase continues on the data-approximation mesh, where
    # the projected source is resolved exactly
    trace = amfem(mod, eps=0.5 * eps, theta=theta, b=b, max_dofs=max_dofs,
                  mesh0=mesh_h, errors_vs=problem)
    trace.meta.update({
        "problem": problem.name, "mode": "two_step", "eps": eps,
        "approx_rows": len(rows1), "theta_data": THETA_DATA,
    })
    offset = len(rows1)
    for r in trace.rows:
        r["k"] = r["k"] + offset
    trace.rows = rows1 + trace.rows
    return trace


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(n_elem - n_elem_0)."""
    rate: float
    stderr: float
    n_points: int

    @property
    def band(self):
        return (self.rate - 2.0 * self.stderr, self.rate + 2.0 * self.stderr)


def fit_rate(trace, quantity="flux_err"):
    """Fit error ~ C (n_elem - n_elem_0)^(-s); returns s with its stderr.

    ``quantity`` is "flux_err" or "eta", whose squared trace column is
    square-rooted first; the first ``BURN_IN`` rows are left out.
    """
    key = {"flux_err": "flux_err2", "eta": "eta2"}.get(quantity)
    if key is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    n0 = trace.rows[0]["n_elem"]
    xs, ys = [], []
    for r in trace.rows[BURN_IN:]:
        v = r.get(key)
        n = r["n_elem"] - n0
        if v is not None and np.isfinite(v) and v > 0.0 and n > 0:
            xs.append(np.log(float(n)))
            ys.append(0.5 * np.log(float(v)))
    if len(xs) < 3:
        raise ValueError("need at least three usable trace rows to fit a rate")
    coef, cov = np.polyfit(xs, ys, 1, cov=True)
    return RateFit(rate=float(-coef[0]), stderr=float(np.sqrt(cov[0, 0])),
                   n_points=len(xs))


def contraction_scan(trace):
    """Scan ``GAMMA_GRID`` for the best uniform quasi-error contraction factor.

    For each gamma the quasi-error is E2_k + gamma * eta2_k; returns the
    gamma minimizing the maximal consecutive ratio, that ratio and the
    per-gamma table.
    """
    E2 = trace.column("E2")
    eta2 = trace.column("eta2")
    ok = np.isfinite(E2) & np.isfinite(eta2)
    E2, eta2 = E2[ok], eta2[ok]
    if E2.size < 2:
        raise ValueError("trace has fewer than two rows with errors")
    table = {}
    for g in GAMMA_GRID:
        q = E2 + g * eta2
        table[float(g)] = float(np.max(q[1:] / q[:-1]))
    best = min(table, key=table.get)
    return best, table[best], table


def make_reference(problem, mesh):
    """Solve once on ``REFERENCE_LEVELS`` uniform refinements of ``mesh``."""
    return solve_on(problem, uniform_refine(mesh, REFERENCE_LEVELS))
