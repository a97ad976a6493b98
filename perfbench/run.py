#!/usr/bin/env python3
"""Benchmark of ``amfem run``: end-to-end time, memory and accuracy per
workload, or per-layer spans recorded from outside the package.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lshape_adaptive --seed 1 \\
        --seconds 30 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``.  Each
``amfem run`` goes into a process of its own, started from this script with
the BLAS/OpenMP thread variables set to one thread (see ``RUN_THREADS``).  The
script repeats rounds until ``--seconds`` would be exceeded; a round runs
every job once, in an order shuffled by ``--seed``.  With ``--trace 0`` a job
is one untraced run per workload and the end-to-end metrics are medians over
the runs.  With ``--trace 1`` a round holds one traced and one untraced run
per workload; the per-layer metrics are medians over the traced runs.  The
workloads are deterministic, so the seed only changes the schedule: amfem
itself gets no seed-dependent input.

Every run's outputs are checked (see ``check_outputs``); a run that fails a
check counts in ``failed``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the raw samples.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"

# Flux-dof budget of a run.  Large enough that every workload shows its
# character (graded corner refinement, a dropped uniform refinement, a
# data-approximation phase that stops well inside the budget), small enough
# that several runs fit into one measurement and their median is steady.
BUDGET = 20_000
SMOKE_BUDGET = 6_000   # above the 4 769 dofs where sine_twostep's first phase stops
THETA = "0.5"

# fem contract, asserted on every solve by the tests:
# max_T |div p_h + f_h| <= 1e-9 (1 + max_T |f_h|)
DIV_DEFECT_TOL = 1e-9
ETA_RTOL = 0.01       # band around the recorded final estimator
RATE_ATOL = 0.02      # band around the recorded fitted convergence rate
SPAN_RTOL = 0.01      # per-layer self times must add up to the traced wall time
RUN_LIMIT_S = 170.0   # the whole invocation ends within this

# amfem's run is single-threaded: with two BLAS threads on two cores, CPU
# time still equals wall time.  The second thread only starts a pool at
# import (0.15 s of set-up) and made run-to-run times spread about twice as
# much, so every run process gets one thread.
RUN_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    problem: str
    args: tuple   # further ``amfem run`` arguments
    eta: dict     # budget -> final estimator recorded on the seed code
    rate: dict    # budget -> fitted rate recorded on the seed code; {} = unchecked


WORKLOADS = {
    # graded corner refinement with deep genealogy, closed-form errors every
    # iteration, badly scaled solves: mesh and problems.errors work the most
    "lshape_adaptive": Workload(
        "lshape_singular", (),
        eta={BUDGET: 0.04111721324814569, SMOKE_BUDGET: 0.07406142519262655},
        rate={BUDGET: 0.46940161545047765, SMOKE_BUDGET: 0.45790982899632904}),
    # the only jumping, non-identity A^-1: coefficient evaluations in the
    # estimator cost most; no exact solution, so the error pass is bypassed
    "checkerboard_adaptive": Workload(
        "checkerboard", (),
        eta={BUDGET: 0.004950900025681867, SMOKE_BUDGET: 0.00963012460943704},
        rate={}),
    # every element marked, trivial closure, no marking; few iterations on
    # large meshes, the last refinement is dropped for overshooting the budget
    "sine_uniform": Workload(
        "square_sine", ("--mode", "uniform"),
        eta={BUDGET: 0.12813610985156582, SMOKE_BUDGET: 0.2531102770068384},
        rate={BUDGET: 0.4873070349678589, SMOKE_BUDGET: 0.48284456297468825}),
    # the only data-approximation phase and PwConstData ancestor lookups
    "sine_twostep": Workload(
        "square_sine", ("--mode", "two_step", "--eps", "0.01"),
        eta={BUDGET: 0.09644390480306382, SMOKE_BUDGET: 0.20789369096926175},
        rate={BUDGET: 0.6779351995232411, SMOKE_BUDGET: 0.6159795864373555}),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "dofs_per_s": "dof/s", "final_eta": "1"}

PER_LAYER = {
    "adapt.iterations": "count", "adapt.marked_frac": "ratio",
    "adapt.mark_s": "s", "adapt.self_s": "s", "adapt.approx_s": "s",
    "fem.project_f_s": "s", "fem.assemble_s": "s", "fem.solve_s": "s",
    "fem.solve_us_per_dof": "us/dof", "fem.residual_max": "1",
    "fem.div_defect_max": "1", "fem.self_s": "s",
    "estimate.indicators_s": "s", "estimate.osc_s": "s",
    "estimate.us_per_elem": "us/elem", "estimate.self_s": "s",
    "mesh.refine_s": "s", "mesh.build_s": "s",
    "mesh.refine_us_per_new_elem": "us/elem", "mesh.closure_ratio": "ratio",
    "mesh.refine_kept_frac": "ratio", "mesh.refine_dropped_s": "s",
    "mesh.ancestor_map_s": "s", "mesh.ancestor_map_calls": "count",
    "mesh.create_initial_s": "s", "mesh.self_s": "s",
    "problems.errors_s": "s", "problems.coef_s": "s",
    "problems.A_inv_points": "count", "problems.f_points": "count",
    "problems.bc_points": "count", "problems.self_s": "s",
    "cli.write_s": "s", "cli.artifact_mb": "MB", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one run


def run_job(name, traced, budget, scratch, env, deadline):
    """Run one ``amfem run`` in its own process and check its outputs."""
    w = WORKLOADS[name]
    out = tempfile.mkdtemp(dir=scratch)
    rep = {"workload": name, "traced": traced, "failures": []}
    spec = {"problem": w.problem, "max_dofs": budget, "trace": traced,
            "argv": ["--problem", w.problem, *w.args, "--theta", THETA,
                     "--max-dofs", str(budget), "--out", out]}
    spec["launched"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rep["failures"].append("run process timed out")
        shutil.rmtree(out)
        return rep
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        rep["failures"].append("run process exited %d: %s"
                               % (proc.returncode, tail[0]))
    else:
        rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        if rep["rc"] != 0:
            rep["failures"].append("amfem run exited %d" % rep["rc"])
        else:
            try:
                rep.update(check_outputs(Path(out), w, budget,
                                         rep["failures"]))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rep["failures"].append("unreadable artifacts: %r" % exc)
    shutil.rmtree(out)
    return rep


def check_outputs(out, w, budget, failures):
    """Read the artifacts of one run; append every failed check."""
    lines = (out / "trace.csv").read_text().splitlines()
    rows = list(csv.DictReader(lines))
    secs = lines[0].split(",").index("secs")
    trace_wo_secs = "\n".join(",".join(c for i, c in enumerate(ln.split(","))
                                       if i != secs) for ln in lines)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)

    over = [r["n_flux_dofs"] for r in rows if int(r["n_flux_dofs"]) > budget]
    if over:
        failures.append("trace rows over the %d dof budget: %s"
                        % (budget, ", ".join(over)))
    eta = summary["final"]["eta"]
    if abs(eta - w.eta[budget]) > ETA_RTOL * w.eta[budget]:
        failures.append("final eta %r outside %g of recorded %r"
                        % (eta, ETA_RTOL, w.eta[budget]))
    if w.rate:
        rate = summary["rate"]["value"] if summary["rate"] else None
        if summary["rate_quantity"] != "flux_err" or \
                abs(rate - w.rate[budget]) > RATE_ATOL:
            failures.append("fitted %s rate %r outside %g of recorded %r"
                             % (summary["rate_quantity"], rate, RATE_ATOL,
                                w.rate[budget]))
    defect, f_max = 0.0, 0.0
    with open(out / "solution_elements.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            f_h = float(r["f_h"])
            defect = max(defect, abs(float(r["div_p"]) + f_h))
            f_max = max(f_max, abs(f_h))
    if defect > DIV_DEFECT_TOL * (1.0 + f_max):
        failures.append("final divergence defect %.3e violates the fem "
                        "contract" % defect)

    solved = [int(r["n_flux_dofs"]) for r in rows if r["eta2"]]
    return {
        "trace": trace_wo_secs,
        "final_eta": eta,
        "solved_dofs": sum(solved),
        "iterations": len(rows),
        "marked_frac": sum(int(r["n_marked"]) for r in rows)
        / sum(int(r["n_elem"]) for r in rows),
        "artifact_mb": sum(p.stat().st_size for p in out.iterdir()) / 1e6,
    }


# ---------------------------------------------------------------------------
# aggregation


def check_across_runs(reps):
    """Traced and repeated runs must write the same trace, except ``secs``;
    a traced run's layer self times must account for its wall time."""
    by_workload = {}
    for rep in reps:
        if "trace" not in rep:
            continue
        ref = by_workload.setdefault(rep["workload"], rep)
        if rep["trace"] != ref["trace"]:
            rep["failures"].append("trace.csv differs from the first %s run "
                                   "in more than the secs column"
                                   % ("untraced" if not ref["traced"]
                                      else "traced"))
        if rep["traced"]:
            total = sum(rep["layers"][layer + ".self_s"] for layer in LAYERS)
            if abs(total - rep["wall_s"]) > SPAN_RTOL * rep["wall_s"]:
                rep["failures"].append(
                    "layer self times sum to %.4f s, traced wall is %.4f s"
                    % (total, rep["wall_s"]))


def median(values):
    return statistics.median(values) if values else math.nan


def workload_metrics(reps, traced):
    untraced = [r for r in reps if not r["traced"] and "trace" in r]
    if not traced:
        return {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "cpu_s": median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "dofs_per_s": median([r["solved_dofs"] / r["wall_s"]
                                  for r in untraced]),
            "final_eta": median([r["final_eta"] for r in untraced]),
        }
    runs = [r for r in reps if r["traced"] and "trace" in r]
    m = {k: median([r["layers"][k] for r in runs])
         for k in runs[0]["layers"]} if runs else {}
    m["adapt.iterations"] = median([r["iterations"] for r in runs])
    m["adapt.marked_frac"] = median([r["marked_frac"] for r in runs])
    m["cli.artifact_mb"] = median([r["artifact_mb"] for r in runs])
    m["trace.wall_s"] = median([r["wall_s"] for r in runs])
    m["trace.overhead_s"] = m["trace.wall_s"] - median(
        [r["wall_s"] for r in untraced])
    return m


# ---------------------------------------------------------------------------
# environment


def run_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update((var, str(RUN_THREADS)) for var in THREAD_VARS)
    return env


def environment(nproc, env, reps):
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "amfem").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": nproc, "cpu_model": cpu,
            "python": sys.version.split()[0], **versions,
            "threads": {v: env[v] for v in THREAD_VARS},
            "program_input_seeded": False}


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a name, a comma-separated list or 'all': %s"
                   % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="shuffles the order of the runs within a round")
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; at least one round always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-dofs", type=int, default=BUDGET,
                   choices=(BUDGET, SMOKE_BUDGET), dest="max_dofs",
                   help="flux-dof budget of every run (default %(default)s)")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or len(set(names)) != len(names):
        p.error("bad --workload %r; choose from %s"
                % (args.workload, ", ".join(WORKLOADS)))
    args.workloads = names
    return args


def main(argv=None):
    start = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "amfem" / "__init__.py").is_file():
        print("perfbench: no amfem sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = run_env()
    rng = random.Random(args.seed)
    kinds = (True, False) if args.trace else (False,)
    round_jobs = [(w, t) for w in args.workloads for t in kinds]
    deadline = start + RUN_LIMIT_S

    WORK_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORK_DIR)
    reps, rounds = [], 0
    try:
        while True:
            for name, traced in rng.sample(round_jobs, len(round_jobs)):
                reps.append(run_job(name, traced, args.max_dofs, scratch,
                                    env, deadline))
            rounds += 1
            elapsed = time.monotonic() - start
            if elapsed * (rounds + 1) / rounds > min(args.seconds,
                                                     0.9 * RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):      # left to a concurrent run
            WORK_DIR.rmdir()

    check_across_runs(reps)
    per_workload = {w: workload_metrics([r for r in reps if r["workload"] == w],
                                        args.trace)
                    for w in args.workloads}
    units = PER_LAYER if args.trace else END_TO_END
    failed = [r for r in reps if r["failures"]]
    for r in failed:
        print("perfbench: %s%s failed: %s"
              % (r["workload"], " (traced)" if r["traced"] else "",
                 "; ".join(r["failures"])), file=sys.stderr)
    metrics = {}
    for w, m in per_workload.items():
        prefix = "" if len(args.workloads) == 1 else w + "."
        for k, unit in units.items():
            value = m.get(k, math.nan)
            if math.isnan(value):
                print("perfbench: no %s run of %s succeeded"
                      % ("traced" if args.trace else "untraced", w),
                      file=sys.stderr)
                return 1
            metrics[prefix + k] = {"value": value, "unit": unit}
    samples = [{k: r.get(k) for k in ("workload", "traced", "setup_s",
                                      "wall_s", "cpu_s", "peak_rss_mb",
                                      "failures")} for r in reps]
    print(json.dumps({"env": environment(nproc, env, reps), "seed": args.seed,
                      "max_dofs": args.max_dofs, "rounds": rounds,
                      "samples": samples}))
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
