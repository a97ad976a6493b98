"""Command line front end: adaptive runs, comparative studies, self-checks.

Two subcommands:

``amfem run``
    Drives one solve-estimate-mark-refine run (adaptive, uniform, or the
    two-step data-approximation variant) and writes plot-ready artifacts
    into the output directory: ``trace.csv`` with a ``trace.meta.json``
    sidecar, the final mesh, per-element solution and indicator tables,
    and ``summary.json`` with the final estimator value, errors, the
    fitted convergence rate and the reason the loop stopped (``stop``:
    ``eps``, ``budget``, ``max_iter`` or ``nothing_marked``).

``amfem verify``
    Runs the built-in verification suites (mesh, dorfler, pythagoras,
    reduction, oscillation, upper_bound, or all) and prints one line per
    check with the measured constant and its frozen bound.

Configuration is flag-driven; ``--config FILE`` reads the same keys from
a flat ``key = value`` text file (flags win over file values), where
``domain`` and the coefficient keys below are file-only.  Each
key is a ``RunConfig`` field, named as its flag's destination, and a file
value is parsed by the field's type.  Flag abbreviations are refused.
Custom problems use ``problem = custom`` together with per-macro-element
coefficients on the chosen initial mesh:

    a.R       constant diffusion a on initial element R (A = a * I there)
    f.I.J     global source term coefficient of x^I * y^J
    f.R.I.J   source polynomial coefficient on initial element R only

This module parses and validates those keys; the problem itself is built
by :func:`amfem.problems.piecewise`, which reads each value by the initial
element a point is sampled for.  A custom copy of a built-in piecewise
problem therefore runs exactly as the built-in does.

Exit codes: 0 success, 2 configuration error, 3 solver, mesh or
data-approximation failure, 4 verification failure.  Failures print a
single machine-parsable line ``amfem: error=<kind> detail="..."`` on
stderr.

Runs have no randomness: they are deterministic for a fixed config.  The
CSV tables, all written by :func:`amfem.util.write_csv`, are reproducible
byte for byte except the wall-clock ``secs`` column of ``trace.csv``.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .adapt import (DataApproxError, amfem, contraction_scan, fit_rate,
                    two_step)
from .fem import AssemblyError, SolverError
from .mesh import INITIAL_DOMAINS, MeshError, create_initial
from .problems import BUILTIN_PROBLEMS, builtin, piecewise
from .util import write_csv
from .verify import SUITE_NAMES, run_many

__all__ = ["main", "RunConfig", "ConfigError", "load_config",
           "make_custom_problem", "dump_solution_csv", "dump_indicators_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

MODES = ("adaptive", "uniform", "two_step")
ESTIMATORS = ("stress", "full")


class ConfigError(Exception):
    """Raised for malformed or out-of-range run configuration."""


def _fail(code, kind, detail):
    detail = " ".join(str(detail).split())
    print("amfem: error=%s detail=%s" % (kind, json.dumps(detail)),
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated inputs of one ``run`` invocation."""

    problem: str = "square_sine"
    domain: str = None            # a built-in problem's own, else unit_square
    theta: float = 0.5
    kappa: float = 1.0
    b: int = 1
    eps: float = 0.0
    max_dofs: int = 100_000
    mode: str = "adaptive"
    estimator: str = "stress"
    out: str = "amfem-out"
    coeffs: dict = field(default_factory=dict)

    def validate(self):
        if self.problem != "custom" and self.problem not in BUILTIN_PROBLEMS:
            raise ConfigError(
                "unknown problem %r; builtins: %s (or 'custom')"
                % (self.problem, ", ".join(sorted(BUILTIN_PROBLEMS))))
        if self.problem != "custom":
            own = BUILTIN_PROBLEMS[self.problem]().domain
            if self.domain not in (None, own):
                raise ConfigError("problem %r runs on domain %r, got %r"
                                  % (self.problem, own, self.domain))
            self.domain = own
        elif self.domain is None:
            self.domain = "unit_square"
        if self.domain not in INITIAL_DOMAINS:
            raise ConfigError("unknown domain %r; choose from %s"
                              % (self.domain, ", ".join(INITIAL_DOMAINS)))
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1], got %r" % self.theta)
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("kappa must lie in [0, 1], got %r" % self.kappa)
        if self.b < 1:
            raise ConfigError("b must be a positive integer, got %r" % self.b)
        if not 0.0 <= self.eps < np.inf:
            raise ConfigError("eps must be finite and nonnegative, got %r"
                              % self.eps)
        if self.max_dofs < 1:
            raise ConfigError("max_dofs must be positive, got %r"
                              % self.max_dofs)
        if self.eps == 0.0 and self.mode == "two_step":
            raise ConfigError("two_step mode needs a positive eps")
        if self.mode not in MODES:
            raise ConfigError("mode must be one of %s, got %r"
                              % ("/".join(MODES), self.mode))
        if self.estimator not in ESTIMATORS:
            raise ConfigError("estimator must be one of %s, got %r"
                              % ("/".join(ESTIMATORS), self.estimator))
        if self.mode == "two_step" and (self.estimator != "stress"
                                        or self.kappa != 1.0):
            raise ConfigError("two_step mode runs the stress estimator; "
                              "estimator and kappa do not apply")
        if self.coeffs and self.problem != "custom":
            raise ConfigError(
                "coefficient keys (a.*, f.*) require problem = custom")
        return self


def _parse_kv_lines(lines, source):
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value', got %r"
                              % (source, ln, raw.rstrip()))
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigError("%s:%d: empty key or value" % (source, ln))
        if key in out:
            raise ConfigError("%s:%d: duplicate key %r" % (source, ln, key))
        out[key] = val
    return out


def _as_float(key, val):
    try:
        return float(val)
    except ValueError:
        raise ConfigError("key %r needs a number, got %r" % (key, val))


def _as_int(key, val):
    try:
        return int(val)
    except ValueError:
        raise ConfigError("key %r needs an integer, got %r" % (key, val))


def _apply_kv(cfg, kv):
    """Set each file key on ``cfg``, parsed by its RunConfig field's type."""
    parsers = {float: _as_float, int: _as_int, str: lambda key, val: val}
    types = {f.name: f.type for f in fields(RunConfig)}
    for key, val in kv.items():
        parse = parsers.get(types.get(key))
        if parse is not None:
            setattr(cfg, key, parse(key, val))
        elif key.split(".", 1)[0] in ("a", "f"):
            cfg.coeffs[key] = _as_float(key, val)
        else:
            raise ConfigError("unknown config key %r" % key)


def load_config(path=None, overrides=None):
    """Build a validated RunConfig from a key=value file plus overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                kv = _parse_kv_lines(fh, source=os.path.basename(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        _apply_kv(cfg, kv)
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg.validate()


# ---------------------------------------------------------------------------
# custom problems


def _region(key, text, n_regions):
    """The initial element R named by ``text`` in ``key``, range-checked."""
    r = _as_int(key, text)
    if not 0 <= r < n_regions:
        raise ConfigError("key %r: region out of range [0, %d)"
                          % (key, n_regions))
    return r


def _poly_table(coeffs, n_regions):
    """Gather f.* keys into {(i, j): one coefficient per region}."""
    table = {}
    for key, c in coeffs.items():
        parts = key.split(".")
        if parts[0] != "f":
            continue
        if len(parts) == 3:
            regions = slice(None)
            i, j = parts[1], parts[2]
        elif len(parts) == 4:
            regions = _region(key, parts[1], n_regions)
            i, j = parts[2], parts[3]
        else:
            raise ConfigError("bad source key %r; use f.I.J or f.R.I.J" % key)
        i, j = _as_int(key, i), _as_int(key, j)
        if i < 0 or j < 0:
            raise ConfigError("key %r: powers must be nonnegative" % key)
        if not np.isfinite(c):
            raise ConfigError("key %r: source coefficient must be finite"
                              % key)
        table.setdefault((i, j), np.zeros(n_regions))[regions] += c
    return table


def _region_values(coeffs, n_regions):
    vals = np.ones(n_regions)
    for key, c in coeffs.items():
        parts = key.split(".")
        if parts[0] != "a":
            continue
        if len(parts) != 2:
            raise ConfigError("bad coefficient key %r; use a.R" % key)
        r = _region(key, parts[1], n_regions)
        if not 0.0 < c < np.inf:
            raise ConfigError("key %r: diffusion constant must be finite "
                              "and positive" % key)
        if not 1.0 / c < np.inf:
            raise ConfigError("key %r: diffusion constant %r has no finite "
                              "reciprocal" % (key, c))
        vals[r] = c
    return vals


def make_custom_problem(coeffs, domain="unit_square"):
    """Problem with per-initial-element constant A = a*I and polynomial f.

    ``coeffs`` maps flat config keys (``a.R``, ``f.I.J``, ``f.R.I.J``) to
    numbers; unspecified regions default to a = 1 and f = 0.  Boundary
    data is homogeneous.  The problem is :func:`amfem.problems.piecewise`'s.
    """
    nr = create_initial(domain).n_elements
    return piecewise("custom", domain, _region_values(coeffs, nr),
                     _poly_table(coeffs, nr))


# ---------------------------------------------------------------------------
# run


def _run_trace(cfg, problem):
    if cfg.mode == "two_step":
        return two_step(problem, eps=cfg.eps, theta=cfg.theta, b=cfg.b,
                        max_dofs=cfg.max_dofs)
    return amfem(problem, eps=cfg.eps, theta=cfg.theta, b=cfg.b,
                 max_dofs=cfg.max_dofs, mode=cfg.mode,
                 estimator=cfg.estimator, kappa=cfg.kappa)


def _summarize(cfg, trace):
    last = trace.rows[-1]
    final = {c: last[c] for c in ("k", "n_elem", "n_flux_dofs", "eta2",
                                  "osc2", "osc_f2", "E2", "quasi_err")}
    # the last row is the adaptive loop's, never a data-approximation row
    final["eta"] = float(np.sqrt(last["eta2"]))
    summary = {
        "version": __version__,
        **{f.name: getattr(cfg, f.name) for f in fields(cfg)
           if f.name not in ("out", "coeffs")},
        "iterations": len(trace.rows), "stop": trace.stop, "final": final,
        "rate": None, "rate_quantity": None, "contraction": None,
    }
    for quantity in ("flux_err", "eta"):
        try:
            fit = fit_rate(trace, quantity)
        except ValueError:
            continue
        summary["rate"] = {"value": fit.rate, "stderr": fit.stderr,
                           "n_points": fit.n_points}
        summary["rate_quantity"] = quantity
        break
    try:
        best, ratio, _ = contraction_scan(trace)
        summary["contraction"] = {"best_gamma": best, "max_ratio": ratio}
    except ValueError:
        pass
    return summary


def dump_solution_csv(sol, base_path):
    """Write ``<base>_elements.csv`` (u_h, div p_h and f_h per element) and
    ``<base>_flux.csv`` (flux coefficient and boundary flag per edge)."""
    mesh = sol.mesh
    write_csv(f"{base_path}_elements.csv", {
        "element": np.arange(mesh.n_elements), "u": sol.u, "div_p": sol.div,
        "f_h": sol.f_elem})
    write_csv(f"{base_path}_flux.csv", {
        "edge": np.arange(mesh.n_edges), "flux": sol.p,
        "boundary": mesh.boundary_edge})


def dump_indicators_csv(report, osc, path):
    """Per-element CSV: indicator terms, oscillation terms and h_T."""
    mesh = report.mesh
    cols = {"element": np.arange(mesh.n_elements), "data2": report.data2,
            "curl2": report.curl2, "jump2": report.jump2}
    if report.disp2 is not None:
        cols["disp2"] = report.disp2
    cols.update(curl_osc2=osc.curl_osc2, jump_osc2=osc.jump_osc2,
                data_osc2=osc.data_osc2, disp_osc2=osc.disp_osc2,
                h=np.sqrt(mesh.areas))
    write_csv(path, cols)


def cmd_run(args):
    # each flag's dest is its RunConfig field; file-only fields read None
    cfg = load_config(args.config, {f.name: getattr(args, f.name, None)
                                    for f in fields(RunConfig)})
    if cfg.problem == "custom":
        problem = make_custom_problem(cfg.coeffs, cfg.domain)
    else:
        problem = builtin(cfg.problem)
    n_flux0 = create_initial(cfg.domain).n_edges
    if cfg.max_dofs < n_flux0:
        raise ConfigError("max_dofs %d is below the %d flux dofs of the "
                          "initial %s mesh" % (cfg.max_dofs, n_flux0,
                                               cfg.domain))
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory: %s" % exc)

    trace = _run_trace(cfg, problem)
    trace.to_csv(os.path.join(cfg.out, "trace.csv"))
    state = trace.states[-1]
    state.mesh.save(os.path.join(cfg.out, "final_mesh.txt"))
    dump_solution_csv(state.sol, os.path.join(cfg.out, "solution"))
    dump_indicators_csv(state.report, state.osc,
                        os.path.join(cfg.out, "indicators.csv"))
    summary = _summarize(cfg, trace)
    with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    final = summary["final"]
    line = "%s %s: %d iterations, %d elements, %d flux dofs" % (
        cfg.problem, cfg.mode, summary["iterations"], final["n_elem"],
        final["n_flux_dofs"])
    line += ", eta=%.6g" % final["eta"]
    if summary["rate"] is not None:
        line += ", rate(%s)=%.3f" % (summary["rate_quantity"],
                                     summary["rate"]["value"])
    print(line)
    print("artifacts in %s" % cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative, got %d" % args.seed)
    try:
        # run_many checks every name before it runs a suite
        results = run_many(tuple(args.suite) or ("all",), seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print("%d checks, %d failed" % (len(results), len(failed)))
    if failed:
        return _fail(EXIT_VERIFY, "verification",
                     "failed: " + ", ".join("%s.%s" % (r.suite, r.name)
                                            for r in failed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    # no abbreviations: a prefix such as --max would silently set
    # --max-dofs instead of being refused as an unknown flag
    p = _Parser(prog="amfem", description=__doc__.splitlines()[0],
                allow_abbrev=False)
    p.add_argument("--version", action="version",
                   version="amfem %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", allow_abbrev=False,
                       help="run one adaptive / uniform / two_step "
                            "study and write artifacts")
    r.add_argument("--problem", help="builtin problem name or 'custom'")
    r.add_argument("--config", help="flat key=value configuration file")
    r.add_argument("--theta", type=float, help="bulk marking fraction in (0,1]")
    r.add_argument("--kappa", type=float,
                   help="data weight exponent for the full estimator")
    r.add_argument("--b", type=int, help="bisections per marked element")
    r.add_argument("--eps", type=float, help="stop once eta < eps")
    r.add_argument("--max-dofs", type=int, help="flux dof budget")
    r.add_argument("--mode", choices=MODES)
    r.add_argument("--estimator", choices=ESTIMATORS)
    r.add_argument("--out", help="output directory")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", allow_abbrev=False,
                       help="run the built-in verification suites")
    v.add_argument("suite", nargs="*",
                   help="suite names (default: all); choose from %s"
                   % ", ".join(SUITE_NAMES + ("all",)))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except (SolverError, AssemblyError, MeshError) as exc:
        return _fail(EXIT_SOLVER, "solver", exc)
    except DataApproxError as exc:
        return _fail(EXIT_SOLVER, "data_approx", exc)


if __name__ == "__main__":
    sys.exit(main())
