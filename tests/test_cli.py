"""Tests for the command line interface: artifacts, exit codes, config."""

import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amfem.adapt
import amfem.cli as cli
import amfem.verify as verify
from amfem.adapt import solve_on
from amfem.cli import (ConfigError, RunConfig, load_config, main,
                       make_custom_problem)
from amfem.fem import SolverError
from amfem.mesh import Mesh, create_initial, uniform_refine
from amfem.util import write_csv
from amfem.verify import CheckResult
from test_fem import const_problem

ROOT = Path(__file__).resolve().parent.parent

ARTIFACTS = ("trace.csv", "trace.meta.json", "final_mesh.txt",
             "solution_elements.csv", "solution_flux.csv",
             "indicators.csv", "summary.json")


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# run command


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--problem", "square_pwconst",
                   "--max-dofs", "400", "--out", str(out))
    assert code == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "square_pwconst"
    assert summary["mode"] == "adaptive"
    assert summary["final"]["n_flux_dofs"] <= 400
    assert summary["iterations"] >= 2
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["k", "n_elem", "n_flux_dofs"]


@pytest.mark.parametrize("estimator, header", [
    ("stress", "element,data2,jump2,jump_osc2,data_osc2,h"),
    ("full", "element,data2,jump2,disp2,jump_osc2,data_osc2,h"),
])
def test_indicators_csv_columns(estimator, header, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--problem", "square_sine", "--estimator",
                   estimator, "--max-dofs", "200", "--out", str(out)) == 0
    assert (out / "indicators.csv").read_text().splitlines()[0] == header


def test_final_mesh_round_trips_via_load(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--problem", "lshape_singular",
                   "--max-dofs", "300", "--out", str(out)) == 0
    path = out / "final_mesh.txt"
    mesh = Mesh.load(path, root=create_initial("lshape"))
    assert mesh.n_edges == json.loads(
        (out / "summary.json").read_text())["final"]["n_flux_dofs"]
    assert mesh.dumps() == path.read_text()


@pytest.mark.parametrize("mode_args", [
    (),
    ("--mode", "two_step", "--eps", "0.05"),
], ids=["adaptive", "two_step"])
def test_run_deterministic_modulo_secs(mode_args, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli("run", "--problem", "square_pwconst",
                       "--max-dofs", "400", "--out", str(out),
                       *mode_args) == 0
        outs.append(out)
    a, b = outs
    for name in ARTIFACTS:
        if name == "trace.csv":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # trace bytes agree except the trailing wall-clock column
    la = (a / "trace.csv").read_text().splitlines()
    lb = (b / "trace.csv").read_text().splitlines()
    assert len(la) == len(lb)
    for ra, rb in zip(la, lb):
        assert ra.rsplit(",", 1)[0] == rb.rsplit(",", 1)[0]


def test_run_uniform_mode(tmp_path):
    out = tmp_path / "u"
    assert run_cli("run", "--problem", "square_sine", "--mode", "uniform",
                   "--max-dofs", "300", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "uniform"


@pytest.mark.parametrize("mode", ["adaptive", "uniform", "two_step"])
def test_run_honours_max_dofs(tmp_path, mode):
    # every mode refines through the one budgeted step
    out = tmp_path / "t"
    assert run_cli("run", "--problem", "square_sine", "--mode", mode,
                   "--eps", "1e-3", "--max-dofs", "2000",
                   "--out", str(out)) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) >= 2
    assert max(int(r.split(",")[2]) for r in rows) <= 2000


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = square_pwconst\n"
                   "theta = 0.9        # flag below wins\n"
                   "max_dofs = 300\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--theta", "0.3",
                   "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "square_pwconst"
    assert summary["theta"] == 0.3
    assert summary["max_dofs"] == 300


def test_custom_problem_run(tmp_path):
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("problem = custom\n"
                   "domain = unit_square\n"
                   "a.0 = 4.0\n"
                   "f.1.0 = 1.0      # f = x everywhere\n"
                   "f.0.2.0 = -0.5   # region 0 gets an extra -x^2/2\n"
                   "max_dofs = 300\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "custom"
    assert summary["final"]["eta"] > 0.0


def test_solution_csv_dump(tmp_path):
    from amfem.cli import dump_solution_csv
    sol = solve_on(const_problem(), uniform_refine(
        create_initial("unit_square")))
    base = tmp_path / "sol"
    dump_solution_csv(sol, str(base))
    lines = (tmp_path / "sol_elements.csv").read_text().splitlines()
    assert lines[0] == "element,u,div_p,f_h"
    assert len(lines) == 1 + sol.mesh.n_elements
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == pytest.approx(1.0)
    flines = (tmp_path / "sol_flux.csv").read_text().splitlines()
    assert flines[0] == "edge,flux,boundary"
    assert len(flines) == 1 + sol.mesh.n_edges


def test_write_csv_cells(tmp_path):
    floats = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, 1e-31]
    path = tmp_path / "t.csv"
    write_csv(path, {"z": np.array([True, False, True, False, True, False]),
                     "x": np.array(floats), "n": np.arange(6) * 10**12,
                     "l": [1, None, True, np.int32(-4), np.float64(0.5),
                           2.0]})
    lines = path.read_text().splitlines()
    assert lines[0] == "z,x,n,l"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["1", "0", "1", "0", "1", "0"]
    got = [float(r[1]) for r in rows]
    assert np.array_equal(np.array(got).view(np.int64),
                          np.array(floats).view(np.int64))
    assert [r[2] for r in rows] == [str(i * 10**12) for i in range(6)]
    assert [r[3] for r in rows] == ["1", "", "1", "-4", "0.5", "2.0"]
    # rows are written in blocks; a long table crosses their boundaries
    x = np.arange(2500) / 7.0
    write_csv(path, {"i": np.arange(2500), "x": x})
    lines = path.read_text().splitlines()
    assert lines[1:] == ["%d,%r" % (i, v) for i, v in enumerate(x.tolist())]
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1, 2], "b": [1.0]})


def test_every_run_config_field_is_a_file_key(tmp_path):
    text = ("problem = custom\ndomain = lshape\ntheta = 0.25\n"
            "kappa = 0.5\nb = 2\neps = 2\nmax_dofs = 900\n"
            "mode = uniform\nestimator = full\nout = there\na.0 = 3\n")
    keys = {ln.split(" =")[0] for ln in text.splitlines()}
    assert {f.name for f in fields(RunConfig)} - {"coeffs"} <= keys
    cfg = tmp_path / "all.cfg"
    cfg.write_text(text)
    got = load_config(str(cfg))
    assert got == RunConfig(
        problem="custom", domain="lshape", theta=0.25, kappa=0.5, b=2,
        eps=2.0, max_dofs=900, mode="uniform", estimator="full", out="there",
        coeffs={"a.0": 3.0})
    assert type(got.b) is int and type(got.eps) is float


def test_every_flag_reaches_its_run_config_field(monkeypatch):
    seen = {}

    def capture(path, overrides):
        seen.update(overrides)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "load_config", capture)
    assert run_cli("run", "--problem", "custom", "--theta", "0.25",
                   "--kappa", "0.5", "--b", "2", "--eps", "0.5",
                   "--max-dofs", "900", "--mode", "uniform",
                   "--estimator", "full", "--out", "there") == 2
    assert {k: v for k, v in seen.items() if v is not None} == {
        "problem": "custom", "theta": 0.25, "kappa": 0.5, "b": 2,
        "eps": 0.5, "max_dofs": 900, "mode": "uniform", "estimator": "full",
        "out": "there"}


# ---------------------------------------------------------------------------
# config errors -> exit 2


@pytest.mark.parametrize("argv", [
    ("run", "--problem", "no_such_problem"),
    ("run", "--theta", "1.5"),
    ("run", "--theta", "abc"),
    ("run", "--mode", "two_step"),        # needs a positive eps
    ("run", "--gamma-grid", "a,b"),       # gamma is fixed: no such flag
    ("run", "--bogus-flag",),
    ("run", "--seed", "3"),               # runs have no seed
    ("verify", "no_such_suite"),
    ("run", "--eps", "nan"),
    ("run", "--gamma-grid", "0.5,2"),
    ("verify", "--seed", "-1"),
    ("run", "--mode", "two_step", "--eps", "0.2", "--estimator", "full"),
    ("run", "--mode", "two_step", "--eps", "0.2", "--kappa", "0.5"),
    ("run", "--gamma", "2"),
    ("run", "--max", "60"),               # nor of --max-dofs
])
def test_bad_invocations_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=config detail=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "theta 0.5\n",                        # missing '='
    "theta = 0.5\ntheta = 0.6\n",         # duplicate key
    "no_such_key = 1\n",
    "a.7 = 1.0\nproblem = custom\n",      # region out of range
    "f.0 = 1.0\nproblem = custom\n",      # malformed source key
    "a.0 = 2.0\n",                        # coeffs need problem = custom
    "seed = 1\n",                         # runs have no seed
    "eps = nan\n",
    "eps = inf\n",
    "gamma = nan\n",                       # gamma is fixed: unknown keys
    "gamma_grid = 1.0, nan\n",
    "a.0 = nan\nproblem = custom\n",
    "a.0 = inf\nproblem = custom\n",
    "a.0 = 1e-309\nproblem = custom\n",  # 1 / a overflows
    "a.0 = 5e-324\nproblem = custom\n",
    "f.0.0 = nan\nproblem = custom\n",
    "mode = two_step\neps = 0.2\nestimator = full\n",
    "mode = two_step\neps = 0.2\nkappa = 0.5\n",
    "problem = square_sine\ndomain = lshape\n",   # not the problem's domain
])
def test_bad_config_files_exit_2(text, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "error=config" in capsys.readouterr().err


def test_domain_defaults_to_the_problems_own(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = lshape_singular\ndomain = lshape\n")
    assert load_config(str(cfg)).domain == "lshape"
    assert load_config(None, {"problem": "checkerboard"}).domain \
        == "checkerboard"
    assert load_config(None, {"problem": "custom"}).domain == "unit_square"


def test_out_naming_a_file_exits_2_before_running(tmp_path, monkeypatch,
                                                   capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "amfem", never)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli("run", "--problem", "square_sine", "--max-dofs", "200",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=config detail=")
    assert err.count("\n") == 1
    assert out.read_text() == "not a directory\n"


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe = 1\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=config detail=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["gamma = 1.0\n", "gamma_grid = 0.5, 2\n"])
def test_gamma_keys_are_unknown(text, tmp_path, capsys):
    # gamma = 1 and the contraction scan's grid are constants of adapt
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(text)
    assert run_cli("run", "--config", str(cfg)) == 2
    key = text.split(" =")[0]
    assert "unknown config key '%s'" % key in capsys.readouterr().err


def test_max_dofs_below_initial_mesh_exits_2(tmp_path, capsys):
    # the initial unit square has 5 flux dofs
    out = tmp_path / "out"
    assert run_cli("run", "--problem", "square_sine", "--max-dofs", "4",
                   "--out", str(out)) == 2
    assert "error=config" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("run", "--problem", "square_sine", "--max-dofs", "5",
                   "--out", str(out)) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[2]) for r in rows] == [5]


CUSTOM_TEXT = ("problem = custom\n"
               "domain = lshape\n"
               "theta = 0.5   # bulk fraction\n"
               "kappa = 1.0\n"
               "eps = 0.01\n"
               "b = 1\n"
               "max_dofs = 300\n"
               "mode = adaptive\n"
               "a.0 = 4.0\n"
               "f.1.0 = 1.0\n"
               "f.2.0.1 = -0.5\n").encode()

_TOKENS = ("0", "1", "9", "-", ".", "e", "=", "#", ",", " ", "\n", "a.",
           "f.", "nan", "inf", "1e999", "x", "\u00e9")


@settings(max_examples=300, deadline=None)
@given(pos=st.integers(0, len(CUSTOM_TEXT)), cut=st.integers(0, 6),
       insert=st.one_of(
           st.lists(st.sampled_from(_TOKENS), max_size=3).map(
               lambda parts: "".join(parts).encode()),
           st.binary(max_size=3)))
def test_mutated_config_raises_only_config_error(tmp_path_factory, pos, cut,
                                                 insert):
    path = tmp_path_factory.getbasetemp() / "mutated.cfg"
    path.write_bytes(CUSTOM_TEXT[:pos] + insert + CUSTOM_TEXT[pos + cut:])
    try:
        cfg = load_config(str(path))
        if cfg.problem == "custom":
            make_custom_problem(cfg.coeffs, cfg.domain)
    except ConfigError:
        pass


@pytest.mark.parametrize("lines, stop", [
    (("problem = square_pwconst", "max_dofs = 400"), "budget"),
    (("problem = square_sine", "eps = 0.8"), "eps"),
    # no source and homogeneous boundary data: nothing to mark
    (("problem = custom",), "nothing_marked"),
])
def test_summary_says_why_the_run_stopped(tmp_path, lines, stop):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["stop"] == stop


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 2


def test_load_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        load_config(None, {"kappa": 2.0})
    with pytest.raises(ConfigError):
        load_config(None, {"b": 0})
    with pytest.raises(ConfigError):
        load_config(None, {"eps": -1.0})


# ---------------------------------------------------------------------------
# solver failures -> exit 3


def test_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("saddle solve diverged")

    monkeypatch.setattr(cli, "amfem", boom)
    code = run_cli("run", "--problem", "square_sine",
                   "--out", str(tmp_path / "out"))
    assert code == 3
    err = capsys.readouterr().err
    assert err == 'amfem: error=solver detail="saddle solve diverged"\n'


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a0", ["1e154", "1e-154", "1e160", "1e-160",
                                "1e307", "1e308"])
def test_extreme_coefficient_contrast_exits_3(a0, tmp_path, capsys):
    # a contrast of 1e154 or more between the two initial elements leaves
    # the solve unable to meet its residual contract; no numpy warning
    # (a RuntimeWarning raised as an error here) may reach stderr first
    cfg = tmp_path / "contrast.cfg"
    cfg.write_text(f"problem = custom\na.0 = {a0}\nf.0.0 = 1.0\n"
                   "max_dofs = 300\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=solver detail=")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode_args", [
    (),
    ("--mode", "two_step", "--eps", "1"),
], ids=["adaptive", "two_step"])
def test_estimator_overflow_exits_3(mode_args, tmp_path, capsys):
    # the squared terms of a source of 1e200 overflow in the estimator and
    # in the data oscillation; the run stops before marking them
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("problem = custom\nf.0.0 = 1e200\nmax_dofs = 300\n")
    code = run_cli("run", "--config", str(cfg), *mode_args,
                   "--out", str(tmp_path / "out"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=solver detail=")
    assert err.count("\n") == 1


def test_data_approx_error_exits_3(tmp_path, monkeypatch, capsys):
    # two data-approximation steps cannot reach osc <= 5e-6 for the sine
    monkeypatch.setattr(amfem.adapt, "MAX_ITER", 1)
    code = run_cli("run", "--problem", "square_sine", "--mode", "two_step",
                   "--eps", "1e-5", "--out", str(tmp_path / "out"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("amfem: error=data_approx detail=")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# verify command


def test_verify_single_suite_ok(capsys):
    assert run_cli("verify", "dorfler", "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert all(ln.startswith(("ok  ", "FAIL")) or "checks" in ln
               for ln in out.strip().splitlines())


def test_verify_unknown_suite_runs_nothing(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(verify._SUITES, "dorfler",
                        lambda seed: ran.append(seed) or [])
    assert run_cli("verify", "dorfler", "nosuch") == 2
    assert ran == []
    assert capsys.readouterr().err == (
        "amfem: error=config detail=\"unknown suite 'nosuch'; choose from "
        "mesh, dorfler, pythagoras, reduction, oscillation, upper_bound, "
        "all\"\n")


def test_verify_failure_exits_4(monkeypatch, capsys):
    bad = CheckResult(suite="mesh", name="broken", passed=False,
                      measured=2.0, bound=1.0)
    monkeypatch.setattr(cli, "run_many", lambda names, seed=0: [bad])
    assert run_cli("verify") == 4
    captured = capsys.readouterr()
    assert "1 checks, 1 failed" in captured.out
    assert "error=verification" in captured.err


# ---------------------------------------------------------------------------
# benchmark harness


def test_traced_benchmark_worker_runs(tmp_path):
    # perfbench/tracer.py patches amfem.adapt's module globals and reads the
    # results' fields; a traced run fails here if one of those goes away
    spec = {"problem": "square_sine", "max_dofs": 300, "trace": True,
            "argv": ["--problem", "square_sine", "--theta", "0.5",
                     "--max-dofs", "300", "--out", str(tmp_path / "out")],
            "launched": time.monotonic()}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         json.dumps(spec)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0
    assert "layers" in out
    assert out["layers"]["fem.solve_s"] > 0.0


# ---------------------------------------------------------------------------
# misc


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_no_subcommand_exits_2():
    assert run_cli() == 2


def test_custom_problem_coefficients():
    import numpy as np
    prob = make_custom_problem({"a.0": 4.0, "f.1.0": 1.0, "f.0.2.0": -0.5})
    pts = np.array([[0.25, 0.125], [0.75, 0.875]])  # region 0, region 1
    roots = np.array([0, 1])
    assert prob.a[0] == 4.0 and prob.a[1] == 1.0
    f = prob.f(pts, roots)
    assert f[0] == pytest.approx(0.25 - 0.5 * 0.25 ** 2)
    assert f[1] == pytest.approx(0.75)
