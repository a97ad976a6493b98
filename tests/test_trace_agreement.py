"""Trace agreement: the benchmark workloads refine the same meshes.

Runs the four ``BENCHMARK.json`` workload commands, the full estimator
(kappa = 0.5) and the two piecewise-coefficient paths (the built-in
``square_pwconst`` and a custom L-shape config) at 3 000 flux dofs and
pins, per run, the sha256 of
``final_mesh.txt``, the sha256 of the integer ``trace.csv`` columns and the
``eta2`` column to 1e-12 relative.  A change in arithmetic order moves
``eta2`` by round-off only, inside that tolerance.  When such a change flips
a marking tie (``dorfler_mark`` ranks indicators equal in exact arithmetic
by their last bits), the meshes differ: the change then updates the pinned
values here and declares the flip in CHANGES.md (ROADMAP item 2).
"""

import csv
import hashlib

import pytest

from amfem.cli import main

INT_COLUMNS = ("k", "n_elem", "n_flux_dofs", "n_marked")

# config files of the runs that need one, passed as ``--config``
CONFIGS = {
    "custom_lshape": "problem = custom\ndomain = lshape\na.0 = 4\n"
                     "a.3 = 0.01\nf.1.0 = 1\nf.2.0.1 = -2.5\n"
                     "max_dofs = 3000\n",
}

# name: (argv, final_mesh.txt sha256, integer columns sha256,
#        final eta2, sum of the eta2 column)
RUNS = {
    "lshape_adaptive": (
        ("--problem", "lshape_singular", "--theta", "0.5"),
        "ea8f581449ca5839bcfdaeac95b6097c6501d716f2569bea10e039a20461a3f8",
        "a3db1bc165c91240a81622651b528851545efd8a867cb593a9074b25ca3db9aa",
        0.010970500058458291, 6.515197966395719),
    "checkerboard_adaptive": (
        ("--problem", "checkerboard", "--theta", "0.5"),
        "90c40ad9b8b87612572d4d7f9690fa00c01528c2f162d610db3fc78ad76f2ae8",
        "ca1e940fd516fdf4a50fda0dd4092433c2bfab0bb702d56c193836df95af354c",
        0.00018128721349321727, 0.10410321896876679),
    "sine_uniform": (
        ("--problem", "square_sine", "--mode", "uniform", "--theta", "0.5"),
        "2aaf19ee80f9d798fca09d46ef194641474117d70c38d1eb64a0b78bb63c9e12",
        "e3bda32e01b797541ddb1b440c585c8fb76b29ce81fcee67a6fbc5b13fb7dc72",
        0.17251045832411838, 51.0268668217233),
    "sine_twostep": (
        ("--problem", "square_sine", "--mode", "two_step", "--eps", "0.01",
         "--theta", "0.5"),
        "38312e54b59bce750ff624bb80ec1235a095ec20255f8357041b9d725c87d25b",
        "4e6f41b7cf86f09c233eac08da3ea20a73f505eb82b318540369082c8ef81840",
        0.071505703415288, 0.1577777716693824),
    "sine_full_kappa": (
        ("--problem", "square_sine", "--estimator", "full", "--kappa", "0.5"),
        "e99f0664a668e1420e289122f5080bda9d082a352ea1d14aa90a858186035dc1",
        "1bff534ef98a7752765c97dc52fb3c69ce540a79ded01320e34ffc1bb8927f7a",
        0.06982464117718093, 183.59266217942854),
    "square_pwconst": (
        ("--problem", "square_pwconst"),
        "e70ab4c4a93e86ac83544c71ad3133231ee479527e6d9e83d70b2528ca78b8af",
        "b1b4d78232fa495e8044a328babeab128f17042b81b53ddb5cc0c1f69eceb3c1",
        0.0008605687908041707, 2.1095793729389385),
    "custom_lshape": (
        (),
        "4a9bb12cff7635ce0a7fea1b8b592badf94405cd4b97819b4efb23d3d307cde0",
        "019b7f6b4ee381dd123687ea89d5f5a6c86a6a28391d71ca4a13ca63ccba3ace",
        0.3780594702529452, 721.5618568482423),
}


def fingerprint(out):
    """(mesh sha256, integer columns sha256, final eta2, eta2 sum) of a run."""
    mesh_sha = hashlib.sha256((out / "final_mesh.txt").read_bytes()).hexdigest()
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints = "\n".join(",".join(r[c] for c in INT_COLUMNS) for r in rows)
    eta2 = [float(r["eta2"]) for r in rows if r["eta2"]]
    return (mesh_sha, hashlib.sha256(ints.encode()).hexdigest(),
            eta2[-1], sum(eta2))


@pytest.mark.parametrize("name", RUNS)
def test_workload_trace_agrees(name, tmp_path):
    argv, mesh_sha, ints_sha, eta2_final, eta2_sum = RUNS[name]
    if name in CONFIGS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIGS[name])
        argv = ("--config", str(cfg), *argv)
    out = tmp_path / "out"
    assert main(["run", *argv, "--max-dofs", "3000", "--out", str(out)]) == 0
    got = fingerprint(out)
    assert got[:2] == (mesh_sha, ints_sha)
    assert got[2] == pytest.approx(eta2_final, rel=1e-12, abs=0.0)
    assert got[3] == pytest.approx(eta2_sum, rel=1e-12, abs=0.0)
