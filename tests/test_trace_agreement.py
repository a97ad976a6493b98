"""Trace agreement: the benchmark workloads refine the same meshes.

Runs the four ``BENCHMARK.json`` workload commands, the full estimator
(kappa = 0.5) and the two piecewise-coefficient paths (the built-in
``square_pwconst`` and a custom L-shape config) at 3 000 flux dofs and
pins, per run, the sha256 of
``final_mesh.txt``, the sha256 of the integer ``trace.csv`` columns, and the
final value and the sum of the ``eta2`` and ``osc2`` columns to 1e-12
relative.  A change in arithmetic order moves ``eta2`` by round-off only,
inside that tolerance.  When such a change flips
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
#        final eta2, sum of the eta2 column, final osc2, sum of the osc2
#        column)
RUNS = {
    "lshape_adaptive": (
        ("--problem", "lshape_singular", "--theta", "0.5"),
        "0d8ba82808321230efed5c691a83be95d82a80b997949e9aa4a5ce61cff43a2f",
        "cff662968d2a388c297f609bc63ddebe49547fb180115a36353f7dcd437382c5",
        0.010970500058458257, 6.547277032926829,
        1.8362441191841943e-12, 3.0008612434823624e-05),
    "checkerboard_adaptive": (
        ("--problem", "checkerboard", "--theta", "0.5"),
        "4b1c9ed84e85a8edbbe0ba4cb258cf9672fc30dee680fe4a85d39b9f673b8176",
        "04760bddbb92a22b864d6ad7af252de7c8a11e6c003973be91b94c59b35793fd",
        0.00018128721349321744, 0.0942608109020694,
        4.3263334898045e-33, 7.10940609967627e-31),
    "sine_uniform": (
        ("--problem", "square_sine", "--mode", "uniform", "--theta", "0.5"),
        "2aaf19ee80f9d798fca09d46ef194641474117d70c38d1eb64a0b78bb63c9e12",
        "e3bda32e01b797541ddb1b440c585c8fb76b29ce81fcee67a6fbc5b13fb7dc72",
        0.17251045832411838, 51.0268668217233,
        0.00020354866166545906, 32.66896723390521),
    "sine_twostep": (
        ("--problem", "square_sine", "--mode", "two_step", "--eps", "0.01",
         "--theta", "0.5"),
        "38312e54b59bce750ff624bb80ec1235a095ec20255f8357041b9d725c87d25b",
        "4e6f41b7cf86f09c233eac08da3ea20a73f505eb82b318540369082c8ef81840",
        0.071505703415288, 0.1577777716693824,
        0.0, 41.76294042651664),
    "sine_full_kappa": (
        ("--problem", "square_sine", "--estimator", "full", "--kappa", "0.5"),
        "7a92a8ec89abad0ae54e63e192de122e4efaee213601b3d621b224818172ca74",
        "bff462dfe46af34de59b471a5b197a868175fe5b13f913c370516b0c61ec5266",
        0.06982464107386746, 181.9701795196098,
        0.0001608834026404937, 57.26463290812878),
    "square_pwconst": (
        ("--problem", "square_pwconst"),
        "914e5920ab200d789e736ec6114296f968b09b8b25cbb41482add8fcea509746",
        "95203634267068de4423a5449b65dd2c6905cf9326333791b4699bd90fe6f2fb",
        0.000860568790804176, 1.994407459435533,
        6.624586576135312e-34, 1.9806754522681296e-30),
    "custom_lshape": (
        (),
        "4a9bb12cff7635ce0a7fea1b8b592badf94405cd4b97819b4efb23d3d307cde0",
        "019b7f6b4ee381dd123687ea89d5f5a6c86a6a28391d71ca4a13ca63ccba3ace",
        0.3780594702529452, 721.5618568482423,
        0.000632761125214285, 0.6819537511503055),
}


def fingerprint(out):
    """(mesh sha256, integer columns sha256, final eta2, eta2 sum, final
    osc2, osc2 sum) of a run."""
    mesh_sha = hashlib.sha256((out / "final_mesh.txt").read_bytes()).hexdigest()
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints = "\n".join(",".join(r[c] for c in INT_COLUMNS) for r in rows)
    eta2 = [float(r["eta2"]) for r in rows if r["eta2"]]
    osc2 = [float(r["osc2"]) for r in rows]
    return (mesh_sha, hashlib.sha256(ints.encode()).hexdigest(),
            eta2[-1], sum(eta2), osc2[-1], sum(osc2))


@pytest.mark.parametrize("name", RUNS)
def test_workload_trace_agrees(name, tmp_path):
    argv, mesh_sha, ints_sha, *sums = RUNS[name]
    if name in CONFIGS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIGS[name])
        argv = ("--config", str(cfg), *argv)
    out = tmp_path / "out"
    assert main(["run", *argv, "--max-dofs", "3000", "--out", str(out)]) == 0
    got = fingerprint(out)
    assert got[:2] == (mesh_sha, ints_sha)
    assert got[2:] == pytest.approx(tuple(sums), rel=1e-12, abs=0.0)
