"""Smoke test of the benchmark at a small dof budget.

Run from the repository root with ``python3 -m pytest perfbench``.  It is
not part of the package's own test suite, whose ``testpaths`` is ``tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import SMOKE_BUDGET  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--max-dofs", str(SMOKE_BUDGET),
         "--seed", "0", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert got["value"] == got["value"], m["name"]     # not NaN


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sine_uniform",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
