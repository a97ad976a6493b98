"""Tests for the built-in verification suites."""

import pytest

from amfem.verify import CheckResult, SUITE_NAMES, run_many, run_suite


def test_all_suites_pass():
    results = run_many(("all",), seed=0)
    assert {r.suite for r in results} == set(SUITE_NAMES)
    failed = [r.line() for r in results if not r.passed]
    assert failed == []


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope")
    # run_suite takes one suite; "all" is for run_many, so not offered
    with pytest.raises(ValueError) as err:
        run_suite("all")
    assert str(err.value).endswith(", ".join(SUITE_NAMES))


def test_run_many_deduplicates():
    once = run_suite("dorfler", seed=0)
    twice = run_many(("dorfler", "dorfler"), seed=0)
    assert len(twice) == len(once)


def test_suite_is_seed_deterministic():
    a = run_suite("dorfler", seed=3)
    b = run_suite("dorfler", seed=3)
    assert [(r.name, r.measured) for r in a] == \
        [(r.name, r.measured) for r in b]


def test_check_result_line_format():
    ok = CheckResult(suite="mesh", name="area", passed=True,
                     measured=1e-14, bound=1e-12)
    bad = CheckResult(suite="mesh", name="area", passed=False,
                      measured=2.0, bound=1.0, detail="unit square")
    assert ok.line() == "ok   mesh.area measured=1e-14 bound=1e-12"
    assert bad.line() == "FAIL mesh.area measured=2 bound=1  (unit square)"
