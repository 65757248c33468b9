"""Invariant check suites at desk-scale bounds, plus report plumbing."""

import inspect

import pytest

from digitkit.verification import (
    CHECKS,
    CheckReport,
    _BOUND_CAPS,
    _report,
    check_complement_weight_gap,
    check_cost_model,
    check_sjsf_optimality,
    check_transducer,
    check_weight1_minimality,
    check_wllc_vs_naf,
    run_check,
)


def assert_clean(report: CheckReport, name: str, cases: int) -> None:
    assert report.check == name
    assert report.passed
    assert report.cases == cases
    assert report.counterexamples == ()


def test_weight1_minimality_small():
    report = check_weight1_minimality(max_n=7)
    assert_clean(report, "thm1", 64)
    assert "64 pairs" in report.details


def test_complement_weight_gap_small():
    report = check_complement_weight_gap(max_length=5)
    assert_clean(report, "thm2", 62)
    assert report.details == "max gap 2 (witness 00) over 62 words"


def test_sjsf_optimality_small():
    report = check_sjsf_optimality(max_n=15, random_pairs=50, seed=3)
    assert_clean(report, "sjsf", 256 + 50)


def test_cost_model_small():
    report = check_cost_model(instances=20, seed=1)
    assert_clean(report, "cost-model", 100)


def test_transducer_small():
    report = check_transducer(max_length=6)
    assert_clean(report, "transducer", 31 + 126)


def test_wllc_vs_naf_small():
    report = check_wllc_vs_naf(max_length=8)
    assert_clean(report, "wllc-vs-naf", 510)


def test_run_check_dispatch():
    direct = check_weight1_minimality(max_n=5)
    routed = run_check("thm1", max_n=5)
    assert routed == direct
    assert set(CHECKS) == {
        "thm1", "thm2", "sjsf", "cost-model", "transducer", "wllc-vs-naf"
    }
    with pytest.raises(ValueError):
        run_check("entropy")


def test_run_check_caps_its_bounds():
    # The defaults and the acceptance windows all fit under the caps.
    for check in CHECKS.values():
        for param in inspect.signature(check).parameters.values():
            if param.name in _BOUND_CAPS:
                assert param.default <= _BOUND_CAPS[param.name], param
    acceptance = {"max_n": 255, "max_length": 14, "random_pairs": 10_000, "instances": 1_000}
    for bound, value in acceptance.items():
        assert value <= _BOUND_CAPS[bound]
    with pytest.raises(ValueError, match="max_length = 21 exceeds its cap of 20"):
        run_check("thm2", max_length=21)
    with pytest.raises(ValueError, match="max_n = 512 exceeds its cap of 511"):
        run_check("sjsf", max_n=512, random_pairs=1)


def test_report_caps_counterexamples():
    bad = [f"case {i}" for i in range(25)]
    report = _report("demo", 30, "base details", bad)
    assert not report.passed
    assert len(report.counterexamples) == 20
    assert report.counterexamples[0] == "case 0"
    assert report.details.endswith("25 counterexamples, first 20 shown")

    clean = _report("demo", 30, "base details", [])
    assert clean.passed
    assert clean.details == "base details"
