"""Acceptance gate: eleven numbered criteria with stated tolerances.

Each test computes its measurement, records a one-line outcome through the
shared criterion log (printed in the terminal summary), then asserts.  The
heavy sampling runs (seed 42, 10^5 samples per length) are session fixtures
so each is computed once.
"""

import time
from fractions import Fraction

import pytest

from digitkit.expansions import binary
from digitkit.experiments import (
    RunConfig,
    compare_schemes,
    complement_bit_probabilities,
    cost_slope,
    exhaustive_stats,
    run_stats,
)
from digitkit.recoding import RecodingScheme, naf_complement_weight_gap
from digitkit.transducer import (
    double_naf_transducer,
    state_distribution,
    stationary_distribution,
    transition_matrix,
)
from digitkit.verification import (
    check_complement_weight_gap,
    check_cost_model,
    check_sjsf_optimality,
    check_transducer,
    check_weight1_minimality,
    check_wllc_vs_naf,
)

SEED = 42
SAMPLES = 100_000
BASE_LENGTH = 256
WIDTH = BASE_LENGTH + 1


@pytest.fixture(scope="session")
def wllc_slope():
    start = time.perf_counter()
    report = cost_slope(RecodingScheme.WLLC, BASE_LENGTH, SAMPLES, SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def sjsf_slope():
    return cost_slope(RecodingScheme.SJSF, BASE_LENGTH, SAMPLES, SEED)


@pytest.fixture(scope="session")
def comparisons():
    return tuple(
        compare_schemes(length, SAMPLES, SEED) for length in (256, 512)
    )


@pytest.fixture(scope="session")
def d3_record():
    config = RunConfig(
        seed=SEED,
        samples=SAMPLES,
        lengths=(BASE_LENGTH,),
        scheme=RecodingScheme.WLLC,
        dimension=3,
    )
    return next(iter(run_stats(config)))


def test_criterion_01_total_cost_slope(wllc_slope, criterion_log):
    report, elapsed = wllc_slope
    in_window = 1.545 <= report.slope <= 1.566
    gap_low_claim = abs(report.slope - 1.304)
    gap_high_claim = abs(report.slope - 1.471)
    off_claims = gap_low_claim > 0.07 and gap_high_claim > 0.07
    fast = elapsed < 120.0
    criterion_log(
        1,
        in_window and off_claims and fast,
        f"slope {report.slope:.6f} (window [1.545, 1.566]; "
        f"{gap_low_claim:.3f} from 1.304, {gap_high_claim:.3f} from 1.471), "
        f"{elapsed:.1f}s",
    )
    assert in_window, f"slope {report.slope:.6f} outside [1.545, 1.566]"
    assert off_claims, f"slope {report.slope:.6f} within 0.07 of a refuted constant"
    assert fast, f"slope run took {elapsed:.1f}s"


def test_criterion_02_zero_column_density(wllc_slope, criterion_log):
    report, _ = wllc_slope
    ratio = report.low.mean_zeros / WIDTH
    ok = 0.434 <= ratio <= 0.455
    criterion_log(
        2, ok,
        f"zero-column density {ratio:.6f} at length {BASE_LENGTH} "
        f"(window [0.434, 0.455])",
    )
    assert ok, f"density {ratio:.6f} outside [0.434, 0.455]"


def test_criterion_03_sjsf_slope_and_dominance(
    sjsf_slope, comparisons, criterion_log
):
    in_window = 1.494 <= sjsf_slope.slope <= 1.506
    clean = all(c.violations == 0 for c in comparisons)
    nonneg = all(c.min_margin >= 0 for c in comparisons)
    counts = ", ".join(
        f"{c.violations} at length {c.length}" for c in comparisons
    )
    criterion_log(
        3,
        in_window and clean and nonneg,
        f"slope {sjsf_slope.slope:.6f} (window [1.494, 1.506]); "
        f"cheaper-than-sjsf samples: {counts}",
    )
    assert in_window, f"slope {sjsf_slope.slope:.6f} outside [1.494, 1.506]"
    for comparison in comparisons:
        assert comparison.violations == 0, comparison
        assert comparison.min_margin >= 0, comparison


def test_criterion_04_complement_weight_gap(criterion_log):
    start = time.perf_counter()
    report = check_complement_weight_gap(max_length=14)
    elapsed = time.perf_counter() - start
    attained = abs(naf_complement_weight_gap(binary(7, 3)))
    ok = (
        report.passed
        and report.cases == 32_766
        and report.details.startswith("max gap 2 (witness")
        and attained == 2
        and elapsed < 10.0
    )
    criterion_log(
        4, ok, f"{report.details}; word 111 attains 2; {elapsed:.1f}s"
    )
    assert report.passed and report.counterexamples == ()
    assert report.cases == 32_766
    assert report.details.startswith("max gap 2 (witness"), report.details
    assert attained == 2
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_criterion_05_weight1_oracle_equality(criterion_log):
    start = time.perf_counter()
    report = check_weight1_minimality(max_n=63)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.cases == 4_096 and elapsed < 60.0
    criterion_log(
        5, ok, f"oracle equality on {report.cases} pairs, {elapsed:.1f}s"
    )
    assert report.passed and report.counterexamples == ()
    assert report.cases == 4_096
    assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_06_sjsf_optimality_and_syntax(criterion_log):
    report = check_sjsf_optimality(max_n=255, random_pairs=10_000)
    ok = report.passed and report.cases == 256 * 256 + 10_000
    criterion_log(6, ok, report.details)
    assert report.passed and report.counterexamples == ()
    assert report.cases == 256 * 256 + 10_000


def test_criterion_07_wllc_never_beats_naf(criterion_log):
    report = check_wllc_vs_naf(max_length=14)
    ok = report.passed and report.cases == 32_766
    criterion_log(7, ok, report.details)
    assert report.passed and report.counterexamples == ()
    assert report.cases == 32_766


def test_criterion_08_transducer_exactness(criterion_log):
    report = check_transducer(max_length=14)

    half = Fraction(1, 2)
    expected_rows = (
        (0, half, half, 0, 0, 0),
        (0, 0, half, half, 0, 0),
        (0, half, 0, 0, half, 0),
        (0, 0, 0, half, 0, half),
        (0, 0, 0, 0, half, half),
        (0, 0, 0, half, half, 0),
    )
    p = transition_matrix(double_naf_transducer())
    matrix_ok = p.labels == ("1", "2", "3", "4", "5", "6") and all(
        tuple(row) == want for row, want in zip(p.entries, expected_rows)
    )

    third = Fraction(1, 3)
    pi = stationary_distribution(p)
    stationary_ok = tuple(pi.weights) == (0, 0, 0, third, third, third)

    transient_ok = all(
        state_distribution(p, k).probability("2") == Fraction(1, 1 << k)
        and state_distribution(p, k).probability("3") == Fraction(1, 1 << k)
        for k in range(1, 21)
    )

    ok = report.passed and matrix_ok and stationary_ok and transient_ok
    criterion_log(
        8, ok,
        "transition matrix, stationary (0,0,0,1/3,1/3,1/3), and 2^-k "
        f"transients exact; outputs checked on {report.cases} cases",
    )
    assert report.passed and report.counterexamples == ()
    assert matrix_ok
    assert stationary_ok
    assert transient_ok


def test_criterion_09_cost_model_exactness(criterion_log):
    report = check_cost_model(instances=1_000)
    ok = report.passed and report.cases == 5_000
    criterion_log(9, ok, report.details)
    assert report.passed and report.counterexamples == ()
    assert report.cases == 5_000


def test_criterion_10_three_row_column_density(d3_record, criterion_log):
    ratio = d3_record.mean_weight / WIDTH
    ok = 0.694 <= ratio <= 0.714
    criterion_log(
        10, ok,
        f"nonzero-column density {ratio:.6f} at dimension 3 "
        f"(window [0.694, 0.714])",
    )
    assert ok, f"density {ratio:.6f} outside [0.694, 0.714]"


def test_criterion_11_complement_bit_probabilities(criterion_log):
    report4 = complement_bit_probabilities(4)
    report2 = complement_bit_probabilities(2)
    single = report4.zero_probability[0]
    marginals2 = report2.zero_probability
    pair = report2.pair_zero_probability[(0, 1)]
    ok = (
        single == Fraction(11, 16)
        and single != Fraction(3, 4)
        and marginals2 == (Fraction(3, 4), Fraction(3, 4))
        and pair == Fraction(1, 2)
        and pair != Fraction(9, 16)
    )
    criterion_log(
        11, ok,
        f"P(bit0=0)={single} at length 4 (claim 3/4); "
        f"P(both 0)={pair} at length 2 (independence needs 9/16)",
    )
    assert single == Fraction(11, 16)
    assert single != Fraction(3, 4)
    assert marginals2 == (Fraction(3, 4), Fraction(3, 4))
    assert pair == Fraction(1, 2)
    assert pair != Fraction(9, 16)


def test_sampled_fixtures_lie_near_the_exact_means(wllc_slope, sjsf_slope, d3_record):
    # Each frozen fixture's mean weight1 against the exact mean over every
    # vector, in units of the record's own std_error.
    report, _ = wllc_slope
    sampled = (report.low, report.high, sjsf_slope.low, sjsf_slope.high, d3_record)
    exact = [
        exhaustive_stats(RecodingScheme(r.scheme), r.length, r.dimension) for r in sampled
    ]
    for record, mean in zip(sampled, exact):
        deviation = record.mean_weight1 - mean.mean_weight1
        assert abs(deviation) <= 4 * record.std_error, (record, deviation)
    low, high = exact[:2]
    total_low = low.mean_multiplications + low.mean_squarings
    total_high = high.mean_multiplications + high.mean_squarings
    assert round((total_high - total_low) / BASE_LENGTH, 7) == 1.5555859
