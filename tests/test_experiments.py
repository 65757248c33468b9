"""Sampling engine: per-sample seeding, fast metric paths, aggregation."""

import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from digitkit import experiments as ex
from digitkit import recoding
from digitkit.recoding import (
    RecodingScheme,
    min_joint_weight_oracle,
    naf,
    recode_joint,
    sjsf,
    wllc_recode,
)


def reference_metrics(exps, length, scheme):
    """Metrics computed through the digit-level recoders."""
    if scheme in (RecodingScheme.BINARY, RecodingScheme.WLLC):
        joint = recode_joint(exps, scheme, length=length)
    else:
        joint = recode_joint(exps, scheme, length=length + 1)
    weight = joint.joint_weight()
    weight1 = joint.weight1()
    top = 1 if any(row.digits[-1] for row in joint.rows) else 0
    return (weight, weight1, len(joint) - weight, weight1 - top, len(joint) - 1)


def summed_record(
    experiment, scheme, length, dimension, vectors, seed, sampled,
    metrics=reference_metrics,
):
    """The StatRecord of vectors, every mean summed from metrics (by default
    the digit-level reference_metrics); a sampled record's std error is
    that of weight1's sample mean."""
    rows = [metrics(exps, length, scheme) for exps in vectors]
    count = len(rows)
    sums = [sum(column) for column in zip(*rows)]
    std_error = 0.0
    if sampled and count > 1:
        total, total_sq = sums[1], sum(row[1] ** 2 for row in rows)
        variance = (total_sq - total * total / count) / (count - 1)
        std_error = math.sqrt(max(variance, 0.0) / count)
    return ex.StatRecord(
        experiment, length, dimension, scheme.value, count,
        *(total / count for total in sums), std_error, seed,
    )


def test_derive_sample_seed_is_stable():
    assert ex.derive_sample_seed(0, 0) == ex.derive_sample_seed(0, 0)
    assert ex.derive_sample_seed(0, 1) != ex.derive_sample_seed(1, 0)
    assert 0 <= ex.derive_sample_seed(2**64 - 1, 2**64 - 1) < 2**64
    for seed, index in ((-1, 0), (0, -1), (2**64, 0), (0, 2**64), (0.5, 0)):
        with pytest.raises(ValueError, match=r"must be integers in \[0, 2\*\*64\)$"):
            ex.derive_sample_seed(seed, index)


def test_derive_sample_seed_matches_hashlib_blake2b():
    # The seed stream is BLAKE2b, whichever module supplies it.
    pairs = ((0, 0), (0, 1), (1, 0), (42, 99_999), (2**64 - 1, 2**64 - 1))
    for seed, index in pairs:
        digest = hashlib.blake2b(
            struct.pack("<QQ", seed, index), digest_size=8
        ).digest()
        assert ex.derive_sample_seed(seed, index) == int.from_bytes(digest, "little")


def test_sample_exponents_deterministic():
    a, r1 = ex.sample_exponents(7, 3, 100, 2)
    b, r2 = ex.sample_exponents(7, 3, 100, 2)
    assert a == b
    assert (r1, r2) == (0, 0)
    assert all(0 <= x < (1 << 100) for x in a)
    c, _ = ex.sample_exponents(7, 4, 100, 2)
    assert c != a


def test_sample_exponents_redraws_zero_vectors():
    redraw_seen = False
    for index in range(4000):
        exps, redraws = ex.sample_exponents(1, index, 1, 1, nonzero=True)
        assert any(exps)
        if redraws:
            redraw_seen = True
            plain, _ = ex.sample_exponents(1, index, 1, 1, nonzero=False)
            assert plain == (0,)
    assert redraw_seen
    # No bits to draw: the plain draw is all-zero, and a nonzero one is
    # refused, not redrawn forever.  A child process with a timeout turns
    # such a hang into a failure here.
    assert ex.sample_exponents(1, 0, 0, 1) == ((0,), 0)
    assert ex.sample_exponents(1, 0, 4, 0) == ((), 0)
    code = (
        "from digitkit.experiments import sample_exponents\n"
        "for length, dimension in ((0, 1), (4, 0), (-1, 2), (0.0, 1)):\n"
        "    try:\n"
        "        sample_exponents(1, 0, length, dimension, nonzero=True)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    src = Path(ex.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.splitlines() == 4 * [
        "a nonzero vector needs length and dimension of at least 1"
    ]


def naf_digits(n):
    """The non-adjacent form digit by digit: each odd step takes
    d = 2 - (n mod 4), so the successor is divisible by 4."""
    digits = []
    while n:
        d = 2 - (n & 3) if n & 1 else 0
        digits.append(d)
        n = (n - d) >> 1
    return digits


def wllc_digits(n, length):
    """The recipe of the wllc_recode docstring, on digit lists."""
    if 2 * bin(n).count("1") <= length:
        digits = naf_digits(n)
        return tuple(digits + [0] * (length + 1 - len(digits)))
    digits = naf_digits(n - ((1 << length) - 1))
    digits += [0] * (length + 1 - len(digits))
    digits[length] += 1
    digits[0] -= 1
    return tuple(digits)


def mask_of(digits, keep):
    return sum(1 << i for i, d in enumerate(digits) if keep(d))


def test_naf_support_matches_naf():
    for n in range(-512, 512):
        digits = naf_digits(n)
        assert recoding._naf_support(n) == mask_of(digits, lambda d: d != 0)
        assert naf(n).digits == tuple(digits)


def test_wllc_support_matches_wllc_recode():
    for length in range(1, 10):
        for n in range(1 << length):
            digits = wllc_digits(n, length)
            assert recoding._wllc_support(n, length) == (
                mask_of(digits, lambda d: d != 0),
                mask_of(digits, lambda d: abs(d) == 2),
            )
            assert wllc_recode(n, length).digits == digits


def sjsf_digits(m, n):
    """The joint sparse form digit by digit, from the sjsf docstring: both
    residuals odd, each digit is 2 - (r mod 4); one residual odd, its
    digit sign makes the two successors equal in parity."""
    rows = ([], [])
    while m or n:
        if m & 1 and n & 1:
            d1, d2 = 2 - (m & 3), 2 - (n & 3)
        elif (m | n) & 1:
            d1, d2 = m & 1, n & 1
            if ((m - d1) >> 1 ^ (n - d2) >> 1) & 1:
                d1, d2 = -d1, -d2
        else:
            d1 = d2 = 0
        rows[0].append(d1)
        rows[1].append(d2)
        m, n = (m - d1) >> 1, (n - d2) >> 1
    return tuple(rows[0]), tuple(rows[1])


def assert_sjsf_matches(m, n, lengths):
    """sjsf(m, n) and _sjsf_weight_top at each length against sjsf_digits."""
    digits = sjsf_digits(m, n)
    # Lengths and masks, not row.digits: deriving digits would triple the cost.
    rows = tuple((len(d), mask_of(d, bool), mask_of(d, lambda x: x < 0)) for d in digits)
    assert tuple((len(r), r._support, r._negative) for r in sjsf(m, n).rows) == rows
    width = len(digits[0])
    weight = (rows[0][1] | rows[1][1]).bit_count()
    for length in lengths:
        assert width <= length + 1
        top = 1 if width == length + 1 else 0
        assert recoding._sjsf_weight_top(m, n, length) == (weight, top)


def test_sjsf_counts_match_sjsf():
    # Every pair below 2**9, at each length 1..9 that holds it.
    for m in range(1 << 9):
        for n in range(1 << 9):
            low = max(m.bit_length(), n.bit_length(), 1)
            assert_sjsf_matches(m, n, range(low, 10))
    rng = random.Random(2)
    for _ in range(100):
        assert_sjsf_matches(rng.getrandbits(192), rng.getrandbits(192), (192,))
    lengths = [1, 2, 3, 5, 6, 7, 9, 12, 13, 255, 257, 510, 511, 513, 600]
    lengths += [rng.randint(1, 600) for _ in range(200)]
    for length in lengths:
        m, n = rng.getrandbits(length), rng.getrandbits(length)
        assert_sjsf_matches(m, n, (length,))
        # With its top bit set the form may need all length + 1 columns.
        m |= 1 << (length - 1)
        assert_sjsf_matches(m, n, (length,))


def test_sjsf_counts_match_the_oracle():
    for m in range(64):
        for n in range(64):
            weight, _ = recoding._sjsf_weight_top(m, n, 6)
            assert weight == min_joint_weight_oracle(m, n).minimal_cost


def test_sjsf_counts_reject_exponents_wider_than_length():
    with pytest.raises(RuntimeError):
        recoding._sjsf_weight_top(1 << 8, 0, 8)
    with pytest.raises(RuntimeError):
        recoding._sjsf_weight_top(3, 1 << 300, 256)


def test_scheme_metrics_match_digit_level_recoders():
    rng = random.Random(4)
    for scheme in RecodingScheme:
        dims = (2,) if scheme is RecodingScheme.SJSF else (1, 2, 3)
        for dimension in dims:
            for length in (1, 2, 3, 5, 9, 17):
                for _ in range(25):
                    exps = tuple(rng.getrandbits(length) for _ in range(dimension))
                    if scheme is RecodingScheme.WLLC and not any(exps):
                        continue
                    weight, weight1, _, multiplications, _ = reference_metrics(
                        exps, length, scheme
                    )
                    assert ex._scheme_metrics(exps, length, scheme) == (
                        weight, weight1, weight1 - multiplications
                    )


def test_run_config_validation():
    good = dict(
        seed=0, samples=10, lengths=(8,), scheme=RecodingScheme.WLLC
    )
    ex.RunConfig(**good)
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "seed": 1 << 64})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "samples": 0})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "lengths": ()})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "lengths": (0,)})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "scheme": RecodingScheme.SJSF, "dimension": 3})
    # A scheme name is refused here, not inside a pool worker.
    with pytest.raises(ValueError, match=r"^unknown scheme 'naf'$"):
        ex.RunConfig(0, 10, (8,), "naf", workers=2)
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "workers": 0})
    with pytest.raises(ValueError):
        ex.RunConfig(**{**good, "dimension": 0})
    # A field that is not an integer is refused, not left to fail in a run.
    for field, value in (
        ("seed", 0.5), ("samples", 10.5), ("lengths", (256.5,)), ("dimension", "2"),
        ("workers", 1.5),
    ):
        what = "length" if field == "lengths" else field
        shown = value[0] if field == "lengths" else value
        with pytest.raises(ValueError, match=f"^{what} {shown!r} is not an integer$"):
            ex.RunConfig(**{**good, field: value})
    config = ex.RunConfig(
        seed=1.0, samples=10.0, lengths=[8.0, True], scheme=RecodingScheme.NAF,
        dimension=2.0, workers=True,
    )
    assert config == ex.RunConfig(1, 10, (8, 1), RecodingScheme.NAF, 2, 1)


def test_run_stats_is_deterministic_and_consistent():
    config = ex.RunConfig(
        seed=11, samples=600, lengths=(16, 24), scheme=RecodingScheme.WLLC
    )
    first = list(ex.run_stats(config))
    second = list(ex.run_stats(config))
    assert first == second
    for record, length in zip(first, (16, 24)):
        assert record.length == length
        assert record.samples == 600
        assert record.scheme == "wllc"
        assert record.mean_zeros + record.mean_weight == pytest.approx(length + 1)
        assert record.mean_squarings == length
        assert record.std_error > 0


def test_run_stats_worker_count_does_not_change_records():
    base = dict(seed=13, samples=500, lengths=(20,), scheme=RecodingScheme.SJSF)
    solo = list(ex.run_stats(ex.RunConfig(**base, workers=1)))
    pooled = list(ex.run_stats(ex.RunConfig(**base, workers=3)))
    assert solo == pooled


def test_worker_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    base = dict(seed=5, samples=10, lengths=(16,), scheme=RecodingScheme.WLLC)
    # Nor is it larger than the CPU count.
    for cpus, expected in ((64, [10, 3]), (2, [2, 2])):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        sizes.clear()
        pooled = list(ex.run_stats(ex.RunConfig(**base, workers=64)))
        assert pooled == list(ex.run_stats(ex.RunConfig(**base)))
        assert ex.compare_schemes(16, 3, 5, workers=64) == ex.compare_schemes(16, 3, 5)
        # A run of one chunk stays in-process: no pool at all.
        one = dict(base, samples=1)
        assert list(ex.run_stats(ex.RunConfig(**one, workers=2))) == list(
            ex.run_stats(ex.RunConfig(**one))
        )
        assert ex.compare_schemes(8, 1, 1, workers=2) == ex.compare_schemes(8, 1, 1)
        assert sizes == expected, cpus


def reference_record(config, length, metrics=reference_metrics):
    """run_stats's record at one length, each index sampled by
    sample_exponents and measured by metrics."""
    nonzero = config.scheme is RecodingScheme.WLLC
    vectors = (
        ex.sample_exponents(config.seed, i, length, config.dimension, nonzero)[0]
        for i in range(config.samples)
    )
    return summed_record(
        "stats", config.scheme, length, config.dimension, vectors, config.seed,
        True, metrics,
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_multi_length_runs_match_one_length_runs(monkeypatch, workers):
    # Blocks of 1000 bytes hold 1 to 3 draws of 64 to 3072 bits here, so
    # each run of 40 samples crosses many block edges.  Lengths off a
    # multiple of 32 read their vectors from the same draws.
    monkeypatch.setattr(ex, "_DRAW_BLOCK_BYTES", 1000)
    for scheme in RecodingScheme:
        dims = (2,) if scheme is RecodingScheme.SJSF else (1, 2, 3)
        for dimension in dims:
            for lengths in (
                (32, 64), (256, 512), (96, 160, 320), (24, 64), (100, 200),
                (5, 1000), (32, 64, 100),
            ):
                config = ex.RunConfig(17, 40, lengths, scheme, dimension, workers)
                records = list(ex.run_stats(config))
                for record, length in zip(records, lengths, strict=True):
                    one = ex.RunConfig(17, 40, (length,), scheme, dimension)
                    assert [record] == list(ex.run_stats(one))
                    assert record == reference_record(one, length)


def test_all_zero_slice_falls_back_to_sample_exponents(monkeypatch, caplog):
    class ZeroFirst(random.Random):
        """A stream whose first draw reads as 0, so every slice is all-zero."""

        def seed(self, *args, **kwargs):
            super().seed(*args, **kwargs)
            self.drawn = False

        def getrandbits(self, k):
            bits = super().getrandbits(k)
            first, self.drawn = not self.drawn, True
            return 0 if first else bits

    monkeypatch.setattr(ex.random, "Random", ZeroFirst)
    caplog.set_level("INFO", logger=ex.__name__)
    lengths = (32, 64, 100)
    for dimension in (1, 2):
        caplog.clear()
        config = ex.RunConfig(9, 20, lengths, RecodingScheme.WLLC, dimension)
        for record, length in zip(ex.run_stats(config), lengths, strict=True):
            assert record == reference_record(config, length)
        # sample_exponents redraws only where its own first vector is all-zero:
        # at dimension 1 every index, at dimension 2 none (component 1 is drawn).
        redrew = [r.getMessage() for r in caplog.records]
        assert redrew == (
            [f"length {n}: redrew the all-zero exponent vector 20 time(s)" for n in lengths]
            if dimension == 1 else []
        )


def test_cost_slope_seeds_each_index_once(monkeypatch):
    seeded = []
    derive = ex.derive_sample_seed

    def counting(seed, index):
        seeded.append(index)
        return derive(seed, index)

    monkeypatch.setattr(ex, "derive_sample_seed", counting)
    for scheme in (RecodingScheme.WLLC, RecodingScheme.SJSF):
        seeded.clear()
        ex.cost_slope(scheme, 256, 30, 4)
        assert sorted(seeded) == list(range(30))


def test_run_stats_matches_direct_sample_loop():
    config = ex.RunConfig(
        seed=21, samples=300, lengths=(12,), scheme=RecodingScheme.NAF, dimension=1
    )
    record = next(iter(ex.run_stats(config)))
    weights = []
    for index in range(300):
        exps, _ = ex.sample_exponents(21, index, 12, 1)
        weights.append(reference_metrics(exps, 12, RecodingScheme.NAF)[0])
    assert record.mean_weight == pytest.approx(sum(weights) / 300)


def test_exhaustive_stats_matches_digit_level_enumeration():
    record = ex.exhaustive_stats(RecodingScheme.SJSF, 4)
    total = 0
    count = 0
    for m in range(16):
        for n in range(16):
            total += sjsf(m, n).joint_weight()
            count += 1
    assert record.samples == count
    assert record.mean_weight == pytest.approx(total / count)
    assert record.std_error == 0.0


def test_exhaustive_stats_wllc_skips_zero_vector():
    record = ex.exhaustive_stats(RecodingScheme.WLLC, 3)
    assert record.samples == (1 << 6) - 1
    naf_record = ex.exhaustive_stats(RecodingScheme.NAF, 3)
    assert naf_record.samples == 1 << 6


def test_exhaustive_stats_bounds():
    assert ex.exhaustive_stats(RecodingScheme.NAF, 13, dimension=2).samples == 1 << 26
    with pytest.raises(ValueError):
        ex.exhaustive_stats(RecodingScheme.SJSF, 4, dimension=3)
    with pytest.raises(ValueError, match=r"^unknown scheme 'naf'$"):
        ex.exhaustive_stats("naf", 4)
    # Its own vector cap, not the draw-bits cap of a sampled run's RunConfig.
    for length, dimension in ((65536, 129), (4097, 2)):
        with pytest.raises(ValueError, match=r"^exhaustive mode capped at 2\*\*8192 vectors$"):
            ex.exhaustive_stats(RecodingScheme.NAF, length, dimension)
    with pytest.raises(ValueError, match=r"^exhaustive wllc capped at length 512$"):
        ex.exhaustive_stats(RecodingScheme.WLLC, 513)
    with pytest.raises(ValueError):
        ex.exhaustive_stats(RecodingScheme.NAF, 0)
    with pytest.raises(ValueError, match=r"^length 4.5 is not an integer$"):
        ex.exhaustive_stats(RecodingScheme.NAF, 4.5)
    with pytest.raises(ValueError, match=r"^dimension 1.5 is not an integer$"):
        ex.exhaustive_stats(RecodingScheme.NAF, 4, 1.5)
    assert ex.exhaustive_stats(RecodingScheme.NAF, 4.0, 2.0) == ex.exhaustive_stats(
        RecodingScheme.NAF, 4
    )


def every_vector(scheme, length, dimension, skip_zero=None):
    """Every vector in [0, 2**length)**dimension, WLLC skipping the all-zero one."""
    if skip_zero is None:
        skip_zero = scheme is RecodingScheme.WLLC
    return (
        exps
        for exps in product(range(1 << length), repeat=dimension)
        if any(exps) or not skip_zero
    )


def enumerated_sums(scheme, length, dimension, skip_zero=None):
    """_exhaustive_sums's four sums (count, weight, weight1, top) by
    enumeration: _accumulate over every_vector."""
    vectors = every_vector(scheme, length, dimension, skip_zero)
    return ex._accumulate(((exps, 0) for exps in vectors), length, scheme)[:4]


def exhaustive_cases(max_bits):
    for scheme in RecodingScheme:
        for dimension in (2,) if scheme is RecodingScheme.SJSF else (1, 2, 3):
            for length in range(1, max_bits // dimension + 1):
                yield scheme, length, dimension


def test_exhaustive_sums_equal_enumeration():
    for scheme, length, dimension in exhaustive_cases(12):
        case = (scheme, length, dimension)
        sums = ex._exhaustive_sums(scheme, length, dimension)
        assert all(type(v) is int for v in sums), case
        assert sums == enumerated_sums(*case), case
    # Every field of the record, summed from the digit-level recoders.
    for case in exhaustive_cases(8):
        vectors = every_vector(*case)
        assert ex.exhaustive_stats(*case) == summed_record(
            "exhaustive", *case, vectors, seed=0, sampled=False
        ), case


def test_exhaustive_wllc_drops_only_the_zero_vector():
    for length, dimension in ((1, 1), (5, 1), (12, 1), (3, 2), (6, 2), (2, 3), (4, 3)):
        counted = ex._exhaustive_sums(RecodingScheme.WLLC, length, dimension)
        zero = ex._scheme_metrics((0,) * dimension, length, RecodingScheme.WLLC)
        # The all-zero vector has no nonzero column.
        assert zero[:2] == (0, 0)
        every = enumerated_sums(RecodingScheme.WLLC, length, dimension, skip_zero=False)
        assert counted[0] == every[0] - 1 == (1 << dimension * length) - 1
        assert counted[1:] == tuple(e - z for e, z in zip(every[1:], zero))


def six_sums(scheme, length, sums):
    """(count, weight, weight1, zeros, multiplications, squarings), the
    frozen sums below, of _exhaustive_sums's (count, weight, weight1, top)
    at the width reference_metrics recodes to."""
    count, weight, weight1, top = sums
    width = length if scheme is RecodingScheme.BINARY else length + 1
    return (
        count, weight, weight1, count * width - weight, weight1 - top,
        count * (width - 1),
    )


# _exhaustive_sums(SJSF, L) past the enumeration reference (L <= 6),
# recorded from the counting walk over recoding's nibble table.
SJSF_SUMS = {
    7: (16384, 68511, 68511, 62561, 60427, 114688),
    8: (65536, 307052, 307052, 282772, 274387, 524288),
    9: (262144, 1359507, 1359507, 1261933, 1228891, 2359296),
    10: (1048576, 5963072, 5963072, 5571264, 5439395, 10485760),
    11: (4194304, 25951047, 25951047, 24380601, 23855019, 46137344),
    12: (16777216, 112194516, 112194516, 105909292, 103809651, 201326592),
}


def test_exhaustive_sjsf_sums_are_frozen():
    for length, sums in SJSF_SUMS.items():
        counted = ex._exhaustive_sums(RecodingScheme.SJSF, length, 2)
        assert six_sums(RecodingScheme.SJSF, length, counted) == sums, length


# _exhaustive_sums of the union schemes at the exhaustive cap, recorded
# from the row-by-row count that enumerated all 2**length rows per scheme.
UNION_SUMS = {
    ("binary", 24, 1): (16777216, 201326592, 201326592, 201326592, 192937984, 385875968),
    ("binary", 12, 2): (16777216, 150994944, 150994944, 50331648, 138412032, 184549376),
    ("binary", 8, 3): (16777216, 117440512, 117440512, 16777216, 102760448, 117440512),
    ("naf", 24, 1): (16777216, 141674268, 141674268, 277756132, 136081863, 402653184),
    ("naf", 12, 2): (16777216, 123030490, 123030490, 95073318, 113711635, 201326592),
    ("naf", 8, 3): (16777216, 107528626, 107528626, 43466318, 95751621, 134217728),
    ("wllc", 24, 1): (16777215, 145258522, 147002958, 274171853, 139092543, 402653160),
    ("wllc", 12, 2): (16777215, 126048016, 129061132, 92055779, 117230092, 201326580),
    ("wllc", 8, 3): (16777215, 109347976, 113312288, 41646959, 99459279, 134217720),
}


def test_exhaustive_union_sums_at_the_cap_are_frozen():
    for (name, length, dimension), sums in UNION_SUMS.items():
        case = (RecodingScheme(name), length, dimension)
        assert six_sums(case[0], length, ex._exhaustive_sums(*case)) == sums, case
        if name == "naf":
            stacked = (RecodingScheme.STACKED_NAF, length, dimension)
            counted = ex._exhaustive_sums(*stacked)
            assert six_sums(stacked[0], length, counted) == sums, stacked


def test_wllc_row_counts_equal_the_supports():
    for length in range(1, 15):
        counts, twos = ex._wllc_row_counts(length)
        masks = [recoding._wllc_support(n, length) for n in range(1 << length)]
        assert counts == [
            sum(support >> j & 1 for support, _ in masks) for j in range(length + 1)
        ], length
        assert twos == sum(two.bit_count() for _, two in masks), length
        # Digit 0 is the only one of magnitude 2.
        assert all(two in (0, 1) for _, two in masks)


def wllc_row_counts_by_field(length):
    """ex._wllc_row_counts as it summed its popcount fields one at a time."""
    field = length + 1
    columns = ex._column_counts(ex.naf_transducer, length, any, 1 << field)
    light, strict = range(length // 2 + 1), range((length + 1) // 2)

    def rows(column, popcounts):
        return sum(column >> field * c & (1 << field) - 1 for c in popcounts)

    counts = [rows(column, light) + rows(column, strict) for column in columns]
    heavy = sum(ex._binomial(length, c) for c in strict)
    counts[-1] += heavy - 2 * rows(columns[-1], strict)
    threes = sum(ex._binomial(length - 2, c - 2) for c in strict)
    counts[0] += heavy - rows(columns[0], strict) - threes
    twos = sum(ex._binomial(length - 2, c - 1) for c in strict)
    return counts, twos


def test_wllc_row_counts_equal_the_field_by_field_sums():
    for length in (*range(1, 41), 255, 256, 257):
        assert ex._wllc_row_counts(length) == wllc_row_counts_by_field(length), length


def test_exhaustive_sjsf_leaves_the_nibble_table_unbuilt():
    recoding._sjsf_nibble_table.cache_clear()
    ex.exhaustive_stats(RecodingScheme.SJSF, 8)
    assert recoding._sjsf_nibble_table.cache_info().currsize == 0


def test_exhaustive_stats_recodes_no_row(monkeypatch):
    # The sums are counted: no scheme recodes a row or runs the per-pair
    # metric, whatever the length and dimension.
    def recoded(*args):
        raise AssertionError("an exhaustive count recoded a row")

    for name in ("_wllc_support", "_naf_support", "_sjsf_weight_top"):
        monkeypatch.setattr(ex, name, recoded)
    assert ex.exhaustive_stats(RecodingScheme.WLLC, 8, dimension=3).samples == (1 << 24) - 1
    assert ex.exhaustive_stats(RecodingScheme.NAF, 12, dimension=2).samples == 1 << 24
    assert ex.exhaustive_stats(RecodingScheme.SJSF, 12).samples == 1 << 24


def test_cost_slope_reports_both_lengths():
    report = ex.cost_slope(
        RecodingScheme.WLLC, base_length=24, samples=400, seed=3, workers=2
    )
    assert report.low.length == 24
    assert report.high.length == 48
    low_total = report.low.mean_multiplications + report.low.mean_squarings
    high_total = report.high.mean_multiplications + report.high.mean_squarings
    assert report.slope == pytest.approx((high_total - low_total) / 24)
    assert 1.3 < report.slope < 1.8


def test_cost_slope_reports_normalized_arguments():
    report = ex.cost_slope(RecodingScheme.WLLC, 24.0, 10, 1.0)
    assert (report.base_length, report.seed, report.samples) == (24, 1, 10)
    assert type(report.base_length) is int and type(report.seed) is int
    assert report.base_length == report.low.length
    assert report.seed == report.low.seed


def test_compare_schemes_never_favors_the_complement_form():
    comparison = ex.compare_schemes(length=24, samples=800, seed=5, workers=2)
    assert comparison.samples == 800
    assert comparison.violations == 0
    assert comparison.min_margin >= 0


def test_compare_schemes_rejects_invalid_arguments():
    with pytest.raises(ValueError):
        ex.compare_schemes(length=8, samples=0, seed=1)
    with pytest.raises(ValueError):
        ex.compare_schemes(length=0, samples=5, seed=1)
    with pytest.raises(ValueError):
        ex.compare_schemes(length=8, samples=5, seed=1, workers=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            ex.compare_schemes(length=8, samples=3, seed=seed)
    with pytest.raises(ValueError, match=r"^length 8.5 is not an integer$"):
        ex.compare_schemes(length=8.5, samples=3, seed=1)
    assert ex.compare_schemes(8.0, 3.0, 1.0) == ex.compare_schemes(8, 3, 1)


def test_sjsf_reports_do_not_depend_on_workers():
    # Dropping the cached table makes each worker build its own.
    recoding._sjsf_nibble_table.cache_clear()
    pooled_slope = ex.cost_slope(
        RecodingScheme.SJSF, base_length=20, samples=300, seed=8, workers=2
    )
    pooled_comparison = ex.compare_schemes(length=20, samples=300, seed=8, workers=2)
    assert pooled_slope == ex.cost_slope(
        RecodingScheme.SJSF, base_length=20, samples=300, seed=8, workers=1
    )
    assert pooled_comparison == ex.compare_schemes(
        length=20, samples=300, seed=8, workers=1
    )


def test_complement_bit_probabilities_frozen_values():
    report = ex.complement_bit_probabilities(4)
    assert report.samples == 16
    assert report.zero_probability[0] == Fraction(11, 16)
    assert all(p == Fraction(11, 16) for p in report.zero_probability)

    pair_report = ex.complement_bit_probabilities(2)
    assert pair_report.zero_probability == (Fraction(3, 4), Fraction(3, 4))
    assert pair_report.pair_zero_probability[(0, 1)] == Fraction(1, 2)

    single = ex.complement_bit_probabilities(1)
    assert single.zero_probability == (Fraction(1),)
    assert single.pair_zero_probability == {}


def complement_bit_probabilities_by_words(length):
    """(zero probabilities, pair zero probabilities) summed word by word."""
    full = (1 << length) - 1
    zero_masks = []
    for n in range(1 << length):
        word = n ^ full if 2 * bin(n).count("1") > length else n
        zero_masks.append(~word & full)
    total = 1 << length
    singles = tuple(
        Fraction(sum((z >> i) & 1 for z in zero_masks), total) for i in range(length)
    )
    pairs = {
        (i, j): Fraction(sum((z >> i) & (z >> j) & 1 for z in zero_masks), total)
        for i in range(length)
        for j in range(i + 1, length)
    }
    return singles, pairs


def test_complement_bit_probabilities_match_word_by_word_sums():
    for length in range(1, 17):
        report = ex.complement_bit_probabilities(length)
        assert report.samples == 1 << length
        if length <= 12:
            singles, pairs = complement_bit_probabilities_by_words(length)
            assert list(report.pair_zero_probability.items()) == list(pairs.items())
        else:
            singles = complement_zero_probabilities_by_words(length)
        assert report.zero_probability == singles
        assert all(type(p) is Fraction for p in report.zero_probability)


def complement_zero_probabilities_by_words(length):
    """The zero probabilities alone, summed word by word."""
    full = (1 << length) - 1
    zeros = [0] * length
    for n in range(1 << length):
        word = n ^ full if 2 * n.bit_count() > length else n
        for i in range(length):
            zeros[i] += not word >> i & 1
    return tuple(Fraction(z, 1 << length) for z in zeros)


def test_complement_bit_probabilities_bounds():
    with pytest.raises(ValueError):
        ex.complement_bit_probabilities(0)
    with pytest.raises(ValueError):
        ex.complement_bit_probabilities(17)
    for bad in (4.5, "4"):
        with pytest.raises(ValueError, match=f"^length {bad!r} is not an integer$"):
            ex.complement_bit_probabilities(bad)
    assert ex.complement_bit_probabilities(4.0) == ex.complement_bit_probabilities(4)


def test_complement_bit_probabilities_names_the_bound_it_breaks():
    for short in (0, -1, -17):
        with pytest.raises(ValueError, match="^length must be positive$"):
            ex.complement_bit_probabilities(short)
    with pytest.raises(ValueError, match="^exhaustive bit probabilities capped at length 16$"):
        ex.complement_bit_probabilities(17)


def test_json_serialization_shape():
    record = next(
        iter(
            ex.run_stats(
                ex.RunConfig(
                    seed=1, samples=50, lengths=(10,), scheme=RecodingScheme.BINARY
                )
            )
        )
    )
    data = json.loads(ex.record_to_json_line(record))
    assert list(data) == list(ex.STAT_FIELDS)
    assert data["scheme"] == "binary"
    assert data["samples"] == 50
    assert round(record.mean_weight, 6) == data["mean_weight"]


def test_csv_serialization_shape():
    record = ex.exhaustive_stats(RecodingScheme.NAF, 4, dimension=1)
    header = ex.csv_header().split(",")
    row = ex.record_to_csv_row(record).split(",")
    assert header == list(ex.STAT_FIELDS)
    assert len(row) == len(header)
    assert row[header.index("length")] == "4"
    mean_weight = row[header.index("mean_weight")]
    assert len(mean_weight.split(".")[1]) == 6


def test_serialized_records_are_pinned():
    record = ex.exhaustive_stats(RecodingScheme.SJSF, 8)
    assert ex.record_to_json_line(record) == (
        '{"experiment": "exhaustive", "length": 8, "dimension": 2, "scheme": "sjsf", '
        '"samples": 65536, "mean_weight": 4.685242, "mean_weight1": 4.685242, '
        '"mean_zeros": 4.314758, "mean_multiplications": 4.186813, '
        '"mean_squarings": 8.0, "std_error": 0.0, "seed": 0}'
    )
    record = ex.exhaustive_stats(RecodingScheme.WLLC, 6)
    assert ex.record_to_csv_row(record) == (
        "exhaustive,6,2,wllc,4095,4.099389,4.249573,2.900611,3.583639,6.000000,0.000000,0"
    )


# ---------------------------------------------------------------------------
# The draw cache: a process rereads kept draws, and every record is the one
# a cold run gives.


def fixture_runs(samples, seed, workers=1):
    """The acceptance fixtures' calls at a small budget, by name."""
    wllc, sjsf = RecodingScheme.WLLC, RecodingScheme.SJSF
    d3 = ex.RunConfig(seed, samples, (256,), wllc, 3, workers)
    return {
        "wllc_slope": lambda: ex.cost_slope(wllc, 256, samples, seed, workers=workers),
        "sjsf_slope": lambda: ex.cost_slope(sjsf, 256, samples, seed, workers=workers),
        "compare_256": lambda: ex.compare_schemes(256, samples, seed, workers),
        "compare_512": lambda: ex.compare_schemes(512, samples, seed, workers),
        "d3": lambda: list(ex.run_stats(d3)),
    }


def cold(run):
    ex._DRAW_CACHE.clear()
    return run()


def charged(cache):
    """The bytes a draw cache should count as held."""
    return sum(ex._kept_bytes(bits) for bits, _ in cache.values())


def test_warm_draws_give_the_cold_records():
    runs = fixture_runs(40, 7)
    want = {name: cold(run) for name, run in runs.items()}
    ex._DRAW_CACHE.clear()
    warm = {name: run() for name, run in runs.items()}
    assert warm == want
    # Every index is kept once, at 1024 bits; a second pass draws nothing.
    assert {kept for kept, _ in ex._DRAW_CACHE.values()} == {1024}
    assert len(ex._DRAW_CACHE) == 40
    assert ex._DRAW_CACHE.held == charged(ex._DRAW_CACHE)
    kept = dict(ex._DRAW_CACHE)
    assert {name: run() for name, run in runs.items()} == want
    assert ex._DRAW_CACHE == kept


def test_odd_length_runs_keep_one_draw_per_index():
    # Lengths 100 and 200 read their vectors from one draw per index, 224
    # bits (200 rounded up to a multiple of 32) per component, kept for
    # rereading like the draws of any other length.
    config = ex.RunConfig(4, 50, (100, 200), RecodingScheme.NAF, 2)
    want = cold(lambda: list(ex.run_stats(config)))
    assert {kept for kept, _ in ex._DRAW_CACHE.values()} == {2 * 224}
    assert len(ex._DRAW_CACHE) == 50
    assert ex._DRAW_CACHE.held == charged(ex._DRAW_CACHE)
    kept = dict(ex._DRAW_CACHE)
    assert list(ex.run_stats(config)) == want
    assert ex._DRAW_CACHE == kept
    ex._DRAW_CACHE.clear()


def test_draws_at_widths_768_1024_768():
    d3 = ex.RunConfig(3, 30, (256,), RecodingScheme.WLLC, 3)
    pair = ex.RunConfig(3, 30, (256, 512), RecodingScheme.WLLC, 2)
    want = {768: cold(lambda: list(ex.run_stats(d3))),
            1024: cold(lambda: list(ex.run_stats(pair)))}
    ex._DRAW_CACHE.clear()
    widest = 0
    for config, bits in ((d3, 768), (pair, 1024), (d3, 768)):
        assert list(ex.run_stats(config)) == want[bits]
        # A wider request replaces the kept draw; a narrower one rereads it.
        widest = max(widest, bits)
        assert {kept for kept, _ in ex._DRAW_CACHE.values()} == {widest}
        assert len(ex._DRAW_CACHE) == 30
        assert ex._DRAW_CACHE.held == charged(ex._DRAW_CACHE)
    for bits in (768, 1024, 768):
        for index, draw in zip(range(30), ex._draws(3, range(30), bits)):
            stream = random.Random(ex.derive_sample_seed(3, index))
            assert draw & (1 << bits) - 1 == stream.getrandbits(bits)


def test_draw_cache_holds_no_more_than_its_bound(monkeypatch):
    runs = fixture_runs(12, 11)
    want = {name: cold(run) for name, run in runs.items()}
    draw = ex._kept_bytes(1024)
    held = bounded_draws(monkeypatch, 5 * draw)
    ex._DRAW_CACHE.clear()
    for _ in range(2):
        assert {name: run() for name, run in runs.items()} == want
    # The bound was reached, and draws were kept again after each drop.
    assert max(held) == 5 * draw and held.count(draw) > 1


def bounded_draws(monkeypatch, bound):
    """Set the draw cache's bound, draw one index per _draws call, and
    check the bound after every call; returns the held count after each."""
    monkeypatch.setattr(ex, "_DRAW_CACHE_BYTES", bound)
    monkeypatch.setattr(ex, "_DRAW_BLOCK_BYTES", 1)
    draws = ex._draws
    held = []

    def checked(seed, indices, bits):
        assert len(indices) == 1
        out = draws(seed, indices, bits)
        cache = ex._DRAW_CACHE
        assert cache.held == charged(cache) <= bound
        held.append(cache.held)
        return out

    monkeypatch.setattr(ex, "_draws", checked)
    return held


def test_narrow_draws_are_bounded_in_bytes(monkeypatch):
    # At 32 bits the entry, not the draw, is most of what a kept draw
    # costs, and the bound still holds in bytes.
    config = ex.RunConfig(5, 60, (32,), RecodingScheme.BINARY, 1)
    want = cold(lambda: list(ex.run_stats(config)))
    draw = ex._kept_bytes(32)
    assert ex._DRAW_ENTRY_BYTES > draw // 2
    held = bounded_draws(monkeypatch, 10 * draw)
    ex._DRAW_CACHE.clear()
    assert list(ex.run_stats(config)) == want
    assert held == [draw * (1 + i % 10) for i in range(60)]


def test_held_bytes_cover_what_kept_draws_cost():
    # What tracemalloc sees a full cache take stays within its held count,
    # at the narrowest and the widest fixture width.
    for bits in (32, 1024):
        ex._DRAW_CACHE.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ex._draws(9, range(3000), bits)
            taken = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ex._DRAW_CACHE) == 3000
        assert 0 < taken <= ex._DRAW_CACHE.held
    ex._DRAW_CACHE.clear()


def test_pooled_runs_match_in_process_runs_on_a_warm_cache():
    want = {name: cold(run) for name, run in fixture_runs(30, 12).items()}
    ex._DRAW_CACHE.clear()
    # The first pass warms the cache; the pool's workers start with it.
    for workers in (1, 3, 1):
        runs = fixture_runs(30, 12, workers)
        assert {name: run() for name, run in runs.items()} == want


def reference_comparison(length, samples, seed):
    """compare_schemes's (violations, min_margin), per index from
    sample_exponents and the digit-level recoders."""
    diffs = []
    for index in range(samples):
        exps, _ = ex.sample_exponents(seed, index, length, 2, nonzero=True)
        costs = [
            sum(reference_metrics(exps, length, scheme)[3:])
            for scheme in (RecodingScheme.WLLC, RecodingScheme.SJSF)
        ]
        diffs.append(costs[0] - costs[1])
    return sum(d < 0 for d in diffs), min(diffs)


class ZeroFirstStream(random.Random):
    """A stream whose first draw after seeding reads as 0."""

    def seed(self, *args, **kwargs):
        super().seed(*args, **kwargs)
        self.drawn = False

    def getrandbits(self, k):
        bits = super().getrandbits(k)
        first, self.drawn = not self.drawn, True
        return 0 if first else bits


def test_compare_schemes_matches_per_index_sampling(monkeypatch):
    for length in (8, 33, 64, 96, 256):
        got = ex.compare_schemes(length, 25, 6)
        assert (got.violations, got.min_margin) == reference_comparison(length, 25, 6)
    # Every slice all-zero: each index is redrawn by sample_exponents.
    monkeypatch.setattr(ex.random, "Random", ZeroFirstStream)
    for length in (64, 256):
        got = ex.compare_schemes(length, 10, 6)
        assert (got.violations, got.min_margin) == reference_comparison(length, 10, 6)


def test_run_config_rejects_a_vector_wider_than_a_draw_block(monkeypatch):
    cap = ex._DRAW_BITS_CAP

    def never(*args):
        raise AssertionError(f"drew {args}")

    monkeypatch.setattr(ex, "derive_sample_seed", never)
    ex._DRAW_CACHE.clear()
    # Exactly one block is allowed.
    ex.RunConfig(0, 1, (cap // 2, 8), RecodingScheme.NAF, 2)
    wide = cap // 2 + 32
    message = (
        rf"^dimension 2 x length {wide} = {2 * wide} bits exceeds the {cap} "
        rf"bits of one draw block$"
    )
    with pytest.raises(ValueError, match=message):
        ex.RunConfig(0, 1, (8, wide), RecodingScheme.NAF, 2)
    with pytest.raises(ValueError, match=message):
        ex.compare_schemes(wide, 1, 0)
    with pytest.raises(ValueError, match=message):
        ex.cost_slope(RecodingScheme.SJSF, wide // 2, 1, 0)
    with pytest.raises(ValueError, match=r"^dimension 3 x length"):
        ex.cost_slope(RecodingScheme.WLLC, cap // 4, 1, 0, dimension=3)
    assert (len(ex._DRAW_CACHE), ex._DRAW_CACHE.held) == (0, 0)


def test_draw_blocks_hold_at_most_a_block_of_bytes(monkeypatch):
    # A block holds at most _DRAW_BLOCK_BYTES of draws charged as the
    # cache charges them, or one draw if that is more; runs of a few
    # blocks at each width cross block edges.
    draws = ex._draws
    sizes = []

    def checked(seed, indices, bits):
        bound = max(ex._DRAW_BLOCK_BYTES, ex._kept_bytes(bits))
        assert len(indices) * ex._kept_bytes(bits) <= bound, (bits, len(indices))
        sizes.append(len(indices))
        return draws(seed, indices, bits)

    monkeypatch.setattr(ex, "_draws", checked)
    for length in (32, 64, 256, 512, 1024):
        block = ex._DRAW_BLOCK_BYTES // ex._kept_bytes(length)
        config = ex.RunConfig(3, 2 * block + 1, (length,), RecodingScheme.BINARY, 1)
        del sizes[:]
        (record,) = ex.run_stats(config)
        assert sizes == [block, block, 1], length
        assert record == reference_record(config, length)


def test_exhaustive_sums_at_length_16_equal_enumeration():
    for scheme in RecodingScheme:
        if scheme is not RecodingScheme.SJSF:
            case = (scheme, 16, 1)
            assert ex._exhaustive_sums(*case) == enumerated_sums(*case), case


def test_wide_vectors_read_from_the_draws_bytes_match_per_index_sampling():
    # In each run at dimension 300 the 32-bit vectors are shifted out of
    # the draws cut to their bits, and the wider ones, past
    # _SHIFT_READ_BITS, are read from their bytes: the 77- and 100-bit ones
    # at a stride of 96 and 128 bits, their top words shifted.  The
    # 999-bit vectors at dimension 17 are read from bytes too.
    assert 32 * 300 <= ex._SHIFT_READ_BITS < 64 * 300
    assert ex._SHIFT_READ_BITS < 1024 * 17
    for dimension, lengths in ((300, (32, 64, 77, 100)), (17, (999,))):
        for scheme in (RecodingScheme.BINARY, RecodingScheme.NAF, RecodingScheme.WLLC):
            config = ex.RunConfig(21, 4, lengths, scheme, dimension)
            for record, length in zip(ex.run_stats(config), lengths, strict=True):
                assert record == reference_record(config, length)
        # So many rows leave almost no column zero, so the records hardly
        # see the vectors: compare the vectors too, each block's and each
        # index's.
        ex._DRAW_CACHE.clear()
        for block in ex._sample_blocks(21, lengths, dimension, False, 0, 4):
            for length, vectors in zip(lengths, block, strict=True):
                assert list(vectors) == [
                    ex.sample_exponents(21, i, length, dimension) for i in range(4)
                ], length


def binary_metrics(exps, length, scheme):
    """reference_metrics of a binary vector by integer arithmetic: its
    nonzero columns are the union of its rows' bits."""
    assert scheme is RecodingScheme.BINARY
    union = 0
    for n in exps:
        union |= n
    weight = union.bit_count()
    return weight, weight, length - weight, weight - (union >> length - 1), length - 1


def test_the_widest_accepted_vector_is_read_in_linear_time():
    # One draw block of 32-bit components, 2**18 of them: a shift per
    # component copied the whole megabyte draw each time, over 100 s.
    dimension = ex._DRAW_BITS_CAP // 32
    config = ex.RunConfig(0, 2, (32,), RecodingScheme.BINARY, dimension)
    ex._DRAW_CACHE.clear()
    start = time.perf_counter()
    (record,) = ex.run_stats(config)
    assert time.perf_counter() - start < 10
    ex._DRAW_CACHE.clear()
    assert record == reference_record(config, 32, binary_metrics)


@pytest.mark.parametrize("dimension", [512, 1024])
def test_short_vectors_are_read_from_much_wider_draws_in_linear_time(dimension):
    # 32-bit vectors, shifted out at dimension 512 and read from bytes at
    # 1024, sliced from one-block draws 512 or 256 times wider: within a
    # run at the cap's length too, and from draws a run at that length
    # alone left kept.  Shifting the whole draw per component took about
    # 0.2 s a sample at dimension 512, over 10 s in all; this takes 0.5 s.
    assert 32 * 512 <= ex._SHIFT_READ_BITS < 32 * 1024
    wide = ex._DRAW_BITS_CAP // dimension
    multi = ex.RunConfig(5, 32, (32, wide), RecodingScheme.BINARY, dimension)
    short = ex.RunConfig(5, 32, (32,), RecodingScheme.BINARY, dimension)
    ex._DRAW_CACHE.clear()
    start = time.perf_counter()
    records = list(ex.run_stats(multi))
    kept = list(ex.run_stats(short))
    assert time.perf_counter() - start < 5
    ex._DRAW_CACHE.clear()
    assert records[0] == kept[0] == reference_record(short, 32, binary_metrics)
    assert records[1] == reference_record(multi, wide, binary_metrics)
