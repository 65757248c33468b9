"""Monte Carlo and exhaustive statistics for the recoding schemes.

Every experiment is driven by per-sample seeds derived from (run seed,
sample index) with BLAKE2b, so results are independent of worker count
and chunking: the multiset of samples for a given seed is always the
same.  Per-sample metrics build no expansion objects and state no
digit rule: the NAF, complement-aware and joint sparse form metrics take
their position masks and column counts from the private helpers in
recoding that naf, wllc_recode and sjsf are built on.

Column statistics use a fixed width: signed schemes are measured at
length+1 columns (their maximum), the binary scheme at length columns.
With that convention mean_zeros + mean_weight is exactly the width, and
the evaluator identities give multiplications = weight1 - [top column
nonzero] and squarings = width - 1 per sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Iterable, Iterator

from .recoding import RecodingScheme, _naf_support, _sjsf_weight_top, _wllc_support

_EXHAUSTIVE_BITS_BOUND = 24
_BIT_PROBABILITY_LENGTH_BOUND = 16


@dataclass(frozen=True)
class RunConfig:
    """One reproducible experiment: scheme, lengths, sample budget, seed."""

    seed: int
    samples: int
    lengths: tuple[int, ...]
    scheme: RecodingScheme
    dimension: int = 2
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.scheme is RecodingScheme.SJSF and self.dimension != 2:
            raise ValueError("the joint sparse form is two-dimensional")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class StatRecord:
    """Aggregated metrics of one (length, scheme) experiment."""

    experiment: str
    length: int
    dimension: int
    scheme: str
    samples: int
    mean_weight: float
    mean_weight1: float
    mean_zeros: float
    mean_multiplications: float
    mean_squarings: float
    std_error: float
    seed: int


STAT_FIELDS = tuple(f.name for f in fields(StatRecord))

_FLOAT_FIELDS = (
    "mean_weight",
    "mean_weight1",
    "mean_zeros",
    "mean_multiplications",
    "mean_squarings",
    "std_error",
)


def record_to_json_line(record: StatRecord) -> str:
    data = asdict(record)
    for key in _FLOAT_FIELDS:
        data[key] = round(data[key], 6)
    return json.dumps(data)


def csv_header() -> str:
    return ",".join(STAT_FIELDS)


def record_to_csv_row(record: StatRecord) -> str:
    data = asdict(record)
    cells = []
    for key in STAT_FIELDS:
        value = data[key]
        cells.append(f"{value:.6f}" if key in _FLOAT_FIELDS else str(value))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# Sampling.


def derive_sample_seed(seed: int, index: int) -> int:
    """Stable 64-bit stream seed for one sample, independent of worker layout."""
    digest = hashlib.blake2b(
        struct.pack("<QQ", seed, index), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def sample_exponents(
    seed: int,
    index: int,
    length: int,
    dimension: int,
    nonzero: bool = False,
) -> tuple[tuple[int, ...], int]:
    """Uniform exponent vector on [0, 2**length) per component.

    With nonzero=True the all-zero vector is redrawn from the same stream;
    the second return value counts how often that happened.
    """
    rng = random.Random(derive_sample_seed(seed, index))
    exps = tuple(rng.getrandbits(length) for _ in range(dimension))
    redraws = 0
    while nonzero and not any(exps):
        exps = tuple(rng.getrandbits(length) for _ in range(dimension))
        redraws += 1
    return exps, redraws


# ---------------------------------------------------------------------------
# Arithmetic per-sample metrics.


def _scheme_metrics(
    exps: tuple[int, ...], length: int, scheme: RecodingScheme
) -> tuple[int, int, int, int, int]:
    """(weight, weight1, zeros, multiplications, squarings) of one sample;
    outside SJSF the nonzero columns are the union of the row supports."""
    width = length if scheme is RecodingScheme.BINARY else length + 1
    if scheme is RecodingScheme.SJSF:
        if len(exps) != 2:
            raise ValueError("the joint sparse form is two-dimensional")
        weight, top = _sjsf_weight_top(exps[0], exps[1], length)
        return weight, weight, width - weight, weight - top, width - 1
    union = deep = 0
    if scheme is RecodingScheme.WLLC:
        for n in exps:
            support, two = _wllc_support(n, length)
            union |= support
            deep |= two
    elif scheme is RecodingScheme.BINARY:
        for n in exps:
            union |= n
    elif scheme in (RecodingScheme.NAF, RecodingScheme.STACKED_NAF):
        for n in exps:
            union |= _naf_support(n)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    weight = union.bit_count()
    weight1 = weight + deep
    top = (union >> (width - 1)) & 1
    return weight, weight1, width - weight, weight1 - top, width - 1


# ---------------------------------------------------------------------------
# Statistics runs.


def _chunk_bounds(samples: int, workers: int) -> list[tuple[int, int]]:
    if workers == 1:
        return [(0, samples)]
    step = max(1, -(-samples // (workers * 4)))
    return [(a, min(a + step, samples)) for a in range(0, samples, step)]


def _map_chunks(
    fn: Callable[[tuple], tuple], chunk_args: list[tuple], workers: int
) -> list[tuple]:
    """fn applied to every chunk, in order; pooled when workers and chunks are > 1.

    The pool is never larger than the chunk count: under the fork start
    method it starts all of its workers at the first submit.  The pool
    module is imported here, as it pulls in multiprocessing, which an
    in-process run never needs.
    """
    pool_size = min(workers, len(chunk_args))
    if pool_size == 1:
        return [fn(args) for args in chunk_args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, chunk_args))


def _accumulate(
    draws: Iterable[tuple[tuple[int, ...], int]], length: int, scheme: RecodingScheme
) -> tuple[int, ...]:
    """Running sums over (exponent vector, redraws) draws.

    In order: count, weight, weight1, zeros, multiplications, squarings,
    weight1 squared, redraws.
    """
    count = sum_w = sum_w1 = sum_z = sum_m = sum_s = sum_w1_sq = redraws = 0
    for exps, r in draws:
        w, w1, z, m, s = _scheme_metrics(exps, length, scheme)
        count += 1
        sum_w += w
        sum_w1 += w1
        sum_z += z
        sum_m += m
        sum_s += s
        sum_w1_sq += w1 * w1
        redraws += r
    return count, sum_w, sum_w1, sum_z, sum_m, sum_s, sum_w1_sq, redraws


def _stats_chunk(args: tuple[int, str, int, int, int, int]) -> tuple[int, ...]:
    seed, scheme_name, length, dimension, start, stop = args
    scheme = RecodingScheme(scheme_name)
    nonzero = scheme is RecodingScheme.WLLC
    draws = (
        sample_exponents(seed, index, length, dimension, nonzero)
        for index in range(start, stop)
    )
    return _accumulate(draws, length, scheme)


def _std_error(sums: tuple[int, ...]) -> float:
    count, total, total_sq = sums[0], sums[2], sums[6]
    if count < 2:
        return 0.0
    variance = (total_sq - total * total / count) / (count - 1)
    return math.sqrt(max(variance, 0.0) / count)


def _record(
    experiment: str, length: int, dimension: int, scheme: RecodingScheme,
    sums: tuple[int, ...], seed: int, std_error: float,
) -> StatRecord:
    count, sum_w, sum_w1, sum_z, sum_m, sum_s = sums[:6]
    return StatRecord(
        experiment=experiment,
        length=length,
        dimension=dimension,
        scheme=scheme.value,
        samples=count,
        mean_weight=sum_w / count,
        mean_weight1=sum_w1 / count,
        mean_zeros=sum_z / count,
        mean_multiplications=sum_m / count,
        mean_squarings=sum_s / count,
        std_error=std_error,
        seed=seed,
    )


def run_stats(config: RunConfig, experiment: str = "stats") -> Iterator[StatRecord]:
    """One StatRecord per configured length; deterministic given the seed."""
    for length in config.lengths:
        chunk_args = [
            (config.seed, config.scheme.value, length, config.dimension, a, b)
            for a, b in _chunk_bounds(config.samples, config.workers)
        ]
        parts = _map_chunks(_stats_chunk, chunk_args, config.workers)
        sums = tuple(sum(values) for values in zip(*parts))
        if sums[7]:
            import logging  # only a run that redrew has anything to log

            logging.getLogger(__name__).info(
                "length %d: redrew the all-zero exponent vector %d time(s)",
                length,
                sums[7],
            )
        yield _record(
            experiment, length, config.dimension, config.scheme, sums,
            config.seed, _std_error(sums),
        )


def exhaustive_stats(
    scheme: RecodingScheme,
    length: int,
    dimension: int = 2,
) -> StatRecord:
    """Exact means over every exponent vector in [0, 2**length)**dimension.

    The complement-aware scheme skips the all-zero vector (its common
    length is undefined there), matching the Monte Carlo redraw rule.
    """
    if length < 1 or dimension < 1:
        raise ValueError("length and dimension must be positive")
    if dimension * length > _EXHAUSTIVE_BITS_BOUND:
        raise ValueError(
            f"exhaustive mode capped at 2**{_EXHAUSTIVE_BITS_BOUND} vectors"
        )
    if scheme is RecodingScheme.SJSF and dimension != 2:
        raise ValueError("the joint sparse form is two-dimensional")
    skip_zero = scheme is RecodingScheme.WLLC
    draws = (
        (exps, 0)
        for exps in iter_product(range(1 << length), repeat=dimension)
        if any(exps) or not skip_zero
    )
    sums = _accumulate(draws, length, scheme)
    return _record("exhaustive", length, dimension, scheme, sums, seed=0, std_error=0.0)


# ---------------------------------------------------------------------------
# Derived experiments.


@dataclass(frozen=True)
class SlopeReport:
    """Per-length growth of the total operation count, measured at a
    length pair (L, 2L) so constant offsets cancel."""

    scheme: str
    dimension: int
    base_length: int
    samples: int
    seed: int
    low: StatRecord
    high: StatRecord
    slope: float


def cost_slope(
    scheme: RecodingScheme,
    base_length: int,
    samples: int,
    seed: int,
    dimension: int = 2,
    workers: int = 1,
) -> SlopeReport:
    config = RunConfig(
        seed=seed,
        samples=samples,
        lengths=(base_length, 2 * base_length),
        scheme=scheme,
        dimension=dimension,
        workers=workers,
    )
    low, high = tuple(run_stats(config, "slope"))
    total_low = low.mean_multiplications + low.mean_squarings
    total_high = high.mean_multiplications + high.mean_squarings
    return SlopeReport(
        scheme=scheme.value,
        dimension=dimension,
        base_length=base_length,
        samples=samples,
        seed=seed,
        low=low,
        high=high,
        slope=(total_high - total_low) / base_length,
    )


@dataclass(frozen=True)
class SchemeComparison:
    """Per-sample total-cost comparison of the complement-aware recoding
    against the joint sparse form on identical exponent pairs."""

    length: int
    samples: int
    seed: int
    violations: int
    min_margin: int


def _compare_chunk(args: tuple[int, int, int, int]) -> tuple[int, int]:
    seed, length, start, stop = args
    violations = 0
    margin: int | None = None
    for index in range(start, stop):
        exps, _ = sample_exponents(seed, index, length, 2, nonzero=True)
        _, _, _, m_w, s_w = _scheme_metrics(exps, length, RecodingScheme.WLLC)
        _, _, _, m_s, s_s = _scheme_metrics(exps, length, RecodingScheme.SJSF)
        diff = (m_w + s_w) - (m_s + s_s)
        if margin is None or diff < margin:
            margin = diff
        if diff < 0:
            violations += 1
    assert margin is not None
    return violations, margin


def compare_schemes(
    length: int, samples: int, seed: int, workers: int = 1
) -> SchemeComparison:
    # Checks seed, samples, length and workers as every run does.
    RunConfig(seed, samples, (length,), RecodingScheme.WLLC, 2, workers)
    chunk_args = [
        (seed, length, a, b) for a, b in _chunk_bounds(samples, workers)
    ]
    parts = _map_chunks(_compare_chunk, chunk_args, workers)
    return SchemeComparison(
        length=length,
        samples=samples,
        seed=seed,
        violations=sum(p[0] for p in parts),
        min_margin=min(p[1] for p in parts),
    )


@dataclass(frozen=True)
class ComplementBitReport:
    """Exact bit-level zero probabilities after conditional complementing.

    A uniform word of the given length is replaced by its ones' complement
    when more than half of its digits are 1.  zero_probability[i] is
    P(digit i = 0) of the resulting word (positions least significant
    first); pair_zero_probability[(i, j)] is P(digit i = 0 and digit j = 0).
    """

    length: int
    samples: int
    zero_probability: tuple[Fraction, ...]
    pair_zero_probability: dict[tuple[int, int], Fraction]


def complement_bit_probabilities(length: int) -> ComplementBitReport:
    if not 1 <= length <= _BIT_PROBABILITY_LENGTH_BOUND:
        raise ValueError(
            f"exhaustive bit probabilities capped at length "
            f"{_BIT_PROBABILITY_LENGTH_BOUND}"
        )
    # Sets of words n < 2**length as bitsets over n: by_weight[c] holds the
    # words with c one bits (Pascal's rule, one bit position at a time).
    total = 1 << length
    by_weight = [1]
    for i in range(length):
        by_weight = [
            low | high << (1 << i) for low, high in zip(by_weight + [0], [0] + by_weight)
        ]
    heavy = sum(by_weight[c] for c in range(length + 1) if 2 * c > length)
    # zeros[i]: the words whose bit i is 0 after complementing.  Bit i of n
    # is 0 on runs of 2**i words every 2**(i + 1); complementing flips the
    # heavy words.
    every = (1 << total) - 1
    zeros = [
        every // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) ^ heavy
        for i in range(length)
    ]
    singles = tuple(Fraction(z.bit_count(), total) for z in zeros)
    pairs = {
        (i, j): Fraction((zeros[i] & zeros[j]).bit_count(), total)
        for i in range(length)
        for j in range(i + 1, length)
    }
    return ComplementBitReport(length, total, singles, pairs)
