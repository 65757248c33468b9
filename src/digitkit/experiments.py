"""Monte Carlo and exhaustive statistics for the recoding schemes.

Every experiment is driven by per-sample seeds derived from (run seed,
sample index) with BLAKE2b, so results are independent of worker count
and chunking: the multiset of samples for a given seed is always the
same.  run_stats and compare_schemes read their vectors from one draw
per index, and the process keeps recent draws, up to a fixed number of
bytes, for later runs over the same streams to reread (_draws); records
are the same whether a draw is fresh or kept.  Per-sample metrics build
no expansion objects and state no digit rule: the NAF, complement-aware
and joint sparse form metrics take their position masks and column counts
from the private helpers in recoding that naf, wllc_recode and sjsf are
built on.  Exhaustive statistics count instead of enumerating vectors or
rows: walks of the transducers (transducer._column_counts), one marked by
popcount for the complement-aware scheme, and binomials.

Sampled and exhaustive statistics both sum weight, weight1 and top (1
when the top column is nonzero); _record alone derives the rest at the
width _width states (length+1 columns for signed schemes, their maximum;
length for binary): zeros = width - weight, and the evaluator identities
multiplications = weight1 - top and squarings = width - 1 per sample.
"""

from __future__ import annotations

# hashlib's blake2b comes from _blake2 (never from OpenSSL); importing
# hashlib itself also loads the OpenSSL-backed _hashlib, a few ms of every
# CLI start.
from _blake2 import blake2b
import json
import math
import os
import random
import struct
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Callable, Iterable, Iterator, get_type_hints

from .expansions import _integer, _integers
from .recoding import RecodingScheme, _naf_support, _sjsf_weight_top, _wllc_support
from .transducer import _column_counts, naf_transducer, sjsf_transducer

# A record prints its vector count 2**(dimension * length), and CPython prints
# no int of over 4300 digits (2**8192 has 2467).  WLLC's count grows as length**4.
_EXHAUSTIVE_BITS_BOUND = 8192
_EXHAUSTIVE_WLLC_LENGTH_BOUND = 512  # 3.2 s to count (2-CPU Xeon, Python 3.11)
_BIT_PROBABILITY_LENGTH_BOUND = 16
# Bytes of draws a run holds at once, whatever its lengths and dimension.
_DRAW_BLOCK_BYTES = 1 << 20
# The widest vector (bits) _vectors shifts out; both reads cost alike at 8k-32k.
# Below, shifts win: bytes at every width cut montecarlo work_per_s 13% (Xeon).
_SHIFT_READ_BITS = 1 << 14
# The most bits one sampled vector (dimension x length) may hold: one block.
_DRAW_BITS_CAP = 8 * _DRAW_BLOCK_BYTES
# Bytes a process keeps of draws for rereading (see _draws), a kept draw
# counted as its int's size plus _DRAW_ENTRY_BYTES: 10**5 draws of 1024
# bits, a run at lengths (256, 512) in dimension 2, fit (about 42 MB).
_DRAW_CACHE_BYTES = 48 << 20
# What keeping a draw costs besides the draw: its key tuple, 64-bit stream
# seed, (bits, draw) tuple and dict slot, which tracemalloc reads as 170 to
# 200 bytes in CPython.
_DRAW_ENTRY_BYTES = 256


def _check_draw_bits(dimension: int, length: int) -> None:
    """Reject a sampled vector wider than one draw block."""
    bits = dimension * length
    if bits > _DRAW_BITS_CAP:
        raise ValueError(
            f"dimension {dimension} x length {length} = {bits} bits "
            f"exceeds the {_DRAW_BITS_CAP} bits of one draw block"
        )


def _check_scheme(scheme: RecodingScheme, dimension: int) -> None:
    """Reject anything but a RecodingScheme, and SJSF outside dimension 2."""
    if not isinstance(scheme, RecodingScheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme is RecodingScheme.SJSF and dimension != 2:
        raise ValueError("the joint sparse form is two-dimensional")


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
        for name in ("seed", "samples", "dimension", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "lengths", _integers("length", self.lengths))
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        _check_scheme(self.scheme, self.dimension)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _check_draw_bits(self.dimension, max(self.lengths))


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

_FLOAT_FIELDS = frozenset(
    name for name, kind in get_type_hints(StatRecord).items() if kind is float
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
    try:
        packed = struct.pack("<QQ", seed, index)
    except struct.error:
        raise ValueError("seed and index must be integers in [0, 2**64)") from None
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "little")


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

    This defines the sample stream.  CPython's Mersenne Twister fills
    getrandbits(k) with 32-bit words, least significant first, and shifts
    its last word right by the bits of that word k leaves unused.  So with
    stride = length rounded up to a multiple of 32, component j is the
    stride bits of getrandbits(k) from j*stride, its top word shifted right
    by stride - length, for any k >= dimension * stride from the same seed.
    run_stats and compare_schemes read their vectors so from one draw per
    index (see _draws, which keeps the draws for rereading); only a vector
    that needs a redraw is sampled here.  A nonzero vector needs length
    and dimension of at least 1.
    """
    length, dimension = _integer("length", length), _integer("dimension", dimension)
    if nonzero and (length < 1 or dimension < 1):
        raise ValueError("a nonzero vector needs length and dimension of at least 1")
    rng = random.Random(derive_sample_seed(seed, index))
    exps = tuple(rng.getrandbits(length) for _ in range(dimension))
    redraws = 0
    while nonzero and not any(exps):
        exps = tuple(rng.getrandbits(length) for _ in range(dimension))
        redraws += 1
    return exps, redraws


# ---------------------------------------------------------------------------
# Arithmetic per-sample metrics.


def _width(scheme: RecodingScheme, length: int) -> int:
    """The columns counted: length for binary, length + 1 for signed schemes."""
    return length if scheme is RecodingScheme.BINARY else length + 1


def _scheme_metrics(
    exps: tuple[int, ...], length: int, scheme: RecodingScheme
) -> tuple[int, int, int]:
    """(weight, weight1, top: 1 if column _width - 1 is nonzero) of one
    sample; outside SJSF the nonzero columns are the union of the row supports."""
    if scheme is RecodingScheme.SJSF:
        weight, top = _sjsf_weight_top(exps[0], exps[1], length)
        return weight, weight, top
    union = deep = 0
    if scheme is RecodingScheme.WLLC:
        for n in exps:
            support, two = _wllc_support(n, length)
            union |= support
            deep |= two
    elif scheme is RecodingScheme.BINARY:
        for n in exps:
            union |= n
    else:  # NAF, STACKED_NAF
        for n in exps:
            union |= _naf_support(n)
    weight = union.bit_count()
    return weight, weight + deep, union >> (_width(scheme, length) - 1) & 1


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

    The pool is never larger than the chunk count or the CPU count: under
    the fork start method it starts all of its workers at the first
    submit.  Results do not depend on its size.  The pool module is
    imported here, as it pulls in multiprocessing, which an in-process run
    never needs.
    """
    pool_size = min(workers, len(chunk_args), os.cpu_count() or 1)
    if pool_size == 1:
        return [fn(args) for args in chunk_args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, chunk_args))


def _accumulate(
    draws: Iterable[tuple[tuple[int, ...], int]], length: int, scheme: RecodingScheme
) -> tuple[int, ...]:
    """Running sums over (exponent vector, redraws) draws.

    In order: count, weight, weight1, top (see _scheme_metrics), weight1
    squared, redraws.
    """
    count = sum_w = sum_w1 = sum_top = sum_w1_sq = redraws = 0
    for exps, r in draws:
        w, w1, top = _scheme_metrics(exps, length, scheme)
        count += 1
        sum_w += w
        sum_w1 += w1
        sum_top += top
        sum_w1_sq += w1 * w1
        redraws += r
    return count, sum_w, sum_w1, sum_top, sum_w1_sq, redraws


def _kept_bytes(bits: int) -> int:
    """What keeping a draw of bits costs the process, in bytes, at most."""
    return _DRAW_ENTRY_BYTES + sys.getsizeof((1 << bits) - 1)


class _DrawCache(dict):
    """(generator class, stream seed) -> (bits, getrandbits(bits)), holding
    at most _DRAW_CACHE_BYTES bytes at every width; `held` is the sum of
    _kept_bytes(bits) over its draws."""

    held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0


_DRAW_CACHE = _DrawCache()


def _draws(seed: int, indices: range, bits: int) -> list[int]:
    """getrandbits(bits) of each index's stream, or a wider draw of it,
    whose low bits are the same when bits is a multiple of 32 (see
    sample_exponents).

    Draws are kept in _DRAW_CACHE under (generator class, stream seed),
    the class read from random at call time, and reread by any later
    request no wider.  Misses reseed one generator through its own seed
    method.  Each process keeps its own draws: a pool's workers fill and
    drop theirs.
    """
    generator = random.Random
    cache = _DRAW_CACHE
    cost = _kept_bytes(bits)
    held = cache.held
    rng = None
    out = []
    try:
        for index in indices:
            key = generator, derive_sample_seed(seed, index)
            kept = cache.get(key)
            if kept is not None:
                if kept[0] >= bits:
                    out.append(kept[1])
                    continue
                held -= _kept_bytes(kept[0])  # replaced below
            if rng is None:
                rng = generator()
            rng.seed(key[1])
            draw = rng.getrandbits(bits)
            out.append(draw)
            held += cost
            if held > _DRAW_CACHE_BYTES:
                # Drop every kept draw; the draws after this one are kept anew.
                cache.clear()
                held = cost
            cache[key] = bits, draw
    finally:
        cache.held = held
    return out


def _vectors(
    seed: int, indices: range, draws: list[int], length: int, dimension: int,
    nonzero: bool,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """sample_exponents(seed, index, length, dimension, nonzero) of every
    index, read from its draw (see _draws) by the rule sample_exponents
    states.  The draw is cut to the vector's bits, shifted out up to
    _SHIFT_READ_BITS and read from bytes past that; an all-zero vector
    under the redraw rule is sampled alone (the redraw continues that
    stream).
    """
    stride = 32 * -(-length // 32)
    bits, size, gap = dimension * stride, stride // 8, stride - length
    wide, cut, mask = bits > _SHIFT_READ_BITS, (1 << bits) - 1, (1 << stride) - 1
    # Masks of a component's words below its top one and of its shifted top word.
    low, high = (1 << stride - 32) - 1, (1 << length) - (1 << stride - 32)
    shifts, offsets = range(stride, bits, stride), range(0, bits // 8, size)
    for index, draw in zip(indices, draws):
        draw &= cut
        if wide:
            data = draw.to_bytes(bits // 8, "little")
            exps = [int.from_bytes(data[k:k + size], "little") for k in offsets]
        else:
            exps = [draw & mask]
            for k in shifts:
                exps.append(draw >> k & mask)
        if gap:
            exps = [n & low | n >> gap & high for n in exps]
        if nonzero and not any(exps):
            yield sample_exponents(seed, index, length, dimension, nonzero)
        else:
            yield tuple(exps), 0


def _sample_blocks(
    seed: int, lengths: tuple[int, ...], dimension: int, nonzero: bool,
    start: int, stop: int,
) -> Iterator[list[Iterator[tuple[tuple[int, ...], int]]]]:
    """Each length's _vectors over each block of the indices [start, stop),
    drawn as run_stats describes; a block holds at least one index and at
    most _DRAW_BLOCK_BYTES of draws charged as _kept_bytes."""
    bits = dimension * 32 * -(-max(lengths) // 32)
    block = max(1, _DRAW_BLOCK_BYTES // _kept_bytes(bits))
    for a in range(start, stop, block):
        indices = range(a, min(a + block, stop))
        draws = _draws(seed, indices, bits)
        yield [_vectors(seed, indices, draws, l, dimension, nonzero) for l in lengths]


def _stats_chunk(
    args: tuple[int, RecodingScheme, tuple[int, ...], int, int, int]
) -> list[tuple[int, ...]]:
    """_accumulate's sums at each length over the indices [start, stop)."""
    seed, scheme, lengths, dimension, start, stop = args
    nonzero = scheme is RecodingScheme.WLLC
    sums = [(0,) * 6 for _ in lengths]
    for block in _sample_blocks(seed, lengths, dimension, nonzero, start, stop):
        for k, (length, vectors) in enumerate(zip(lengths, block)):
            sums[k] = tuple(map(add, sums[k], _accumulate(vectors, length, scheme)))
    return sums


def _std_error(sums: tuple[int, ...]) -> float:
    count, total, total_sq = sums[0], sums[2], sums[4]
    if count < 2:
        return 0.0
    variance = (total_sq - total * total / count) / (count - 1)
    return math.sqrt(max(variance, 0.0) / count)


def _record(
    experiment: str, length: int, dimension: int, scheme: RecodingScheme,
    sums: tuple[int, ...], seed: int, std_error: float,
) -> StatRecord:
    count, sum_w, sum_w1, sum_top = sums[:4]
    width = _width(scheme, length)
    return StatRecord(
        experiment=experiment,
        length=length,
        dimension=dimension,
        scheme=scheme.value,
        samples=count,
        mean_weight=sum_w / count,
        mean_weight1=sum_w1 / count,
        mean_zeros=(count * width - sum_w) / count,
        mean_multiplications=(sum_w1 - sum_top) / count,
        mean_squarings=count * (width - 1) / count,
        std_error=std_error,
        seed=seed,
    )


def run_stats(config: RunConfig, experiment: str = "stats") -> Iterator[StatRecord]:
    """One StatRecord per configured length; deterministic given the seed.

    The run goes over the sample indices once for all lengths.  Each index
    is drawn once, at the longest length rounded up to a multiple of 32, or
    read from a kept draw at least as wide (see _draws), and every length
    reads its vector from that draw; a vector that is all-zero under the
    WLLC redraw rule falls back to sample_exponents.  Either way sample i
    at length L is sample_exponents(seed, i, L, dimension), so the records
    do not depend on which lengths share the run, on workers, nor on what
    the process drew before.
    """
    chunk_args = [
        (config.seed, config.scheme, config.lengths, config.dimension, a, b)
        for a, b in _chunk_bounds(config.samples, config.workers)
    ]
    parts = _map_chunks(_stats_chunk, chunk_args, config.workers)
    for length, per_chunk in zip(config.lengths, zip(*parts)):
        sums = tuple(sum(values) for values in zip(*per_chunk))
        if sums[5]:
            import logging  # only a run that redrew has anything to log

            logging.getLogger(__name__).info(
                "length %d: redrew the all-zero exponent vector %d time(s)",
                length,
                sums[5],
            )
        yield _record(
            experiment, length, config.dimension, config.scheme, sums,
            config.seed, _std_error(sums),
        )


def _binomial(n: int, k: int) -> int:
    """C(n, k), and 0 outside 0 <= k <= n, where math.comb may raise."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _wllc_row_counts(length: int) -> tuple[list[int], int]:
    """(counts, twos): counts[j] rows n < 2**length have bit j in their
    WLLC support (_wllc_support), and twos rows a magnitude-2 digit (only
    digit 0 can be one), counted without recoding a row.

    A light row recodes as naf(n).  A heavy row recodes naf(-m), m its
    complement, which has naf(m)'s support but at the ends, and the heavy
    rows' complements are the strictly light rows.  So one walk of
    naf_transducer marked by popcount counts both.  At the ends of a heavy
    row the top digit is flipped, and digit 0 is nonzero unless m = 3 mod 4
    and has magnitude 2 iff m = 1 mod 4: binomials count those m.
    """
    field = length + 1  # every count is below 2**field
    columns = _column_counts(naf_transducer, length, any, 1 << field)
    light, strict = range(length // 2 + 1), range((length + 1) // 2)

    def rows(column: int, popcounts: range) -> int:
        # The fields below len(popcounts), summed modulo 2**field - 1: 2**field
        # is 1 there, and no sum (at most 2**length) reaches the modulus.
        return (column & (1 << field * len(popcounts)) - 1) % ((1 << field) - 1)

    counts = [rows(column, light) + rows(column, strict) for column in columns]
    heavy = sum(_binomial(length, c) for c in strict)
    counts[-1] += heavy - 2 * rows(columns[-1], strict)
    threes = sum(_binomial(length - 2, c - 2) for c in strict)
    counts[0] += heavy - rows(columns[0], strict) - threes
    twos = sum(_binomial(length - 2, c - 1) for c in strict)
    return counts, twos


def _exhaustive_sums(
    scheme: RecodingScheme, length: int, dimension: int
) -> tuple[int, int, int, int]:
    """_accumulate's first four sums (count, weight, weight1, top) over
    every vector in [0, 2**length)**dimension, counted without enumerating
    the vectors; WLLC leaves out the all-zero one.

    Outside SJSF the columns are the union of independent row supports, so
    with N = 2**length rows and c rows having bit j set, N**D - (N - c)**D
    vectors have bit j in their union.  Summed over j that is the weight;
    the magnitude-2 rows give the deep columns and the last bit the top.
    The all-zero vector has an empty union, so dropping it changes only the
    count.  The rows per position are counted, not recoded: 2**(length-1)
    for binary, and a walk of naf_transducer() for the others
    (_wllc_row_counts).  SJSF reads its nonzero columns per position from
    the walk of sjsf_transducer(), whose column `length` is the top.
    """
    vectors = 1 << dimension * length
    if scheme is RecodingScheme.SJSF:
        columns = _column_counts(sjsf_transducer, length, any)
        weight = weight1 = sum(columns)
        top = columns[length]
    else:
        twos = 0
        if scheme is RecodingScheme.BINARY:
            counts = [1 << length - 1] * length
        elif scheme is RecodingScheme.WLLC:
            counts, twos = _wllc_row_counts(length)
        else:  # NAF, STACKED_NAF
            counts = _column_counts(naf_transducer, length, any)

        def covered(c: int) -> int:
            return vectors - ((1 << length) - c) ** dimension

        weight = sum(map(covered, counts))
        weight1 = weight + covered(twos)
        top = covered(counts[-1])
    return vectors - (scheme is RecodingScheme.WLLC), weight, weight1, top


def exhaustive_stats(
    scheme: RecodingScheme,
    length: int,
    dimension: int = 2,
) -> StatRecord:
    """Exact means over every exponent vector in [0, 2**length)**dimension.

    The complement-aware scheme skips the all-zero vector (its common
    length is undefined there), matching the Monte Carlo redraw rule.

    The sums are counted, not enumerated, and equal those of running the
    per-sample metrics on every vector.  The union schemes (binary, NAF,
    stacked NAF, WLLC) count, per position, the rows whose support has
    it, without recoding a row; SJSF sums the nonzero columns of its
    transducer over the chain, in time linear in length.  dimension *
    length is capped at 8192, and WLLC's length at 512.
    """
    length = _integer("length", length)
    dimension = _integer("dimension", dimension)
    if length < 1 or dimension < 1:
        raise ValueError("length and dimension must be positive")
    if dimension * length > _EXHAUSTIVE_BITS_BOUND:
        raise ValueError(
            f"exhaustive mode capped at 2**{_EXHAUSTIVE_BITS_BOUND} vectors"
        )
    if scheme is RecodingScheme.WLLC and length > _EXHAUSTIVE_WLLC_LENGTH_BOUND:
        raise ValueError(f"exhaustive wllc capped at length {_EXHAUSTIVE_WLLC_LENGTH_BOUND}")
    _check_scheme(scheme, dimension)
    sums = _exhaustive_sums(scheme, length, dimension)
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
    """Growth of the mean total cost per bit between base_length and twice it.

    Both lengths are sampled in one run_stats pass, so each index is
    seeded and drawn once, and both vectors are read from that draw.
    """
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
    base_length = config.lengths[0]
    return SlopeReport(
        scheme=scheme.value,
        dimension=config.dimension,
        base_length=base_length,
        samples=config.samples,
        seed=config.seed,
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
    violations, margin = 0, math.inf  # a chunk holds at least one index
    for (vectors,) in _sample_blocks(seed, (length,), 2, True, start, stop):
        for exps, _ in vectors:
            # Both schemes are counted at length + 1 columns (_width), so
            # their squarings cancel and the costs differ by multiplications.
            _, w1_w, top_w = _scheme_metrics(exps, length, RecodingScheme.WLLC)
            _, w1_s, top_s = _scheme_metrics(exps, length, RecodingScheme.SJSF)
            diff = (w1_w - top_w) - (w1_s - top_s)
            if diff < margin:
                margin = diff
            violations += diff < 0
    return violations, margin


def compare_schemes(
    length: int, samples: int, seed: int, workers: int = 1
) -> SchemeComparison:
    # Checks seed, samples, length and workers as every run does.
    config = RunConfig(seed, samples, (length,), RecodingScheme.WLLC, 2, workers)
    (length,) = config.lengths
    chunk_args = [
        (config.seed, length, a, b)
        for a, b in _chunk_bounds(config.samples, config.workers)
    ]
    parts = _map_chunks(_compare_chunk, chunk_args, config.workers)
    return SchemeComparison(
        length=length,
        samples=config.samples,
        seed=config.seed,
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
    length = _integer("length", length)
    if length < 1:
        raise ValueError("length must be positive")
    if length > _BIT_PROBABILITY_LENGTH_BOUND:
        raise ValueError(
            f"exhaustive bit probabilities capped at length "
            f"{_BIT_PROBABILITY_LENGTH_BOUND}"
        )
    # A word with c one bits is complemented when heavy (2c > length).  So
    # bit i is 0 afterwards on C(length - 1, c) light words (bit i of n is
    # 0) and on C(length - 1, c - 1) heavy ones (bit i of n is 1), at every
    # position alike; a pair of bits likewise, with length - 2 and c - 2.
    total = 1 << length
    heavy = [2 * c > length for c in range(length + 1)]
    single = sum(_binomial(length - 1, c - h) for c, h in enumerate(heavy))
    pair = sum(_binomial(length - 2, c - 2 * h) for c, h in enumerate(heavy))
    singles = (Fraction(single, total),) * length
    pairs = dict.fromkeys(combinations(range(length), 2), Fraction(pair, total))
    return ComplementBitReport(length, total, singles, pairs)
