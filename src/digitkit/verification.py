"""Exhaustive and randomized invariant suites behind `digitkit verify`.

Each check re-runs an invariant the library modules already promise,
over a desk-scale input window, and reports pass/fail with verbatim
counterexamples.  No new mathematics lives here.

The three checks that enumerate every binary word (thm2, transducer and
wllc-vs-naf) spend one step per word on bit masks, not on expansion
objects: thm2 (recoding._complement_gap) and wllc-vs-naf compare popcounts
of the recoders' masks, and transducer walks the product machine over the
prefix tree of the words, so each word costs one transition and one flush
from its prefix.  So these checks test the recoders' masks (_naf_support,
_wllc_support and the _negative_mask that naf and wllc_recode build their
rows with), not the expansions; the tests tie those masks to naf,
wllc_recode and JointExpansion.weight1 word by word.

The two pair checks read each pair of their windows in one walk:
recoding._read_window reads the SJSF table and an oracle's DP table in
step, in (m, n) order, and yields the SJSF row supports and the oracle's
minimum.  thm1 compares the joint weight of the supports, top column
included, with _WEIGHT1's minimum; the sjsf check's window tests the
supports with _sjsf_syntax, the core of is_sjsf, and their joint weight
against _JOINT_WEIGHT's minimum.  Only the sjsf check's random 64-bit
pairs build expansions, through the public sjsf, is_sjsf, values and
joint_weight, and read the DP through cost().
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .expansions import _encode, _integer, binary
from .multiexp import AdditiveGroup, MERSENNE61, ModGroup, evaluate, precompute
from .recoding import (
    RecodingScheme,
    is_sjsf,
    recode_joint,
    sjsf,
    _JOINT_WEIGHT,
    _WEIGHT1,
    _complement_gap,
    _naf_support,
    _negative_mask,
    _read_window,
    _sjsf_syntax,
    _wllc_support,
)
from .transducer import (
    OutputWord,
    RationalMatrix,
    Transducer,
    _walk,
    double_naf_transducer,
    state_distribution,
    stationary_distribution,
    transition_matrix,
    zero_output_probability,
)

_COUNTEREXAMPLE_CAP = 20


@dataclass(frozen=True)
class CheckReport:
    check: str
    passed: bool
    cases: int
    details: str
    counterexamples: tuple[str, ...] = field(default=())


def _report(
    check: str, cases: int, details: str, bad: list[str]
) -> CheckReport:
    shown = tuple(bad[:_COUNTEREXAMPLE_CAP])
    if len(bad) > _COUNTEREXAMPLE_CAP:
        details += f"; {len(bad)} counterexamples, first {_COUNTEREXAMPLE_CAP} shown"
    return CheckReport(check, not bad, cases, details, shown)


def check_weight1_minimality(max_n: int = 63) -> CheckReport:
    """Joint weight of the joint sparse form matches the minimal weight1
    over all two-row {-2..2} expansions, pair by pair."""
    bad: list[str] = []
    cases = 0
    for m, n, s1, s2, minimal in _read_window(max_n, _WEIGHT1):
        cases += 1
        # The read reaches past the top column, so the supports hold it.
        weight = (s1 | s2).bit_count()
        if minimal != weight:
            bad.append(f"m={m} n={n} oracle={minimal} sjsf={weight}")
    details = f"minimal weight1 equals joint sparse form weight on {cases} pairs"
    return _report("thm1", cases, details, bad)


def check_complement_weight_gap(max_length: int = 14) -> CheckReport:
    """|weight(naf(v)) - weight(naf(complement v))| is at most 2 over all
    binary words up to the given length; the observed maximum and one
    witness word are reported."""
    bad: list[str] = []
    cases = 0
    max_gap = -1
    witness = None
    for length in range(1, max_length + 1):
        cases += 1 << length
        for value in range(1 << length):
            gap = abs(_complement_gap(value, length))
            if gap > max_gap:
                max_gap = gap
                witness = (value, length)
            if gap > 2:
                bad.append(f"word={binary(value, length)} gap={gap}")
    shown = binary(*witness) if witness else ""
    details = f"max gap {max_gap} (witness {shown}) over {cases} words"
    return _report("thm2", cases, details, bad)


def check_sjsf_optimality(
    max_n: int = 255, random_pairs: int = 10_000, seed: int = 0
) -> CheckReport:
    """The joint sparse form is syntactically valid, value-preserving,
    and joint-weight minimal over two-row {-1,0,1} expansions."""
    bad: list[str] = []
    cases = 0
    for m, n, s1, s2, minimal in _read_window(max_n, _JOINT_WEIGHT):
        cases += 1
        if not _sjsf_syntax(s1, s2):
            bad.append(f"m={m} n={n}: syntax violation")
            continue
        weight = (s1 | s2).bit_count()
        if weight != minimal:
            bad.append(f"m={m} n={n} weight={weight} oracle={minimal}")
    window = cases
    rng = random.Random(seed)
    for _ in range(random_pairs):
        m, n = rng.getrandbits(64), rng.getrandbits(64)
        cases += 1
        joint = sjsf(m, n)
        if joint.values() != (m, n) or not is_sjsf(joint):
            bad.append(f"m={m} n={n}: round-trip or syntax failure")
            continue
        minimal = _JOINT_WEIGHT.cost(m, n)
        if joint.joint_weight() != minimal:
            bad.append(f"m={m} n={n} weight={joint.joint_weight()} optimum={minimal}")
    details = (
        f"optimality on {window} pairs and {random_pairs} random "
        f"64-bit pairs, round-trip on the random pairs"
    )
    return _report("sjsf", cases, details, bad)


def _random_instance(rng: random.Random) -> tuple[int, tuple[int, int]]:
    length = rng.randint(1, 64)
    while True:
        exps = (rng.getrandbits(length), rng.getrandbits(length))
        if any(exps):
            return length, exps


def check_cost_model(instances: int = 1000, seed: int = 0) -> CheckReport:
    """Evaluator operation counts follow the expansion exactly
    (multiplications = weight1 - [top column nonzero], squarings =
    columns - 1) and results agree with independent arithmetic in a
    prime-field group and in integer addition."""
    bad: list[str] = []
    cases = 0
    rng = random.Random(seed)
    mod = ModGroup(MERSENNE61)
    add = AdditiveGroup()
    bases = (mod.element(2), mod.element(3))
    table = precompute(bases, mod)
    add_table = precompute((5, 7), add)
    for scheme in RecodingScheme:
        for _ in range(instances):
            cases += 1
            length, exps = _random_instance(rng)
            if scheme is RecodingScheme.WLLC:
                joint = recode_joint(exps, scheme, length=length)
            else:
                joint = recode_joint(exps, scheme)
            weight1 = joint.weight1()
            top = joint._masks()[0] >> (len(joint) - 1) & 1
            tag = f"scheme={scheme.value} exps={exps} length={length}"

            got, counter = evaluate(joint, table, mod)
            want = (
                pow(2, exps[0], MERSENNE61) * pow(3, exps[1], MERSENNE61)
            ) % MERSENNE61
            if got != want:
                bad.append(f"{tag}: modular result {got} != {want}")
                continue
            if counter.multiplications != weight1 - top:
                bad.append(
                    f"{tag}: multiplications {counter.multiplications} "
                    f"!= weight1-top {weight1 - top}"
                )
            if counter.squarings != len(joint) - 1:
                bad.append(
                    f"{tag}: squarings {counter.squarings} != {len(joint) - 1}"
                )

            got_add, _ = evaluate(joint, add_table, add)
            if got_add != 5 * exps[0] + 7 * exps[1]:
                bad.append(f"{tag}: additive result {got_add}")
    details = f"exact counts and cross-checked results on {cases} instances"
    return _report("cost-model", cases, details, bad)


def _expected_transition_matrix() -> RationalMatrix:
    half = Fraction(1, 2)
    zero = Fraction(0)
    rows = (
        (zero, half, half, zero, zero, zero),
        (zero, zero, half, half, zero, zero),
        (zero, half, zero, zero, half, zero),
        (zero, zero, zero, half, zero, half),
        (zero, zero, zero, zero, half, half),
        (zero, zero, zero, half, half, zero),
    )
    return RationalMatrix(tuple(str(i) for i in range(1, 7)), rows)


# A row's (support, negative, two) masks.
_Masks = tuple[int, int, int]


def _naf_masks(n: int) -> _Masks:
    """The masks of naf(n), as recoding._row sets them."""
    support = _naf_support(n)
    return support, _negative_mask(support, n), 0


def _flushed_outputs(
    machine: Transducer, max_length: int
) -> Iterator[tuple[int, int, _Masks, _Masks]]:
    """(length, value, first row, second row) for every binary word of length
    1..max_length: the (support, negative, two) masks of the two rows that
    machine.run emits on the word's bits, least significant first.

    The walk goes depth first over the prefix tree of the words with an
    explicit stack.  A word is its prefix plus one top letter, so it costs
    one transition and one flush from the prefix's masks, and the stack
    holds at most max_length + 1 prefixes.
    """

    def encoded(word: OutputWord) -> tuple[int, ...]:
        """The word's width, then each row's masks, its first column at bit 0."""
        first, second = zip(*word) if word else ((), ())
        return (len(word), *_encode(first), *_encode(second))

    steps = {
        state: [
            (target, *encoded(word))
            for target, word in (machine.transitions[(state, b)] for b in (0, 1))
        ]
        for state in machine.states
    }
    flush = {state: encoded(word) for state, word in machine.flush.items()}
    # (prefix length, state, value, output width, the six row masks)
    stack = [(0, machine.initial, 0, 0, 0, 0, 0, 0, 0, 0)] if max_length > 0 else []
    while stack:
        depth, state, value, at, s1, n1, t1, s2, n2, t2 = stack.pop()
        top = 1 << depth
        depth += 1
        for b, (target, width, a1, b1, c1, a2, b2, c2) in enumerate(steps[state]):
            v, end = value | top * b, at + width
            x1, y1, z1 = s1 | a1 << at, n1 | b1 << at, t1 | c1 << at
            x2, y2, z2 = s2 | a2 << at, n2 | b2 << at, t2 | c2 << at
            _, f1, g1, h1, f2, g2, h2 = flush[target]
            yield (
                depth,
                v,
                (x1 | f1 << end, y1 | g1 << end, z1 | h1 << end),
                (x2 | f2 << end, y2 | g2 << end, z2 | h2 << end),
            )
            if depth < max_length:
                stack.append((depth, target, v, end, x1, y1, z1, x2, y2, z2))


def check_transducer(max_length: int = 14) -> CheckReport:
    """The product machine's transition matrix, state distributions, and
    stationary distribution match their exact rational values, and its
    outputs agree with recoding a word and its complement separately."""
    bad: list[str] = []
    cases = 0
    machine = double_naf_transducer()
    p = transition_matrix(machine)
    expected = _expected_transition_matrix()
    cases += 1
    if p != expected:
        bad.append(f"transition matrix differs: {p}")
    cases += 1
    pi = stationary_distribution(p)
    third = Fraction(1, 3)
    want_pi = (Fraction(0), Fraction(0), Fraction(0), third, third, third)
    if pi.weights != want_pi:
        bad.append(f"stationary distribution {pi.weights}")
    transients = [p.labels.index(s) for s in ("2", "3")]
    walk = _walk(p, state_distribution(p, 0).weights)
    for k, (numerators, denominator) in zip(range(1, 21), walk):
        cases += 1
        # numerator / denominator == 2^-k
        if any(numerators[i] << k != denominator for i in transients):
            bad.append(f"k={k}: transient components not 2^-{k}")
    for k in range(9):
        cases += 1
        if zero_output_probability(k, "markov") != zero_output_probability(
            k, "exhaustive"
        ):
            bad.append(f"k={k}: chain and enumeration disagree")
    mismatches = []
    for length, value, first, second in _flushed_outputs(machine, max_length):
        cases += 1
        full = (1 << length) - 1
        if first != _naf_masks(value) or second != _naf_masks(full - value):
            mismatches.append((length, value))
    # The walk meets the words depth first; report them by length, then value.
    for length, value in sorted(mismatches):
        bad.append(f"length={length} value={value}: output mismatch")
    details = (
        f"matrix, distributions, and recoded outputs over words up to "
        f"length {max_length} ({cases} cases)"
    )
    return _report("transducer", cases, details, bad)


def _wllc_weight1(n: int, length: int) -> int:
    """JointExpansion((wllc_recode(n, length),)).weight1(), from the masks."""
    support, two = _wllc_support(n, length)
    return support.bit_count() + two.bit_count()


def check_wllc_vs_naf(max_length: int = 14) -> CheckReport:
    """weight1 of the complement-aware recoding never beats the plain
    non-adjacent form weight of the same integer."""
    bad: list[str] = []
    cases = 0
    for length in range(1, max_length + 1):
        cases += 1 << length
        for n in range(1 << length):
            weight1 = _wllc_weight1(n, length)
            reference = _naf_support(n).bit_count()
            if weight1 < reference:
                bad.append(
                    f"length={length} n={n} weight1={weight1} naf={reference}"
                )
    details = f"per-component weight1 >= naf weight on {cases} words"
    return _report("wllc-vs-naf", cases, details, bad)


CHECKS: dict[str, Callable[..., CheckReport]] = {
    "thm1": check_weight1_minimality,
    "thm2": check_complement_weight_gap,
    "sjsf": check_sjsf_optimality,
    "cost-model": check_cost_model,
    "transducer": check_transducer,
    "wllc-vs-naf": check_wllc_vs_naf,
}


# The largest window each bound may ask for, above every default and
# acceptance window: work grows with the bounds (exponentially in max_length).
# A seed may be any 64-bit value, as the command line's --seed.
_BOUND_CAPS = {
    "max_n": 511, "max_length": 20, "random_pairs": 10**6, "instances": 10**6,
    "seed": (1 << 64) - 1,
}


def bound_names(name: str) -> tuple[str, ...]:
    """The bounds check `name` takes: its parameters, in order.
    ValueError for an unknown check."""
    try:
        check = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}") from None
    return tuple(inspect.signature(check).parameters)


def run_check(name: str, **bounds: int) -> CheckReport:
    """Run one check.  Each bound must be one the check takes and a
    positive integer within its cap (the seed may be 0); otherwise
    ValueError."""
    allowed = bound_names(name)
    for bound, value in bounds.items():
        if bound not in allowed:
            raise ValueError(f"check {name!r} does not take {bound}")
        value = bounds[bound] = _integer(bound, value)
        if value < 0:
            raise ValueError(f"{bound} = {value} is negative")
        if value == 0 and bound != "seed":
            raise ValueError(f"{bound} = 0 is not positive")
        if value > _BOUND_CAPS[bound]:
            raise ValueError(f"{bound} = {value} exceeds its cap of {_BOUND_CAPS[bound]}")
    return CHECKS[name](**bounds)
