"""Exhaustive and randomized invariant suites behind `digitkit verify`.

Each check re-runs an invariant the library modules already promise,
over a desk-scale input window, and reports pass/fail with verbatim
counterexamples.  No new mathematics lives here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .expansions import JointExpansion, binary
from .multiexp import AdditiveGroup, MERSENNE61, ModGroup, evaluate, precompute
from .recoding import (
    RecodingScheme,
    is_sjsf,
    min_joint_weight_oracle,
    min_weight1_oracle,
    naf,
    naf_complement_weight_gap,
    recode_joint,
    sjsf,
    wllc_recode,
)
from .transducer import (
    RationalMatrix,
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
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            cases += 1
            minimal = min_weight1_oracle(m, n).minimal_cost
            got = sjsf(m, n).joint_weight()
            if minimal != got:
                bad.append(f"m={m} n={n} oracle={minimal} sjsf={got}")
    details = f"minimal weight1 equals joint sparse form weight on {cases} pairs"
    return _report("thm1", cases, details, bad)


def check_complement_weight_gap(max_length: int = 14) -> CheckReport:
    """|weight(naf(v)) - weight(naf(complement v))| is at most 2 over all
    binary words up to the given length; the observed maximum and one
    witness word are reported."""
    bad: list[str] = []
    cases = 0
    max_gap = -1
    witness = ""
    for length in range(1, max_length + 1):
        for value in range(1 << length):
            cases += 1
            word = binary(value, length)
            gap = abs(naf_complement_weight_gap(word))
            if gap > max_gap:
                max_gap = gap
                witness = str(word)
            if gap > 2:
                bad.append(f"word={word} gap={gap}")
    details = f"max gap {max_gap} (witness {witness}) over {cases} words"
    return _report("thm2", cases, details, bad)


def check_sjsf_optimality(
    max_n: int = 255, random_pairs: int = 10_000, seed: int = 0
) -> CheckReport:
    """The joint sparse form is syntactically valid, value-preserving,
    and joint-weight minimal over two-row {-1,0,1} expansions."""
    bad: list[str] = []
    cases = 0
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            cases += 1
            joint = sjsf(m, n)
            if not is_sjsf(joint):
                bad.append(f"m={m} n={n}: syntax violation")
                continue
            minimal = min_joint_weight_oracle(m, n).minimal_cost
            if joint.joint_weight() != minimal:
                bad.append(
                    f"m={m} n={n} weight={joint.joint_weight()} oracle={minimal}"
                )
    rng = random.Random(seed)
    for _ in range(random_pairs):
        m, n = rng.getrandbits(64), rng.getrandbits(64)
        cases += 1
        joint = sjsf(m, n)
        if joint.values() != (m, n) or not is_sjsf(joint):
            bad.append(f"m={m} n={n}: round-trip or syntax failure")
    details = (
        f"optimality on {(max_n + 1) ** 2} pairs, "
        f"round-trip on {random_pairs} random 64-bit pairs"
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
            top = 1 if any(joint.column(len(joint) - 1)) else 0
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
    for length in range(1, max_length + 1):
        full = (1 << length) - 1
        for value in range(1 << length):
            cases += 1
            bits = tuple((value >> i) & 1 for i in range(length))
            out = machine.run(bits)
            first, second = (row.trimmed() for row in out.rows)
            if first != naf(value) or second != naf(full - value):
                bad.append(f"length={length} value={value}: output mismatch")
    details = (
        f"matrix, distributions, and recoded outputs over words up to "
        f"length {max_length} ({cases} cases)"
    )
    return _report("transducer", cases, details, bad)


def check_wllc_vs_naf(max_length: int = 14) -> CheckReport:
    """weight1 of the complement-aware recoding never beats the plain
    non-adjacent form weight of the same integer."""
    bad: list[str] = []
    cases = 0
    for length in range(1, max_length + 1):
        for n in range(1 << length):
            cases += 1
            row = wllc_recode(n, length)
            weight1 = JointExpansion((row,)).weight1()
            reference = naf(n).weight()
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
_BOUND_CAPS = {"max_n": 511, "max_length": 20, "random_pairs": 10**6, "instances": 10**6}


def run_check(name: str, **bounds: int) -> CheckReport:
    try:
        check = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}") from None
    for bound, value in bounds.items():
        cap = _BOUND_CAPS.get(bound)
        if cap is not None and value > cap:
            raise ValueError(f"{bound} = {value} exceeds its cap of {cap}")
    return check(**bounds)
