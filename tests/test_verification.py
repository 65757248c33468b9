"""Invariant check suites at desk-scale bounds, plus report plumbing."""

import copy
import dataclasses
import inspect
import random
import re
import tracemalloc
from itertools import product

import pytest

from digitkit import recoding, verification
from digitkit.cli import _BOUND_FLAGS, main
from digitkit.expansions import JointExpansion, binary
from digitkit.multiexp import AdditiveGroup, evaluate
from digitkit.recoding import (
    RecodingScheme,
    _JOINT_WEIGHT,
    _complement_gap,
    _sjsf_supports,
    _sjsf_syntax,
    naf,
    naf_complement_weight_gap,
    recode_joint,
    sjsf,
    wllc_recode,
)
from digitkit.transducer import _walk, double_naf_transducer, zero_output_probability
from digitkit.verification import (
    CHECKS,
    CheckReport,
    _BOUND_CAPS,
    _flushed_outputs,
    _naf_masks,
    _report,
    _wllc_weight1,
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


def test_sjsf_optimality_reads_the_random_pairs_optimum():
    report = check_sjsf_optimality(max_n=3, random_pairs=50, seed=3)
    assert report.details == (
        "optimality on 16 pairs and 50 random 64-bit pairs, "
        "round-trip on the random pairs"
    )
    # Negative control on the same pairs: the optimum the check compares
    # with is below stacked NAF's joint weight somewhere, and SJSF meets it.
    rng = random.Random(3)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(50)]
    optima = [_JOINT_WEIGHT.cost(m, n) for m, n in pairs]
    stacked = [
        recode_joint(p, RecodingScheme.STACKED_NAF).joint_weight() for p in pairs
    ]
    assert any(o < w for o, w in zip(optima, stacked))
    assert optima == [sjsf(m, n).joint_weight() for m, n in pairs]


def test_pair_windows_count_the_pairs_they_read():
    # CHECKS skips run_check's bound checks, so a negative window reaches
    # the checks, and it holds no pairs.
    assert CHECKS["thm1"](max_n=-3).cases == 0
    report = CHECKS["sjsf"](max_n=-3, random_pairs=2)
    assert report.cases == 2
    assert report.details.startswith("optimality on 0 pairs and 2 random")


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


def test_bound_names_follow_check_signatures():
    for name, check in CHECKS.items():
        assert verification.bound_names(name) == tuple(inspect.signature(check).parameters)
        assert set(verification.bound_names(name)) <= _BOUND_CAPS.keys(), name
    assert verification.bound_names("sjsf") == ("max_n", "random_pairs", "seed")
    with pytest.raises(ValueError, match="^unknown check 'entropy'$"):
        verification.bound_names("entropy")


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


def test_run_check_rejects_bad_bounds():
    for name, bounds, message in (
        ("sjsf", {"max_n": 3, "random_pairs": -4}, "random_pairs = -4 is negative"),
        ("thm1", {"max_n": -1}, "max_n = -1 is negative"),
        ("thm1", {"max_n": 0}, "max_n = 0 is not positive"),
        ("thm2", {"max_length": 0}, "max_length = 0 is not positive"),
        ("sjsf", {"max_n": 3, "random_pairs": 0}, "random_pairs = 0 is not positive"),
        ("cost-model", {"instances": 0}, "instances = 0 is not positive"),
        ("transducer", {"max_length": 0}, "max_length = 0 is not positive"),
        ("wllc-vs-naf", {"max_length": 0}, "max_length = 0 is not positive"),
        ("thm1", {"max_n": 3.5}, "max_n 3.5 is not an integer"),
        ("thm2", {"max_length": "3"}, "max_length '3' is not an integer"),
        ("thm1", {"max_length": 3}, "check 'thm1' does not take max_length"),
        ("cost-model", {"max_n": 3}, "check 'cost-model' does not take max_n"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_check(name, **bounds)
    # An integral float is taken as its integer, as elsewhere.
    assert run_check("thm1", max_n=3.0) == run_check("thm1", max_n=3)


def test_run_check_checks_the_seed_like_every_bound():
    for seed, message in (
        ("x", "seed 'x' is not an integer"),
        (1.5, "seed 1.5 is not an integer"),
        (-5, "seed = -5 is negative"),
        (1 << 64, f"seed = {1 << 64} exceeds its cap of {(1 << 64) - 1}"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_check("sjsf", max_n=2, random_pairs=2, seed=seed)
    top = (1 << 64) - 1
    assert run_check("cost-model", instances=3, seed=top).passed
    assert run_check("sjsf", max_n=2, random_pairs=2, seed=3.0) == run_check(
        "sjsf", max_n=2, random_pairs=2, seed=3
    )


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


def mutant_machines():
    """The product machine with one fault each, every state still reachable
    and one recurrent class, so the chain checks run to the end."""
    machine = double_naf_transducer()
    transitions, flush = dict(machine.transitions), dict(machine.flush)
    flipped = dict(transitions)
    flipped[("6", 0)] = ("4", ((-1, -1),))  # was (1, -1)
    short = dict(flush)
    short["4"] = ((0, 0),)  # was ((0, 0), (0, 1))
    misrouted = dict(transitions)
    misrouted[("4", 1)] = ("5", ((0, 0),))  # was state 6
    return {
        "flipped digit": dataclasses.replace(machine, transitions=flipped),
        "dropped flush column": dataclasses.replace(machine, flush=short),
        "wrong target": dataclasses.replace(machine, transitions=misrouted),
    }


def masks(row):
    return row._support, row._negative, row._two


@pytest.mark.parametrize(
    "machine", [double_naf_transducer(), *mutant_machines().values()]
)
def test_flushed_outputs_equal_transducer_runs(machine):
    seen = set()
    for length, value, first, second in _flushed_outputs(machine, 8):
        rows = machine.run([(value >> i) & 1 for i in range(length)]).rows
        assert (first, second) == tuple(map(masks, rows)), (length, value)
        seen.add((length, value))
    assert seen == {(l, v) for l in range(1, 9) for v in range(1 << l)}
    assert list(_flushed_outputs(machine, 0)) == []


def test_mask_gap_and_weight1_equal_the_recoders():
    for length in range(1, 13):
        for value in range(1 << length):
            word = binary(value, length)
            assert _naf_masks(value) == masks(naf(value))
            gap = naf(value).weight() - naf((1 << length) - 1 - value).weight()
            assert _complement_gap(value, length) == gap
            assert naf_complement_weight_gap(word) == gap
            row = wllc_recode(value, length)
            assert _wllc_weight1(value, length) == JointExpansion((row,)).weight1()


def test_naf_masks_equal_naf_on_negative_integers():
    for n in range(-(1 << 10), 0):
        assert _naf_masks(n) == masks(naf(n))


@pytest.mark.parametrize("fault", sorted(mutant_machines()))
def test_mutant_machines_fail_with_words_in_order(fault, monkeypatch):
    machine = mutant_machines()[fault]
    monkeypatch.setattr(verification, "double_naf_transducer", lambda: machine)
    report = check_transducer(max_length=8)
    assert not report.passed
    # Every word, run from the start, in the order length then value.
    words = []
    for length in range(1, 9):
        full = (1 << length) - 1
        for value in range(1 << length):
            out = machine.run([(value >> i) & 1 for i in range(length)])
            first, second = (row.trimmed() for row in out.rows)
            if first != naf(value) or second != naf(full - value):
                words.append(f"length={length} value={value}: output mismatch")
    assert words
    chain = [c for c in report.counterexamples if not c.startswith("length=")]
    assert (fault == "wrong target") == bool(chain)
    bad = chain + words
    assert report == _report("transducer", 31 + 510, report.details.split(";")[0], bad)


def test_transducer_walk_memory_does_not_grow_with_the_words():
    check_transducer(max_length=2)  # the cached chain is built outside the trace
    tracemalloc.start()
    try:
        report = check_transducer(max_length=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.cases == 31 + 8190
    # Holding even one int per word of length 12 would take over 200 KB.
    assert peak < 64 * 1024


def test_pair_window_memory_does_not_grow_with_the_pairs():
    # The nibble tables are built outside the trace.
    check_weight1_minimality(max_n=1)
    check_sjsf_optimality(max_n=1, random_pairs=1)
    tracemalloc.start()
    try:
        thm1 = check_weight1_minimality(max_n=255)
        window = check_sjsf_optimality(max_n=255, random_pairs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert thm1.passed and thm1.cases == 256 ** 2
    assert window.passed and window.cases == 256 ** 2 + 1
    # A list with one entry per pair would take over 500 KB.
    assert peak < 64 * 1024


def test_sjsf_window_tests_the_supports_of_sjsf(monkeypatch):
    seen = []
    monkeypatch.setattr(
        verification, "_sjsf_syntax", lambda s1, s2: seen.append((s1, s2)) or _sjsf_syntax(s1, s2)
    )
    assert check_sjsf_optimality(max_n=23, random_pairs=1).passed
    # The random pairs go through is_sjsf, so only the window's calls are seen.
    pairs = product(range(24), repeat=2)
    assert seen == [_sjsf_supports(m, n)[1:] for m, n in pairs]


def off_by_one_results(joint, table, group):
    got, counter = evaluate(joint, table, group)
    return got + 1, counter


def off_by_one_counts(joint, table, group):
    """Right modular results, one operation too many of each kind, and a
    wrong additive result."""
    got, counter = evaluate(joint, table, group)
    counter.multiplications += 1
    counter.squarings += 1
    return got + isinstance(group, AdditiveGroup), counter


def third_step_doubled(p, weights):
    for k, (numerators, denominator) in enumerate(_walk(p, weights), 1):
        yield numerators, denominator << (k == 3)


def binary_window(limit, dp):
    """_read_window with the binary rows in place of the joint sparse form."""
    for m, n, _, _, least in recoding._read_window(limit, dp):
        yield m, n, m, n, least


def heavier_finish():
    """_JOINT_WEIGHT with a final read that adds 1."""
    dp = copy.copy(_JOINT_WEIGHT)
    dp.final = lambda state, carries=(0, 0): _JOINT_WEIGHT.final(state, carries) + 1
    return dp


# One fault per failure path of each check: (check, bounds, the name the
# check reads in digitkit.verification, its stand-in, and patterns of the
# first counterexamples).
_RANDOM_PAIR = r"m=\d+ n=\d+"
_INSTANCE = r"scheme=binary exps=\(\d+, \d+\) length=\d+"
FAULTS = {
    "thm1 heavier expansion": (
        # The binary joint weight in place of the SJSF weight.
        "thm1", {"max_n": 7}, "_read_window", binary_window,
        ["m=0 n=7 oracle=2 sjsf=3", "m=1 n=7 oracle=2 sjsf=3"],
    ),
    "thm2 gap of 3": (
        "thm2", {"max_length": 4}, "_complement_gap",
        lambda value, length: 3 if value == 5 else _complement_gap(value, length),
        ["word=101 gap=3", "word=0101 gap=3"],
    ),
    "sjsf syntax": (
        "sjsf", {"max_n": 1, "random_pairs": 1}, "_sjsf_syntax", lambda s1, s2: False,
        ["m=0 n=0: syntax violation", "m=0 n=1: syntax violation",
         "m=1 n=0: syntax violation", "m=1 n=1: syntax violation"],
    ),
    # Binary rows: (0, 3) breaks the first condition, (1, 3) only the second.
    "sjsf binary supports": (
        "sjsf", {"max_n": 3, "random_pairs": 1}, "_read_window", binary_window,
        ["m=0 n=3: syntax violation", "m=1 n=2: syntax violation",
         "m=1 n=3: syntax violation", "m=2 n=1: syntax violation",
         "m=3 n=0: syntax violation", "m=3 n=1: syntax violation",
         "m=3 n=3: syntax violation"],
    ),
    "sjsf random-pair syntax": (
        "sjsf", {"max_n": 1, "random_pairs": 1}, "is_sjsf", lambda joint: False,
        [rf"{_RANDOM_PAIR}: round-trip or syntax failure"],
    ),
    "sjsf optimum": (
        "sjsf", {"max_n": 1, "random_pairs": 1}, "_JOINT_WEIGHT", heavier_finish(),
        ["m=0 n=0 weight=0 oracle=1", "m=0 n=1 weight=1 oracle=2",
         "m=1 n=0 weight=1 oracle=2", "m=1 n=1 weight=1 oracle=2",
         rf"{_RANDOM_PAIR} weight=\d+ optimum=\d+"],
    ),
    "cost-model result": (
        "cost-model", {"instances": 1}, "evaluate", off_by_one_results,
        [rf"{_INSTANCE}: modular result \d+ != \d+"],
    ),
    "cost-model counts": (
        "cost-model", {"instances": 1}, "evaluate", off_by_one_counts,
        [rf"{_INSTANCE}: multiplications \d+ != weight1-top \d+",
         rf"{_INSTANCE}: squarings \d+ != \d+",
         rf"{_INSTANCE}: additive result \d+"],
    ),
    "transducer transients": (
        "transducer", {"max_length": 3}, "_walk", third_step_doubled,
        [r"k=3: transient components not 2\^-3"],
    ),
    "transducer chain": (
        "transducer", {"max_length": 3}, "zero_output_probability",
        lambda k, method="markov": zero_output_probability(k, method)
        + (method == "exhaustive" and k == 4),
        ["k=4: chain and enumeration disagree"],
    ),
    "wllc-vs-naf lighter": (
        "wllc-vs-naf", {"max_length": 2}, "_wllc_support", lambda n, length: (0, 0),
        ["length=1 n=1 weight1=0 naf=1", "length=2 n=1 weight1=0 naf=1",
         "length=2 n=2 weight1=0 naf=1", "length=2 n=3 weight1=0 naf=2"],
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_failure_path_reports_its_counterexample(fault, monkeypatch, capsys):
    check, bounds, name, stand_in, patterns = FAULTS[fault]
    monkeypatch.setattr(verification, name, stand_in)
    report = run_check(check, **bounds)
    assert not report.passed
    shown = report.counterexamples[: len(patterns)]
    assert len(shown) == len(patterns), shown
    for pattern, line in zip(patterns, shown):
        assert re.fullmatch(pattern, line), (pattern, line)
    flags = [a for bound, value in bounds.items() for a in (_BOUND_FLAGS[bound][0], str(value))]
    assert main(["verify", check, *flags]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"result: FAIL ({report.cases} cases)"
    assert lines[3:] == [f"counterexample: {line}" for line in report.counterexamples]
