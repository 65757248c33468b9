"""Property tests: the mask-backed expansions, recoders and transducers
against digit-level definitions written out here (the joint sparse form's
in test_experiments), the brute-force oracle and naf.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitkit.expansions import Expansion, JointExpansion, _rows_from_columns
from digitkit.multiexp import MERSENNE61, AdditiveGroup, ModGroup, evaluate, precompute
from digitkit.recoding import (
    _sjsf_weight_top,
    is_naf,
    is_sjsf,
    min_joint_weight_oracle,
    naf,
    sjsf,
    wllc_recode,
)
from digitkit.transducer import double_naf_transducer, naf_transducer, sjsf_transducer
from test_experiments import sjsf_digits

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

digit_lists = st.lists(st.integers(-2, 2), max_size=200)
# An expansion's whole state: no digit tuple is stored beside the masks.
MASK_KEYS = {"_length", "_support", "_negative", "_two"}


@st.composite
def joint_digit_rows(draw, max_length=80):
    dimension = draw(st.integers(1, 3))
    length = draw(st.integers(0, max_length))
    row = st.lists(st.integers(-2, 2), min_size=length, max_size=length)
    return [draw(row) for _ in range(dimension)]


# Integers of every width up to 2048 bits, of either sign.
wide_integers = st.integers(0, 2048).flatmap(
    lambda width: st.integers(-(1 << width), 1 << width)
)


@PROPERTY
@given(digit_lists, st.integers(0, 40))
@example([], 0)
@example([-2], 1)
@example([j % 5 - 2 for j in range(1025)], 3)
def test_expansion_round_trips_and_matches_digit_formulas(digits, extra):
    e = Expansion(digits)
    assert vars(e).keys() == MASK_KEYS
    assert e.digits == tuple(digits)
    assert vars(e).keys() == MASK_KEYS
    assert Expansion(e.digits) == e
    assert Expansion.from_json(e.to_json()) == e
    assert e.value() == sum(d << j for j, d in enumerate(digits))
    assert e.weight() == sum(1 for d in digits if d)
    assert len(e) == len(digits)
    top = len(digits)
    while top and digits[top - 1] == 0:
        top -= 1
    trimmed = e.trimmed()
    assert trimmed.digits == tuple(digits[:top])
    assert trimmed == Expansion(digits[:top])
    padded = e.padded(len(digits) + extra)
    assert padded.digits == tuple(digits) + (0,) * extra
    assert Expansion(padded.digits) == padded
    assert (padded == e) == (extra == 0)
    assert hash(Expansion(padded.digits)) == hash(padded)


@PROPERTY
@given(joint_digit_rows())
def test_joint_weights_match_digit_formulas(rows):
    joint = JointExpansion(tuple(Expansion(r) for r in rows))
    columns = list(zip(*rows))
    assert list(joint.columns()) == columns
    assert [joint.column(j) for j in range(len(columns))] == columns
    assert _rows_from_columns(columns, len(rows)) == joint.rows
    length = len(columns)
    for j in range(-length, length):
        assert joint.column(j) == tuple(r.digits[j] for r in joint.rows)
    for j in (-length - 1, length):
        with pytest.raises(IndexError):
            joint.column(j)
    assert joint.joint_weight() == sum(1 for col in columns if any(col))
    assert joint.weight1() == sum(max(abs(d) for d in col) for col in columns)
    assert joint.zeros() == sum(1 for col in columns if not any(col))
    assert joint.values() == tuple(
        sum(d << j for j, d in enumerate(r)) for r in rows
    )


@PROPERTY
@given(wide_integers)
@example(-1)
@example(-(1 << 2048))
def test_naf_meets_its_definition(n):
    e = naf(n)
    digits = e.digits
    assert set(digits) <= {-1, 0, 1}
    assert all(not (a and b) for a, b in zip(digits, digits[1:]))
    assert e.value() == n
    assert digits[-1:] != (0,)
    assert Expansion(digits) == e


@PROPERTY
@given(st.integers(1, 700).flatmap(lambda length: st.tuples(
    st.integers(0, (1 << length) - 1), st.just(length)
)))
@example((0, 1))
@example((1, 1))
@example((7, 3))
def test_wllc_recode_follows_its_recipe(case):
    n, length = case
    if 2 * bin(n).count("1") > length:
        digits = list(naf(n - ((1 << length) - 1)).padded(length + 1).digits)
        digits[length] += 1
        digits[0] -= 1
    else:
        digits = list(naf(n).padded(length + 1).digits)
    e = wllc_recode(n, length)
    assert e.digits == tuple(digits)
    assert Expansion(digits) == e
    assert e.value() == n


@PROPERTY
@given(st.integers(0, 1 << 300), st.integers(0, 1 << 300))
def test_sjsf_rows_round_trip(m, n):
    joint = sjsf(m, n)
    assert joint.values() == (m, n)
    for row in joint.rows:
        assert set(row.digits) <= {-1, 0, 1}
        assert Expansion(row.digits) == row


def below(max_width):
    """Non-negative integers below 2**width, for widths up to max_width."""
    return st.integers(0, max_width).flatmap(
        lambda width: st.integers(0, (1 << width) - 1)
    )


@PROPERTY
@given(below(2048), below(2048))
@example(0, 0)
@example(1, 0)
@example((1 << 2048) - 1, 1)
def test_sjsf_follows_the_digit_level_rule(m, n):
    assert tuple(row.digits for row in sjsf(m, n).rows) == sjsf_digits(m, n)


@PROPERTY
@given(below(10), below(10), st.integers(0, 9))
@example(0, 0, 0)
@example(1023, 1, 0)
def test_sjsf_weight_is_the_minimal_joint_weight(m, n, extra):
    length = max(m.bit_length(), n.bit_length(), 1) + extra
    weight, _ = _sjsf_weight_top(m, n, length)
    assert weight == sjsf(m, n).joint_weight()
    assert weight == min_joint_weight_oracle(m, n).minimal_cost


@PROPERTY
@given(below(512), st.integers(0, 3))
@example(0, 0)
@example(3, 0)
def test_naf_transducer_emits_the_naf(n, extra):
    bits = [n >> j & 1 for j in range(n.bit_length() + extra)]
    (row,) = naf_transducer().run(bits).rows
    assert row.trimmed() == naf(n)


def run_by_digits(machine, letters):
    """Transducer.run built digit by digit: collect the columns along the
    transitions and the flush word, then one Expansion per row of digits."""
    state, columns = machine.initial, []
    for letter in letters:
        state, word = machine.transitions[(state, letter)]
        columns.extend(word)
    columns.extend(machine.flush[state])
    rows = (Expansion([col[i] for col in columns]) for i in range(machine.output_dim))
    return JointExpansion(tuple(rows))


MACHINES = (naf_transducer(), double_naf_transducer(), sjsf_transducer())


@PROPERTY
@given(st.sampled_from(MACHINES), st.data())
def test_transducer_run_matches_its_digits(machine, data):
    letters = data.draw(st.lists(st.sampled_from(machine.letters), max_size=512))
    got = machine.run(letters)
    assert got == run_by_digits(machine, letters)
    assert all(Expansion(row.digits) == row for row in got.rows)


@PROPERTY
@given(joint_digit_rows(max_length=40), st.data())
@example([[-2, 1, 0, 1]], None)
@example([[-2, 0, 0], [1, -1, 2]], None)
def test_evaluate_matches_pow_and_integer_addition(rows, data):
    joint = JointExpansion(tuple(Expansion(r) for r in rows))
    values = joint.values()
    if data is None:
        bases = tuple(range(2, 2 + len(rows)))
    else:
        bases = tuple(
            data.draw(st.integers(2, MERSENNE61 - 1)) for _ in rows
        )
    mod = ModGroup(MERSENNE61)
    got, counter = evaluate(joint, precompute(bases, mod), mod)
    want = 1
    for base, value in zip(bases, values):
        want = want * pow(base, value, MERSENNE61) % MERSENNE61
    assert got == want
    add = AdditiveGroup()
    got_add, _ = evaluate(joint, precompute(bases, add), add)
    assert got_add == sum(b * v for b, v in zip(bases, values))
    length = len(joint)
    top = 1 if length and any(joint.column(length - 1)) else 0
    assert counter.squarings == max(length - 1, 0)
    assert counter.multiplications == joint.weight1() - top


def is_naf_digits(digits):
    if any(d not in (-1, 0, 1) for d in digits):
        return False
    return all(not (a and b) for a, b in zip(digits, digits[1:]))


def is_sjsf_digits(columns):
    """The two syntactic conditions of the sjsf docstring, column by column."""
    if any(abs(d) > 1 for col in columns for d in col):
        return False
    columns = list(columns) + [(0, 0)]
    for (a1, a2), (b1, b2) in zip(columns, columns[1:]):
        a1, a2, b1, b2 = abs(a1), abs(a2), abs(b1), abs(b2)
        if a1 != a2 and b1 != b2:
            return False
        if a1 == 1 and a2 == 1 and (b1 or b2):
            return False
    return True


short_words = st.lists(st.sampled_from((0, 0, 1, -1, 2, -2)), max_size=8)


@PROPERTY
@given(short_words)
@example([1, 0, -1, 0, 1])
def test_is_naf_matches_its_digit_definition(digits):
    assert is_naf(Expansion(digits)) == is_naf_digits(digits)


@PROPERTY
@given(st.integers(0, 8).flatmap(lambda length: st.lists(
    st.tuples(*[st.sampled_from((0, 0, 1, -1, 2))] * 2),
    min_size=length, max_size=length,
)))
@example([(1, 1), (0, 0), (1, 0), (1, -1)])
def test_is_sjsf_matches_its_digit_definition(columns):
    rows = tuple(Expansion([col[k] for col in columns]) for k in (0, 1))
    assert is_sjsf(JointExpansion(rows)) == is_sjsf_digits(columns)


SJSF_MACHINE = sjsf_transducer()


def sjsf_machine_matches(m, n, extra):
    """sjsf_transducer() run on the bit pairs of (m, n), with extra zero
    letters, yields sjsf(m, n) padded with zero columns."""
    letters = [
        (m >> j & 1) | (n >> j & 1) << 1
        for j in range(max(m.bit_length(), n.bit_length()) + extra)
    ]
    got = SJSF_MACHINE.run(letters)
    want = sjsf(m, n)
    assert got.values() == (m, n)
    return got == JointExpansion(tuple(row.padded(len(got)) for row in want.rows))


@PROPERTY
@given(below(512), below(512), st.integers(0, 3))
@example(0, 0, 0)
@example((1 << 512) - 1, (1 << 511) + 1, 0)
def test_sjsf_transducer_emits_the_sjsf(m, n, extra):
    assert sjsf_machine_matches(m, n, extra)
