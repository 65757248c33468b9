"""Group abstraction, precomputation, and the exact-counting evaluator."""

import random
from dataclasses import astuple

import pytest

from digitkit.expansions import Expansion, JointExpansion
from digitkit.multiexp import (
    MERSENNE61,
    AdditiveGroup,
    CostCounter,
    ModGroup,
    PrecompTable,
    evaluate,
    is_probable_prime,
    multiexp,
    precompute,
    square_and_multiply,
)
from digitkit.recoding import RecodingScheme, recode_joint, wllc_recode


def test_is_probable_prime():
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert is_probable_prime(101)
    assert is_probable_prime(MERSENNE61)
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)
    assert not is_probable_prime((1 << 61) + 1)
    small_primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in small_primes)
    # Above 3.3e24 the fixed bases are not a proof and random rounds run too.
    assert is_probable_prime((1 << 89) - 1)
    assert not is_probable_prime(MERSENNE61 * ((1 << 31) - 1))


def test_modgroup_validation_and_arithmetic():
    g = ModGroup(101)
    assert g.identity == 1
    assert g.multiply(84, 68) == 56
    assert g.multiply(g.invert(7), 7) == 1
    assert g.element(-1) == 100
    assert g.element(203) == 1
    assert g.element(True) == g.element(1.0) == 1
    with pytest.raises(ValueError):
        g.element(202)
    # A non-integer element is refused, not truncated by int().
    for x in (2.5, "5"):
        with pytest.raises(ValueError, match=f"^element {x!r} is not an integer$"):
            g.element(x)
    for x in (0, 101, -202):
        with pytest.raises(ValueError, match="is not a unit modulo 101"):
            g.invert(x)
    with pytest.raises(ValueError):
        ModGroup(100)
    with pytest.raises(ValueError):
        ModGroup(2)
    with pytest.raises(ValueError):
        ModGroup(9)


def test_modulus_is_checked_as_an_integer():
    g = ModGroup(7.0)
    assert type(g.modulus) is int and g == ModGroup(7)
    assert multiexp((g.element(2),), (5,), RecodingScheme.NAF, g)[0] == 32 % 7
    for bad in (7.5, "7", None):
        with pytest.raises(ValueError, match="is not an integer"):
            ModGroup(bad)
        with pytest.raises(ValueError, match="is not an integer"):
            is_probable_prime(bad)
    assert is_probable_prime(7.0)


def test_modgroup_invert_matches_fermat():
    rng = random.Random(17)
    for p in (101, MERSENNE61):
        g = ModGroup(p)
        with pytest.raises(ValueError, match=f"0 is not a unit modulo {p}"):
            g.invert(0)
        with pytest.raises(ValueError, match=f"{p} is not a unit modulo {p}"):
            g.invert(p)
        units = [1, p - 1] + [rng.randrange(1, p) for _ in range(200)]
        for x in units:
            assert g.invert(x) == pow(x, p - 2, p)
            assert g.multiply(g.invert(x), x) == 1


def test_additive_group():
    g = AdditiveGroup()
    assert g.identity == 0
    assert g.multiply(4, 5) == 9
    assert g.invert(4) == -4
    assert g.element(-3) == -3
    with pytest.raises(ValueError, match=r"^element 2.5 is not an integer$"):
        g.element(2.5)


def test_cost_counter():
    c = CostCounter(squarings=3, multiplications=2, precomp_multiplications=4)
    assert c.total_multiplications() == 5
    c.reset()
    assert (c.squarings, c.multiplications, c.inversions, c.precomp_multiplications) == (0, 0, 0, 0)


def test_precompute_pair_table():
    g = ModGroup(101)
    table = precompute((2, 3), g)
    assert table.dimension == 2
    assert len(table.entries) == 9
    assert table.precomp_multiplications == 2
    assert table.inversions == 5
    assert table[(0, 0)] == 1
    assert table[(1, 1)] == 6
    assert table[(1, 0)] == 2
    assert table[(0, 1)] == 3
    for v in table.entries:
        neg = tuple(-d for d in v)
        assert g.multiply(table[v], table[neg]) == 1


def test_precompute_single_base():
    g = ModGroup(101)
    table = precompute((2,), g)
    assert len(table.entries) == 3
    assert table.precomp_multiplications == 0
    assert table.inversions == 1
    with pytest.raises(ValueError):
        precompute((), g)


def test_precompute_counts_and_inverse_pairs():
    # (precomp_multiplications, inversions, entries) for D = 1..6: D - 1 base
    # inversions plus one per negated entry, (3^D - 1) / 2 of them.
    pinned = [(0, 1, 3), (2, 5, 9), (14, 15, 27), (68, 43, 81), (284, 125, 243),
              (1094, 369, 729)]
    rng = random.Random(31)
    for group in (ModGroup(MERSENNE61), AdditiveGroup()):
        for dimension, counts in enumerate(pinned, start=1):
            bases = [rng.randrange(2, 1 << 40) for _ in range(dimension)]
            table = precompute(bases, group)
            assert (table.precomp_multiplications, table.inversions,
                    len(table.entries)) == counts
            for v, entry in table.entries.items():
                assert table[tuple(-d for d in v)] == group.invert(entry)
            for k in range(dimension):
                unit = tuple(int(i == k) for i in range(dimension))
                assert table[unit] == group.element(bases[k])


def test_precompute_dimension_cap():
    g = ModGroup(101)
    table = precompute((2,) * 8, g)
    assert len(table.entries) == 3**8
    # Nine bases, not more: without the cap a larger table could exhaust memory.
    with pytest.raises(ValueError, match="dimension 9 exceeds its cap of 8"):
        precompute((2,) * 9, g)
    with pytest.raises(ValueError, match="dimension 9 exceeds its cap of 8"):
        multiexp((2,) * 9, (5,) * 9, RecodingScheme.NAF, g)


def test_evaluate_frozen_example():
    g = ModGroup(101)
    joint = recode_joint((5, 3), RecodingScheme.STACKED_NAF)
    table = precompute((2, 3), g)
    result, counter = evaluate(joint, table, g)
    assert result == 56
    assert counter.squarings == 2
    assert counter.multiplications == 1
    assert counter.precomp_multiplications == 2
    assert counter.inversions == 5


def test_evaluate_magnitude_two_digit():
    g = ModGroup(101)
    row = wllc_recode(6, 3)
    assert row.digits == (-2, 0, 0, 1)
    joint = JointExpansion((row,))
    result, counter = evaluate(joint, precompute((2,), g), g)
    assert result == pow(2, 6, 101)
    assert counter.multiplications == 2
    assert counter.squarings == 3


def test_evaluate_empty_and_zero_joints():
    g = ModGroup(101)
    table = precompute((2, 3), g)
    empty = JointExpansion((Expansion(), Expansion()))
    result, counter = evaluate(empty, table, g)
    assert result == 1
    assert counter.squarings == 0
    assert counter.multiplications == 0

    zero = JointExpansion((Expansion((0, 0)), Expansion((0, 0))))
    result, counter = evaluate(zero, table, g)
    assert result == 1
    assert counter.squarings == 1
    assert counter.multiplications == 0


def test_evaluate_rejects_mismatches():
    g = ModGroup(101)
    table = precompute((2, 3), g)
    joint = recode_joint((5,), RecodingScheme.NAF)
    with pytest.raises(ValueError):
        evaluate(joint, table, g)
    other = recode_joint((5, 3), RecodingScheme.SJSF)
    with pytest.raises(ValueError):
        evaluate(other, table, ModGroup(103))


def test_evaluate_counts_follow_the_expansion():
    rng = random.Random(3)
    g = ModGroup(MERSENNE61)
    table = precompute((2, 3), g)
    for scheme in RecodingScheme:
        for _ in range(50):
            length = rng.randint(1, 48)
            exps = (rng.getrandbits(length), rng.getrandbits(length))
            if not any(exps):
                continue
            if scheme is RecodingScheme.WLLC:
                joint = recode_joint(exps, scheme, length=length)
            else:
                joint = recode_joint(exps, scheme)
            result, counter = evaluate(joint, table, g)
            expected = (
                pow(2, exps[0], MERSENNE61) * pow(3, exps[1], MERSENNE61)
            ) % MERSENNE61
            assert result == expected
            top = 1 if any(row.digits[-1] for row in joint.rows) else 0
            assert counter.multiplications == joint.weight1() - top
            assert counter.squarings == len(joint) - 1


def reference_evaluate(joint, table, group):
    """Digit-by-digit evaluation, counting each group call where it is made:
    square before every column below the top, skip zero columns, split a
    column holding a magnitude-2 digit into its clamped part and the
    remainder, and load (not multiply) the top column's first factor."""
    if table.group != group:
        raise ValueError("table was precomputed for a different group")
    if table.dimension != joint.dimension:
        raise ValueError("table dimension does not match the joint expansion")
    counter = CostCounter(
        inversions=table.inversions,
        precomp_multiplications=table.precomp_multiplications,
    )
    columns = tuple(joint.columns())
    top = len(columns) - 1
    acc = group.identity
    for j in range(top, -1, -1):
        if j < top:
            acc = group.multiply(acc, acc)
            counter.squarings += 1
        col = columns[j]
        if not any(col):
            continue
        if any(abs(d) == 2 for d in col):
            first = tuple(max(-1, min(1, d)) for d in col)
            factors = [table[first], table[tuple(d - u for d, u in zip(col, first))]]
        else:
            factors = [table[col]]
        if j == top:
            acc = factors.pop(0)
        for factor in factors:
            acc = group.multiply(acc, factor)
            counter.multiplications += 1
    return acc, counter


DIFFERENTIAL_GROUPS = (ModGroup(101), ModGroup(MERSENNE61), AdditiveGroup())


def assert_same_evaluation(joint, table, group):
    result, counter = evaluate(joint, table, group)
    expected, expected_counter = reference_evaluate(joint, table, group)
    assert result == expected
    assert astuple(counter) == astuple(expected_counter)
    return counter


def test_evaluate_matches_the_digit_by_digit_reference():
    rng = random.Random(23)
    for group in DIFFERENTIAL_GROUPS:
        for dimension in (1, 2, 3):
            bases = [rng.randrange(2, 100) for _ in range(dimension)]
            table = precompute(bases, group)
            for length in (0, 1, 2):
                zero = JointExpansion((Expansion((0,) * length),) * dimension)
                counter = assert_same_evaluation(zero, table, group)
                assert counter.multiplications == 0
            for _ in range(60):
                length = rng.randint(0, 64)
                rows = tuple(
                    Expansion(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(length))
                    for _ in range(dimension)
                )
                joint = JointExpansion(rows)
                counter = assert_same_evaluation(joint, table, group)
                assert counter.squarings == max(length - 1, 0)
        # Column keys are 1, 2, 4 or 8 bytes wide; dimensions 4-8 take the
        # last two widths and the 8-byte one at its fullest.
        for dimension, cases in ((4, 8), (5, 6), (6, 4), (7, 3), (8, 3)):
            bases = [rng.randrange(2, 100) for _ in range(dimension)]
            table = precompute(bases, group)
            for _ in range(cases):
                length = rng.randint(0, 70)
                rows = tuple(
                    Expansion(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(length))
                    for _ in range(dimension)
                )
                assert_same_evaluation(JointExpansion(rows), table, group)
        for scheme in RecodingScheme:
            for dimension in (2,) if scheme is RecodingScheme.SJSF else (1, 2, 3):
                bases = [rng.randrange(2, 100) for _ in range(dimension)]
                table = precompute(bases, group)
                for _ in range(15):
                    exps = [rng.getrandbits(rng.randint(1, 64)) for _ in range(dimension)]
                    if not any(exps):
                        continue
                    assert_same_evaluation(recode_joint(exps, scheme), table, group)


def test_evaluate_decodes_no_digits(monkeypatch):
    # evaluate reads column keys from the masks; a magnitude-2 column is
    # decoded from its key alone.  Reading digits or columns here fails.
    def refuse(*args):
        raise AssertionError("evaluate decoded an expansion")

    monkeypatch.setattr(Expansion, "digits", property(refuse))
    monkeypatch.setattr(JointExpansion, "columns", refuse)
    rng = random.Random(41)
    p = MERSENNE61
    for scheme in RecodingScheme:
        for dimension in (2,) if scheme is RecodingScheme.SJSF else (1, 2, 3):
            bases = [rng.randrange(2, 1000) for _ in range(dimension)]
            table = precompute(bases, ModGroup(p))
            for _ in range(10):
                exps = [rng.getrandbits(rng.randint(1, 80)) for _ in range(dimension)]
                if not any(exps):
                    continue
                expected = 1
                for a, n in zip(bases, exps):
                    expected = expected * pow(a, n, p) % p
                joint = recode_joint(exps, scheme)
                result, counter = evaluate(joint, table, ModGroup(p))
                assert result == expected
                top = any(len(r.trimmed()) == len(joint) for r in joint.rows)
                assert counter.multiplications == joint.weight1() - top
                assert counter.squarings == len(joint) - 1
                assert multiexp(bases, exps, scheme, ModGroup(p)) == (result, counter)
    # 6 = 2^3 - 2 recodes with a -2 digit at the bottom, here beside a second row.
    joint = recode_joint((6, 5), RecodingScheme.WLLC, length=3)
    assert joint.rows[0] == Expansion((-2, 0, 0, 1))
    result, counter = evaluate(joint, precompute((7, 11), ModGroup(p)), ModGroup(p))
    assert result == pow(7, 6, p) * pow(11, 5, p) % p
    assert (counter.squarings, counter.multiplications) == (3, joint.weight1() - 1)


def test_evaluate_reads_keys_wider_than_eight_bytes():
    # precompute stops at 8 bases, but a hand-built table may have more.
    g = ModGroup(101)
    dimension = 9
    zero = (0,) * dimension
    entries = {zero: 1}
    for k, a in enumerate((2, 3)):
        for sign in (1, -1):
            column = zero[:k] + (sign,) + zero[k + 1 :]
            entries[column] = a if sign > 0 else g.invert(a)
    table = PrecompTable(g, (2, 3) + (1,) * 7, entries, 0, 0)
    # Values 13 and 6, never both rows nonzero in one column.
    rows = (Expansion((1, 0, -1, 0, 1)), Expansion((0, -1, 0, 1, 0)))
    rows += (Expansion((0,) * 5),) * 7
    result, counter = evaluate(JointExpansion(rows), table, g)
    assert result == pow(2, 13, 101) * pow(3, 6, 101) % 101
    assert (counter.squarings, counter.multiplications) == (4, 4)


def test_precompute_table_keys_must_be_columns():
    g = ModGroup(101)
    for key in ((1, 0), (3,), ("1",), 1, (1.5,), (None,), (-3,), ()):
        with pytest.raises(ValueError, match="is not a column of 1 digits in"):
            PrecompTable(g, (2,), {(0,): 1, key: 2}, 0, 0)
    # Integral floats pass, as digits do elsewhere.
    assert PrecompTable(g, (2,), {(0,): 1, (-1.0,): 51}, 0, 0)._by_key == {0: 1, 3: 51}


def test_square_and_multiply_frozen_example():
    g = ModGroup(101)
    result, counter = square_and_multiply(2, 13, g)
    assert result == 11
    assert counter.squarings == 3
    assert counter.multiplications == 2
    result, counter = square_and_multiply(2, 0, g)
    assert result == 1
    assert counter.total_multiplications() == 0
    with pytest.raises(ValueError):
        square_and_multiply(2, -1, g)
    # Bases and exponents that are not integers are refused, not truncated.
    with pytest.raises(ValueError, match=r"^element 2.9 is not an integer$"):
        square_and_multiply(2.9, 3, g)
    with pytest.raises(ValueError, match=r"^exponent 2.5 is not an integer$"):
        square_and_multiply(2, 2.5, g)
    assert square_and_multiply(2.0, 13.0, g)[0] == 11


def test_square_and_multiply_counts_by_position_not_value():
    # Every operand is 1, so each squaring and each multiplication computes
    # 1 * 1: a squaring is told apart by where it happens, not by its values.
    result, counter = square_and_multiply(1, 13, ModGroup(101))
    assert result == 1
    assert (counter.squarings, counter.multiplications) == (3, 2)


def test_square_and_multiply_matches_pow():
    rng = random.Random(9)
    exponents = [1] + [1 << k for k in range(1, 21)]
    exponents += [rng.randrange(0, 1 << 20) for _ in range(100)]
    for g, power in ((ModGroup(101), lambda a, n: pow(a, n, 101)),
                     (AdditiveGroup(), lambda a, n: n * a)):
        for n in exponents:
            a = rng.randrange(1, 101)
            result, counter = square_and_multiply(a, n, g)
            assert result == power(a, n)
            assert counter.inversions == counter.precomp_multiplications == 0
            if n:
                assert counter.squarings == n.bit_length() - 1
                assert counter.multiplications == bin(n).count("1") - 1


def test_multiexp_schemes_agree():
    g = ModGroup(101)
    expected = (pow(2, 13, 101) * pow(3, 5, 101)) % 101
    for scheme in RecodingScheme:
        result, _ = multiexp((2, 3), (13, 5), scheme, g)
        assert result == expected


def test_multiexp_additive_oracle():
    g = AdditiveGroup()
    result, _ = multiexp((1, 0), (13, 5), RecodingScheme.WLLC, g)
    assert result == 13
    result, _ = multiexp((5, 7), (13, 5), RecodingScheme.SJSF, g)
    assert result == 5 * 13 + 7 * 5
    with pytest.raises(ValueError, match=r"^exponent 2.5 is not an integer$"):
        multiexp((2,), (2.5,), RecodingScheme.NAF, g)


def test_multiexp_needs_a_base_per_exponent():
    with pytest.raises(ValueError, match="^bases and exponents must have the same dimension$"):
        multiexp((2,), (13, 5), RecodingScheme.NAF, ModGroup(101))
