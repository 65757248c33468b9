"""Digit words: construction, value arithmetic, stacking, serialization."""

import sys
from array import array

import pytest

from digitkit.expansions import (
    Expansion,
    JointExpansion,
    binary,
    ones_complement,
    stack,
)
from digitkit.transducer import _FIELD_BITS, _packed_range


def test_value_is_lsb_first():
    e = Expansion((1, 0, -1, 1))
    assert e.value() == 1 - 4 + 8
    assert e.weight() == 3
    assert len(e) == 4


def test_digit_range_enforced():
    Expansion((2, -2, 0))
    with pytest.raises(ValueError, match=r"^digit 3 outside \[-2, 2\]$"):
        Expansion((3,))
    with pytest.raises(ValueError, match=r"^digit -3 outside \[-2, 2\]$"):
        Expansion((-3, 0))
    # A non-integer digit is refused, not truncated into the range.
    for digits in ([1.5], [2.5]):
        with pytest.raises(ValueError, match=r"is not an integer$"):
            Expansion(digits)
    with pytest.raises(ValueError, match=r"^digit 1.9 is not an integer$"):
        JointExpansion.from_json([[1.9, 0], [0, 1]])
    assert Expansion((True, False, 1.0)).digits == (1, 0, 1)


def test_msb_round_trip():
    e = Expansion.from_msb((1, 0, 0, -1, -1))
    assert e.digits == (-1, -1, 0, 0, 1)
    assert e.msb_digits() == (1, 0, 0, -1, -1)
    assert e.value() == 13
    assert str(e) == "100-1-1"
    assert str(Expansion()) == "ε"


def test_json_uses_msb_order():
    e = Expansion((-1, 0, 1))
    assert e.to_json() == [1, 0, -1]
    assert Expansion.from_json([1, 0, -1]) == e


def test_trimmed_and_padded():
    e = Expansion((1, 0, 1, 0, 0))
    assert e.trimmed().digits == (1, 0, 1)
    assert e.trimmed().value() == e.value()
    assert e.padded(7).digits == (1, 0, 1, 0, 0, 0, 0)
    # An integral float reads as its int; any other length is refused.
    assert e.padded(7.0) == e.padded(7) and len(e.padded(7.0)) == 7
    assert str(e.padded(7.0)) == "0000101"
    for length in (3, "7", 7.5):
        with pytest.raises(ValueError):
            e.padded(length)
    assert Expansion().trimmed() == Expansion()


def test_equality_distinguishes_padding():
    assert Expansion((1,)) != Expansion((1, 0))
    assert Expansion((1,)).value() == Expansion((1, 0)).value()


def test_binary():
    assert binary(13, 4).digits == (1, 0, 1, 1)
    assert binary(13, 6).digits == (1, 0, 1, 1, 0, 0)
    assert binary(0, 3).digits == (0, 0, 0)
    assert binary(0, 0).digits == ()
    with pytest.raises(ValueError):
        binary(16, 4)
    with pytest.raises(ValueError):
        binary(-1, 4)
    with pytest.raises(ValueError):
        binary(1, -1)


def test_binary_round_trip_exhaustive():
    for length in range(7):
        for n in range(1 << length):
            assert binary(n, length).value() == n


def test_ones_complement():
    e = binary(13, 5)
    c = ones_complement(e)
    assert c.value() == (1 << 5) - 13 - 1
    assert ones_complement(c) == e
    with pytest.raises(ValueError):
        ones_complement(Expansion((1, -1)))


def test_joint_expansion_columns_and_weights():
    j = JointExpansion((Expansion((1, 0, -1)), Expansion((0, 0, 1))))
    assert j.dimension == 2
    assert len(j) == 3
    assert j.column(0) == (1, 0)
    assert list(j.columns()) == [(1, 0), (0, 0), (-1, 1)]
    assert j.values() == (-3, 4)
    assert j.joint_weight() == 2
    assert j.zeros() == 1
    assert j.weight1() == 2
    assert str(j) == "-101 / 100"


def test_weight1_counts_digit_magnitude():
    j = JointExpansion((Expansion((-2, 1)), Expansion((1, 0))))
    assert j.joint_weight() == 2
    assert j.weight1() == 3


def test_joint_expansion_validation():
    with pytest.raises(ValueError):
        JointExpansion(())
    with pytest.raises(ValueError):
        JointExpansion((Expansion((1,)), Expansion((1, 0))))
    with pytest.raises(TypeError):
        JointExpansion((Expansion((1,)), (1,)))


def test_joint_json_round_trip():
    j = JointExpansion((Expansion((1, -2)), Expansion((0, 1))))
    assert j.to_json() == [[-2, 1], [1, 0]]
    assert JointExpansion.from_json(j.to_json()) == j


def test_stack_pads_to_longest():
    j = stack([Expansion((1,)), Expansion((0, 1, 1))])
    assert len(j) == 3
    assert j.rows[0].digits == (1, 0, 0)
    assert j.values() == (1, 6)
    with pytest.raises(ValueError):
        stack([])


def _packed(masks):
    """(words, ones): the masks side by side in one integer, a field of
    _FIELD_BITS bits each, the first mask lowest, and the integer with bit
    0 of every field set; the reference _packed_range is checked against."""
    fields = array("I", masks)
    assert 8 * fields.itemsize == _FIELD_BITS
    one = (1).to_bytes(fields.itemsize, sys.byteorder)
    ones = int.from_bytes(one * len(fields), sys.byteorder)
    return int.from_bytes(fields, sys.byteorder), ones


def test_packed_range_equals_packing_the_range():
    for count in (1, 2, 4, 8, 256, 4096):
        words, ones = _packed_range(count)
        assert (words, ones) == _packed(range(count))
        # Bit j of field i is bit j of i.
        assert [(words >> j & ones).bit_count() for j in range(13)] == [
            sum(i >> j & 1 for i in range(count)) for j in range(13)
        ]


def test_packed_range_cuts_any_count():
    for count in (3, 5, 7, 100, 257):
        assert _packed_range(count) == _packed(range(count))
