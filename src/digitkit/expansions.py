"""Radix-2 signed digit expansions and joint (multi-row) expansions.

Digits are plain integers in {-2, -1, 0, 1, 2}, least significant first.
An expansion is stored only as its length and bit masks of its nonzero,
negative and magnitude-2 digits, so weights and values are mask
arithmetic; one encoder and one decoder convert between digits and masks.
Column keys, the evaluator's table keys too, are read from the masks
alone (_column_keys), so only _encode and _octal_code state each digit's
code.  Equality compares lengths and masks, so a zero-padded word is
distinct from its trimmed form.  Display and JSON read most significant first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

DIGIT_MIN = -2
DIGIT_MAX = 2

_DIGITS = frozenset(range(DIGIT_MIN, DIGIT_MAX + 1))
# A code, as an ASCII octal digit -> its digit's byte.
_BYTE_OF_OCTAL = bytes.maketrans(b"01357", b"\x00\x01\xff\x02\xfe")
_CODE_OF_ASCII = bytes.maketrans(b"01234567", bytes(range(8)))
# The struct code of an unsigned int of each column key width, in bytes.
_KEY_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _integers(what: str, values: Iterable) -> tuple[int, ...]:
    """The values as ints.  Ints, bools and integral floats pass; any other
    value raises ValueError rather than being truncated by int()."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        for v in values:
            try:
                if int(v) == v:
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            raise ValueError(f"{what} {v!r} is not an integer")
    return ints


def _integer(what: str, value) -> int:
    """One value as an int, as _integers checks it; an int passes untouched."""
    return value if type(value) is int else _integers(what, (value,))[0]


def _encode(digits: Sequence[int]) -> tuple[int, int, int]:
    """The (support, negative, two) masks of digits in [-2, 2], not checked."""
    support = negative = two = 0
    bit = 1
    for d in digits:
        if d:
            support |= bit
            if d < 0:
                negative |= bit
            if not d & 1:
                two |= bit
        bit <<= 1
    return support, negative, two


def _octal_code(support: int, negative: int, two: int) -> int:
    """The int whose octal digit j is position j's code, support + 2 * negative
    + 4 * two: 0, 1, 3, 5, 7 for the digits 0, 1, -1, 2, -2."""
    # Read in base 8, a mask's binary string puts one position per octal digit.
    return int(f"{support:b}", 8) + 2 * int(f"{negative:b}", 8) + 4 * int(f"{two:b}", 8)


def _decode(length: int, support: int, negative: int, two: int) -> tuple[int, ...]:
    """The low `length` digits of the masks, least significant first."""
    code = _octal_code(support, negative, two)
    octal = f"{code:0{length}o}".encode()[: -length - 1 : -1]
    return struct.unpack(f"{length}b", octal.translate(_BYTE_OF_OCTAL))


def _column_keys(joint: JointExpansion) -> Sequence[int]:
    """Every column's key, most significant column first.

    Byte k of a key is row k's code (see `_octal_code`), so the all-zero
    column is key 0 and a key holds a magnitude-2 digit exactly when one
    of its bytes is 5 or 7.  Read from the masks; no digit is decoded.
    """
    length = len(joint)
    if not length:
        return ()
    dimension = joint.dimension
    width = 1 << (dimension - 1).bit_length()  # bytes per key: 1, 2, 4, 8, ...
    keys = bytearray(length * width)
    for k, r in enumerate(joint.rows):
        code = _octal_code(r._support, r._negative, r._two)
        keys[k::width] = f"{code:0{length}o}".encode().translate(_CODE_OF_ASCII)
    if width <= 8:
        return struct.unpack(f"<{length}{_KEY_FORMATS[width]}", keys)
    return [int.from_bytes(keys[i : i + width], "little") for i in range(0, len(keys), width)]


def _from_masks(
    length: int, support: int, negative: int = 0, two: int = 0
) -> Expansion:
    """An expansion from masks: negative and two within support < 2**length."""
    e = object.__new__(Expansion)
    e.__dict__.update(_length=length, _support=support, _negative=negative, _two=two)
    return e


def _rows_from_columns(
    columns: Sequence[Sequence[int]], dimension: int
) -> tuple[Expansion, ...]:
    """The rows of a column sequence, least significant column first, each
    column holding one digit in [-2, 2] per row; the digits are not checked."""
    rows = []
    for digits in zip(*columns) if columns else [()] * dimension:
        # Unpacked by name: `_from_masks(n, *_encode(digits))` is slower.
        support, negative, two = _encode(digits)
        rows.append(_from_masks(len(columns), support, negative, two))
    return tuple(rows)


@dataclass(frozen=True, init=False, repr=False)
class Expansion:
    """A finite signed digit word, least significant digit first."""

    _length: int
    _support: int
    _negative: int
    _two: int

    def __init__(self, digits: Iterable[int] = ()) -> None:
        self.__post_init__(_integers("digit", digits))

    def __post_init__(self, digits: tuple[int, ...]) -> None:
        """Check the digits and store their masks."""
        if not _DIGITS.issuperset(digits):
            bad = next(d for d in digits if d not in _DIGITS)
            raise ValueError(f"digit {bad} outside [{DIGIT_MIN}, {DIGIT_MAX}]")
        support, negative, two = _encode(digits)
        self.__dict__.update(
            _length=len(digits), _support=support, _negative=negative, _two=two
        )

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits, least significant first."""
        return _decode(self._length, self._support, self._negative, self._two)

    @classmethod
    def from_msb(cls, digits: Iterable[int]) -> "Expansion":
        """Build from digits given most significant first."""
        return cls(tuple(reversed(tuple(digits))))

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Expansion":
        return cls.from_msb(data)

    def to_json(self) -> list[int]:
        """Digits as a JSON-ready list, most significant first."""
        return list(reversed(self.digits))

    def msb_digits(self) -> tuple[int, ...]:
        return tuple(reversed(self.digits))

    def value(self) -> int:
        """The integer sum(d_j * 2^j)."""
        deep_negative = self._two & self._negative
        return self._support + self._two - 2 * (self._negative + deep_negative)

    def weight(self) -> int:
        """Number of nonzero digits."""
        return self._support.bit_count()

    def trimmed(self) -> "Expansion":
        """Drop most-significant zeros."""
        support = self._support
        return _from_masks(support.bit_length(), support, self._negative, self._two)

    def padded(self, length: int) -> "Expansion":
        """Extend with most-significant zeros to exactly `length` digits."""
        length = _integer("length", length)
        if length < self._length:
            raise ValueError(f"cannot pad {self._length} digits down to {length}")
        return _from_masks(length, self._support, self._negative, self._two)

    def __len__(self) -> int:
        return self._length

    def __str__(self) -> str:
        return "".join(map(str, self.msb_digits())) or "ε"

    def __repr__(self) -> str:
        return f"Expansion(digits={self.digits!r})"


def binary(n: int, length: int) -> Expansion:
    """Standard binary expansion of n, zero-padded to exactly `length` digits."""
    n = _integer("exponent", n)
    length = _integer("length", length)
    if length < 0:
        raise ValueError("length must be non-negative")
    if n < 0 or n >= (1 << length):
        raise ValueError(f"{n} is not representable in {length} bits")
    return _from_masks(length, n)


def ones_complement(e: Expansion) -> Expansion:
    """Flip every digit of a {0,1} word; value becomes 2^len - value - 1."""
    if e._negative or e._two:
        raise ValueError("ones_complement requires a {0,1} word")
    return _from_masks(len(e), e._support ^ ((1 << len(e)) - 1))


@dataclass(frozen=True)
class JointExpansion:
    """A stack of equal-length expansions, read column by column.

    Column j collects digit j of every row; the joint weight counts
    nonzero columns and weight1 adds max|digit| over each column, the
    number of table multiplications a column costs.
    """

    rows: tuple[Expansion, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("a joint expansion needs at least one row")
        for r in rows:
            if not isinstance(r, Expansion):
                raise TypeError("rows must be Expansion instances")
        if len({len(r) for r in rows}) > 1:
            raise ValueError("rows must have equal length")
        object.__setattr__(self, "rows", rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, indexed like a tuple of the columns."""
        j = range(len(self))[j]
        masks = ((r._support >> j, r._negative >> j, r._two >> j) for r in self.rows)
        return tuple(_decode(1, *m)[0] for m in masks)

    def columns(self) -> Iterator[tuple[int, ...]]:
        """Columns least significant first."""
        return zip(*(r.digits for r in self.rows))

    def _masks(self) -> tuple[int, int]:
        """(nonzero columns, columns holding a digit of magnitude 2) as masks."""
        support = two = 0
        for r in self.rows:
            support, two = support | r._support, two | r._two
        return support, two

    def values(self) -> tuple[int, ...]:
        return tuple(r.value() for r in self.rows)

    def joint_weight(self) -> int:
        """Number of nonzero columns."""
        return self._masks()[0].bit_count()

    def weight1(self) -> int:
        """Sum over columns of max|digit|."""
        support, two = self._masks()
        return support.bit_count() + two.bit_count()

    def zeros(self) -> int:
        """Number of all-zero columns; zeros() + joint_weight() == len."""
        return len(self) - self.joint_weight()

    def to_json(self) -> list[list[int]]:
        return [r.to_json() for r in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "JointExpansion":
        return cls(tuple(Expansion.from_json(row) for row in data))

    def __str__(self) -> str:
        return " / ".join(str(r) for r in self.rows)


def _joint(rows: tuple[Expansion, ...]) -> JointExpansion:
    """A joint expansion of one or more equal-length rows, not checked."""
    joint = object.__new__(JointExpansion)
    joint.__dict__["rows"] = rows
    return joint


def stack(rows: Sequence[Expansion]) -> JointExpansion:
    """Stack expansions into a joint expansion, padding to the longest row."""
    if not rows:
        raise ValueError("nothing to stack")
    length = max(len(r) for r in rows)
    return _joint(tuple(r.padded(length) for r in rows))
