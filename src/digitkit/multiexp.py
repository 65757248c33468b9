"""Interleaved multi-exponentiation with an exact operation count.

The evaluator walks a joint expansion most significant column first,
reading each column as an integer key straight from the rows' masks (no
digit tuple is built); the same reader keys the table.  It loads the top
column's table entry, then squares once per lower column and multiplies
by one precomputed table entry per nonzero column, or by two (_split)
when the column holds a magnitude-2 digit (which the complement-assisted
recoding can leave at digit 0; weight1 charges it two).  The counts are
tallied per group operation as it is performed, so they are exact:
squarings = length - 1 and multiplications = weight1 - 1 when the top
column is nonzero (its first factor is loaded, not multiplied).  The
square-and-multiply ladder is this loop on one binary row.
"""

from __future__ import annotations

import abc
import functools
import random
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Any, Sequence

from .expansions import JointExpansion, _DIGITS, _column_keys, _integer, binary
from .expansions import _rows_from_columns
from .recoding import RecodingScheme, recode_joint

Element = Any

MERSENNE61 = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 12  # random bases added where _MR_BASES are not a proof
# A table holds 3^D entries, so each base past the cap would triple its cost.
_PRECOMP_DIMENSION_CAP = 8


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n below 3.3e24, randomized above.
    ValueError for an n that is not an integer."""
    n = _integer("n", n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_MR_BASES)
    if n >= 3_317_044_064_679_887_385_961_981:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GroupOps(abc.ABC):
    """Abelian group interface used by the evaluators."""

    @property
    @abc.abstractmethod
    def identity(self) -> Element: ...

    @abc.abstractmethod
    def multiply(self, x: Element, y: Element) -> Element: ...

    @abc.abstractmethod
    def invert(self, x: Element) -> Element: ...

    def element(self, x: Any) -> Element:
        """Validate and normalize a raw element; override where relevant."""
        return x


@dataclass(frozen=True)
class ModGroup(GroupOps):
    """Multiplicative group of nonzero residues modulo an odd prime."""

    modulus: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", _integer("modulus", self.modulus))
        if self.modulus <= 2 or not is_probable_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not an odd prime")

    @property
    def identity(self) -> int:
        return 1

    def multiply(self, x: int, y: int) -> int:
        return x * y % self.modulus

    def invert(self, x: int) -> int:
        """The inverse by the extended Euclidean algorithm."""
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{x} is not a unit modulo {self.modulus}") from None

    def element(self, x: Any) -> int:
        r = _integer("element", x) % self.modulus
        if r == 0:
            raise ValueError(f"{x} is not a unit modulo {self.modulus}")
        return r


@dataclass(frozen=True)
class AdditiveGroup(GroupOps):
    """Integers under addition; 'exponentiation' is n * x.

    Useful as an independent oracle: with indicator bases the evaluated
    product recovers each exponent exactly.
    """

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, x: int, y: int) -> int:
        return x + y

    def invert(self, x: int) -> int:
        return -x

    def element(self, x: Any) -> int:
        return _integer("element", x)


@dataclass
class CostCounter:
    """Operation counts of one evaluation, precomputation included."""

    squarings: int = 0
    multiplications: int = 0
    inversions: int = 0
    precomp_multiplications: int = 0

    def total_multiplications(self) -> int:
        """Squarings plus general multiplications (precomputation excluded)."""
        return self.squarings + self.multiplications

    def reset(self) -> None:
        self.squarings = 0
        self.multiplications = 0
        self.inversions = 0
        self.precomp_multiplications = 0


@dataclass(frozen=True)
class PrecompTable:
    """Products a1^d1 * ... * aD^dD for every digit vector in {-1,0,1}^D.

    `entries` is keyed by digit tuples.  `evaluate` reads the same entries
    by column key (see `expansions._column_keys`), a view derived once at
    construction: a change to `entries` afterwards does not reach it.  A
    table key that is not a column of D digits in [-2, 2] raises ValueError.
    """

    group: GroupOps
    bases: tuple[Element, ...]
    entries: dict[tuple[int, ...], Element]
    precomp_multiplications: int
    inversions: int
    _by_key: dict[int, Element] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = _table_keys(tuple(self.entries), len(self.bases))
        object.__setattr__(self, "_by_key", dict(zip(keys, self.entries.values())))

    @property
    def dimension(self) -> int:
        return len(self.bases)

    def __getitem__(self, column: tuple[int, ...]) -> Element:
        return self.entries[column]


_Vectors = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=16)
def _table_keys(columns: _Vectors, dimension: int) -> tuple[int, ...]:
    """The column keys of the table keys, read by _column_keys from their rows;
    ValueError for a key that is not a column of `dimension` digits in [-2, 2]."""
    for column in columns:
        try:
            valid = len(column) == dimension and _DIGITS.issuperset(column)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(
                f"table key {column!r} is not a column of {dimension} digits in [-2, 2]"
            )
    # int() reads a digit 1.0 as the 1 that _encode takes.
    rows = _rows_from_columns([tuple(map(int, c)) for c in columns], dimension)
    return tuple(reversed(_column_keys(JointExpansion(rows))))


@functools.cache
def _layout(dimension: int) -> tuple[_Vectors, _Vectors, _Vectors]:
    """The table layout shared by every precomputation of one dimension.

    The nonzero vectors of {-1,0,1}^D whose first nonzero digit is positive,
    in product order; each one's factors, an index k < D for base k and
    D + k for its inverse; and each one's negation.
    """
    vectors = [v for v in iter_product((-1, 0, 1), repeat=dimension) if any(v)]
    positive = tuple(v for v in vectors if next(d for d in v if d) > 0)
    factors = tuple(
        tuple(k if d > 0 else dimension + k for k, d in enumerate(v) if d)
        for v in positive
    )
    negated = tuple(tuple(-d for d in v) for v in positive)
    return positive, factors, negated


def precompute(bases: Sequence[Element], group: GroupOps) -> PrecompTable:
    """Build the 3^D-entry table (9 entries for a pair of bases).

    Entries with a leading positive digit are composed from the bases and
    their inverses; each remaining entry is the inverse of its negation,
    so the table always satisfies table[-v] = invert(table[v]).  Cost is
    independent of the exponent length: 2 multiplications for D = 2.
    D is at most 8 (6561 entries); a larger D raises ValueError.
    """
    dim = len(bases)
    if dim < 1:
        raise ValueError("need at least one base")
    if dim > _PRECOMP_DIMENSION_CAP:
        raise ValueError(f"dimension {dim} exceeds its cap of {_PRECOMP_DIMENSION_CAP}")
    base_list = tuple(group.element(b) for b in bases)
    # A composed entry's leading digit is positive, so base 0 is never
    # inverted; every later base k is, in the vector with 1 at 0 and -1 at k.
    factor_of = (*base_list, None, *map(group.invert, base_list[1:]))
    mul = group.multiply
    positive, factors, negated = _layout(dim)
    products = []
    mults = 0
    for first, *rest in factors:
        acc = factor_of[first]
        for k in rest:
            acc = mul(acc, factor_of[k])
            mults += 1
        products.append(acc)
    entries: dict[tuple[int, ...], Element] = {(0,) * dim: group.identity}
    entries.update(zip(positive, products))
    entries.update(zip(negated, map(group.invert, products)))
    invs = dim - 1 + len(products)
    return PrecompTable(group, base_list, entries, mults, invs)


# Marks a column key with no table entry of its own, one holding a digit of
# magnitude 2.  Not None: a group may represent an element by None.
_SPLIT = object()


def _split(by_key: dict[int, Element], key: int, ones: int) -> tuple[Element, ...]:
    """The entries of the two keys a magnitude-2 key splits into: each code's
    sign and support bits (the column clamped to [-1, 1]), and those bits
    again on the rows whose code has the magnitude-2 bit (`ones`: 1 per row)."""
    first = key & 3 * ones
    return by_key[first], by_key[first & (key >> 2 & ones) * 3]


def evaluate(
    joint: JointExpansion,
    table: PrecompTable,
    group: GroupOps,
) -> tuple[Element, CostCounter]:
    """Left-to-right interleaved evaluation of prod a_k^(row_k value).

    Loads the top column's table entry, then, for each lower column, most
    significant first, squares once and multiplies by the column's table
    entry if the column is nonzero.  Columns are read as integer keys from
    the rows' masks, so no digit is decoded, and looked up in the table's
    key view.  Accepts digits in {-2,...,2}: a column holding a
    magnitude-2 digit has no key in the table; its key is split into two
    table keys, applied as their entries (at the top, the first is loaded
    and the second multiplied).  Returns the element and the operation counts, each
    tallied where its group operation is performed (precomputation cost
    copied from the table).
    """
    if table.group != group:
        raise ValueError("table was precomputed for a different group")
    dimension = joint.dimension
    if table.dimension != dimension:
        raise ValueError("table dimension does not match the joint expansion")
    mul = group.multiply
    by_key = table._by_key
    get = by_key.get
    ones = (1 << 8 * dimension) // 255  # byte value 1 per row
    squarings = multiplications = 0
    acc = group.identity
    keys = iter(_column_keys(joint))
    top = next(keys, 0)
    if top:
        entry = get(top, _SPLIT)
        if entry is _SPLIT:
            acc = mul(*_split(by_key, top, ones))
            multiplications += 1
        else:
            acc = entry
    for key in keys:
        acc = mul(acc, acc)
        squarings += 1
        if not key:
            continue
        entry = get(key, _SPLIT)
        if entry is _SPLIT:
            first, rest = _split(by_key, key, ones)
            acc = mul(mul(acc, first), rest)
            multiplications += 2
        else:
            acc = mul(acc, entry)
            multiplications += 1
    counter = CostCounter(
        squarings=squarings,
        multiplications=multiplications,
        inversions=table.inversions,
        precomp_multiplications=table.precomp_multiplications,
    )
    return acc, counter


def square_and_multiply(a: Element, n: int, group: GroupOps) -> tuple[Element, CostCounter]:
    """Plain binary ladder for a single exponent; the baseline cost model.

    It is `evaluate` on the binary row of n against the table {0: identity,
    1: a}, which costs no precomputation; n = 0 returns before reading a.
    """
    n = _integer("exponent", n)
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if n == 0:
        return group.identity, CostCounter()
    element = group.element(a)
    table = PrecompTable(group, (element,), {(0,): group.identity, (1,): element}, 0, 0)
    return evaluate(JointExpansion((binary(n, n.bit_length()),)), table, group)


def multiexp(
    bases: Sequence[Element],
    exponents: Sequence[int],
    scheme: RecodingScheme,
    group: GroupOps,
) -> tuple[Element, CostCounter]:
    """Recode the exponent vector with a scheme and evaluate it.

    Exponents must be non-negative (recode_joint raises ValueError
    otherwise); invert a base to raise it to a negative power.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have the same dimension")
    joint = recode_joint(exponents, scheme)
    table = precompute(bases, group)
    return evaluate(joint, table, group)
