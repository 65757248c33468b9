"""Recoding schemes for one or more exponents.

Covers the non-adjacent form, the simple joint sparse form for pairs, a
complement-aware scheme (wllc) that recodes heavy binary words through
their ones' complement, a digit-set reduction rewriting magnitude-2 digits
away, and brute-force minimal-cost oracles used to check optimality
claims.

Each scheme states its digit rule once.  The private helpers _naf_support,
_wllc_support and _sjsf_weight_top give the per-sample Monte Carlo metrics
in experiments the same masks and counts the public recoders build their
expansions from.  The column rules _naf_column and _sjsf_column and one
carry step over them, _carry_step, are what transducer builds its machines
from.  Every automaton in the package finds and numbers its states by one
walk, _chain.  The joint sparse form's carry steps and both oracles'
min-plus DP over carry pairs, _CarryDP, are bit automata over two
exponents, each with a pure step on its states (a _CarryDP state is its
cost vector): one builder, _nibble_table, compiles each on first use into
rows read a nibble pair per lookup, in time linear in the bit length.  No
row leaves this module: _read reads one pair and returns the state reached,
and _read_pairs reads any pairs through the SJSF table and an oracle's
table in step, yielding each pair's SJSF row supports and minimum, for
verify's pair checks.  _CarryDP.final reads the cost left at a final
state.  is_sjsf wraps a mask core, _sjsf_syntax (the two support
conditions), which verify reads directly.  The recoders build their joint
expansions unchecked, as their rows have equal length by construction;
integer arguments are checked before any bit is read.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

from .expansions import Expansion, JointExpansion, binary, ones_complement, stack
from .expansions import _from_masks, _integer, _integers, _joint, _rows_from_columns


class RecodingScheme(Enum):
    BINARY = "binary"
    NAF = "naf"
    STACKED_NAF = "stacked-naf"
    SJSF = "sjsf"
    WLLC = "wllc"

    @classmethod
    def from_name(cls, name: str) -> "RecodingScheme":
        return cls(name.strip().lower().replace("_", "-"))


def naf(n: int) -> Expansion:
    """Non-adjacent form of any integer, least significant digit first.

    The unique {-1,0,1} expansion with no two adjacent nonzero digits; it
    has minimal weight among signed binary expansions of n: digit by digit,
    odd steps take d = 2 - (n mod 4) so the successor is divisible by 4.
    naf(0) is empty; for n < 0 the top digit is -1.
    """
    n = _integer("exponent", n)
    support = _naf_support(n)
    return _row(support.bit_length(), support, n)


def _naf_support(n: int) -> int:
    """Bit mask of the nonzero positions of naf(n).  With h = 3n, digit j
    is bit j+1 of h minus bit j+1 of n; two's-complement semantics make
    the identity valid for negative n as well."""
    return ((3 * n) ^ n) >> 1


def _row(length: int, support: int, value: int, two: int = 0) -> Expansion:
    """The recoded row with these masks and value."""
    return _from_masks(length, support, _negative_mask(support, value, two), two)


def _negative_mask(support: int, value: int, two: int = 0) -> int:
    """The negative-digit mask of a recoded row with these masks and value.
    The recoders leave only negative digits of magnitude 2, so
    value = support - 2 * negative - two."""
    return (support - two - value) >> 1


def is_naf(e: Expansion) -> bool:
    support = e._support
    return not e._two and not support & (support >> 1)


def _naf_column(a: int) -> tuple[int]:
    """The NAF digit rule: the digit for a residual congruent to a mod 4."""
    return (2 - a if a & 1 else 0,)


def _sjsf_column(a: int, b: int) -> tuple[int, int]:
    """The SJSF digit rule: the column for residuals congruent to (a, b) mod 4."""
    if a & 1 and b & 1:
        return 2 - a, 2 - b
    sign = 1 if a >> 1 == b >> 1 else -1
    if a & 1:
        return sign, 0
    if b & 1:
        return 0, sign
    return 0, 0


def _chain(start, moves) -> tuple[list, list]:
    """(states, edges): the states reachable from start, numbered in the
    order breadth-first search finds them (start is 0), and per state the
    tuples moves(state) lists, each ending in the next state, with that
    state's number in its place.  moves runs once per state."""
    states, number, edges = [start], {start: 0}, []
    for state in states:  # breadth first: states grows while it is read
        edges.append(out := [])
        for *move, end in moves(state):
            if end not in number:
                number[end] = len(states)
                states.append(end)
            out.append((*move, number[end]))
    return states, edges


def _nibble_table(start, step) -> list:
    """Compile a bit automaton over two exponents to read a nibble pair per
    lookup; return the row of `start`.  step(state, letter) gives (cost,
    column bits, next state) for letter = bit of m | bit of n << 1, and
    runs once per state and letter.  Each state reachable from start gets
    one row: row[256] is the state, and row[x1 << 4 | x2], reading nibble
    x1 of m and x2 of n from the least significant bit, is (the four
    steps' summed cost, their column bits with step i's shifted by i, the
    next row)."""
    # The states are numbered once (_chain), so the composition below
    # indexes lists rather than hashing states.  Entry x1 << 1 | x2 reads
    # the letter x1 | x2 << 1.
    states, table = _chain(start, lambda state: [step(state, x) for x in (0, 2, 1, 3)])
    # k-step rows, entry x1 << k | x2, to 2k-step rows: the low k bits of
    # each exponent, then the high k bits from the state reached.
    for k in (1, 2):
        mask, doubled = (1 << k) - 1, []
        for row in table:
            doubled.append(new := [])
            for x1, x2 in product(range(1 << 2 * k), repeat=2):
                cost, bits, mid = row[(x1 & mask) << k | (x2 & mask)]
                more, high, end = table[mid][(x1 >> k) << k | (x2 >> k)]
                new.append((cost + more, bits | high << k, end))
        table = doubled
    rows: list = [[] for _ in states]
    for row, entries, state in zip(rows, table, states):
        row += [(cost, bits, rows[end]) for cost, bits, end in entries] + [state]
    return rows[0]


def _carry_step(rule, pending: tuple, bits: tuple) -> tuple[tuple, tuple]:
    """One carry step of a column digit rule over binary rows: (the pending
    values after it, the column it emits).  pending holds each row's value
    at the last position read (bit plus carry, in {0, 1, 2}); reading the
    next bits fixes every residual mod 4, so the step emits rule(*residues)
    for that position, and the carries join the bits just read."""
    column = rule(*[(p + 2 * b) & 3 for p, b in zip(pending, bits)])
    carried = [b + ((p - d) >> 1) for p, b, d in zip(pending, bits, column)]
    return tuple(carried), column


@functools.cache
def _sjsf_nibble_table() -> list:
    """The SJSF digit rule's carry steps by _nibble_table, from nothing
    pending, built on first use: a state is the pending pair, an entry
    costs its nonzero columns, and bit i (bit 8 + i) of its column bits
    marks a nonzero first-row (second-row) digit in the i-th column
    emitted.  From nothing pending the first step emits the (zero) column
    below the first position read."""

    def step(pending: tuple, letter: int) -> tuple[int, int, tuple]:
        carried, (d1, d2) = _carry_step(_sjsf_column, pending, (letter & 1, letter >> 1))
        return (1 if d1 or d2 else 0), (d1 & 1) | (d2 & 1) << 8, carried

    return _nibble_table((0, 0), step)


def _sjsf_bytes(m: int, n: int, length: int) -> tuple[bytes, bytes, int]:
    """(lo, hi, pad): positions 0..length of m and n, in two's complement,
    as nibble-pair letters x1 << 4 | x2 (table indices).

    Zero bits prepended below position 0 pad the read to whole bytes: from
    the start state they emit zero columns and stay there.  Byte k of lo
    pairs the low nibbles of byte k of both exponents, byte k of hi the
    high nibbles, so reading lo[k] then hi[k] reads byte k.  The columns
    emitted start at position -pad - 1.
    """
    nbytes = (length + 8) >> 3
    pad = 8 * nbytes - 1 - length
    m <<= pad
    n <<= pad
    low = ((1 << 8 * nbytes) - 1) // 0x11  # the low nibble of every byte
    lo = (((m & low) << 4) | (n & low)).to_bytes(nbytes, "little")
    hi = ((m & (low << 4)) | ((n >> 4) & low)).to_bytes(nbytes, "little")
    return lo, hi, pad


def _read(row: list, m: int, n: int, length: int) -> tuple[int, tuple]:
    """(summed cost, state reached) of reading positions 0..length of m and
    n, as _sjsf_bytes lays them out, from row, a _nibble_table row."""
    lo, hi, _ = _sjsf_bytes(m, n, length)
    total = 0
    for x, y in zip(lo, hi):
        a, _, row = row[x]
        b, _, row = row[y]
        total += a + b
    return total, row[256]


def _read_pairs(pairs, dp: _CarryDP):
    """Read each pair (m, n) of non-negative ints, in the order given,
    through the SJSF nibble table and dp's in step, a nibble pair per
    lookup, from position 0 through its own bit length + 1 at least: the
    SJSF table emits each column a position late, and a _CarryDP reads its
    tail, two positions, past the tops.

    Yields (m, n, s1, s2, least) per pair: the nonzero masks of the first
    and second rows of sjsf(m, n), and dp's minimal cost of (m, n), as
    cost() gives it.
    """
    start, oracle = _sjsf_nibble_table(), dp.nibbles
    for m, n in pairs:
        row1, row2, s1, s2, cost = start, oracle, 0, 0, 0
        for at in range(0, (m | n).bit_length() + 2, 4):
            x = (m >> at & 15) << 4 | n >> at & 15
            _, b, row1 = row1[x]
            c, _, row2 = row2[x]
            s1 |= (b & 15) << at
            s2 |= b >> 8 << at
            cost += c
        # The first column emitted lies below position 0.
        yield m, n, s1 >> 1, s2 >> 1, cost + dp.final(row2[256])


def _sjsf_weight_top(m: int, n: int, length: int) -> tuple[int, int]:
    """(joint weight, top column nonzero) of the joint sparse form of (m, n).

    Reads positions 0..length of both exponents once, a nibble at a time.
    Once position length (a zero bit) is read, the state holds only the
    carries into it, so the column at length is nonzero exactly when the
    state is not the start state, and every column above it is zero.
    """
    if (m | n) >> length:
        raise RuntimeError("joint sparse form exceeded its width bound")
    weight, pending = _read(_sjsf_nibble_table(), m, n, length)
    top = 1 if pending != (0, 0) else 0
    return weight + top, top


def sjsf(m: int, n: int) -> JointExpansion:
    """Simple joint sparse form of a pair of non-negative integers.

    The digit rule (_sjsf_column) depends only on both residuals mod 4.
    When both residuals are odd, each digit follows the d = 2 - (r mod 4)
    rule so both successors become even, forcing the next column to zero.
    When exactly one residual is odd, its digit sign is chosen so the two
    successors get equal parity.  The result is the unique two-row
    {-1,0,1} word satisfying

    (1) unequal column magnitudes are followed by equal ones, and
    (2) a (+-1, +-1) column is followed by a zero column,

    and it minimizes the number of nonzero columns.

    The rule's carry steps (_carry_step) run compiled to a nibble table,
    a byte of both exponents per pair of table lookups, so the cost is
    linear in the bit length.  It yields the nonzero positions of each
    row; one more lookup on a zero nibble pair flushes the column at
    position max bit length, which the carries may still fill.  Digit
    signs then follow from the values.
    """
    m, n = _integer("exponent", m), _integer("exponent", n)
    if m < 0 or n < 0:
        raise ValueError("sjsf requires non-negative inputs")
    lo, hi, pad = _sjsf_bytes(m, n, max(m.bit_length(), n.bit_length()))
    row = _sjsf_nibble_table()
    # One 16-bit word per byte read: the first row's columns in the low
    # byte, the second row's in the high byte.
    columns = []
    for x, y in zip(lo, hi):
        _, a, row = row[x]
        _, b, row = row[y]
        columns.append(a | b << 4)
    columns.append(row[0][1])  # the flush
    packed = struct.pack(f"<{len(columns)}H", *columns)
    s1 = int.from_bytes(packed[0::2], "little") >> (pad + 1)
    s2 = int.from_bytes(packed[1::2], "little") >> (pad + 1)
    # The last column of the form is nonzero, so the support sets the width.
    width = (s1 | s2).bit_length()
    return _joint((_row(width, s1, m), _row(width, s2, n)))


def is_sjsf(joint: JointExpansion) -> bool:
    """Check the two syntactic conditions above; digits past the top count as 0."""
    if joint.dimension != 2:
        raise ValueError("is_sjsf is defined for two rows")
    a, b = joint.rows
    return not (a._two or b._two) and _sjsf_syntax(a._support, b._support)


def _sjsf_syntax(s1: int, s2: int) -> bool:
    """The two conditions of sjsf's docstring on the nonzero masks of two
    {-1,0,1} rows."""
    unequal = s1 ^ s2
    both = s1 & s2
    nonzero = s1 | s2
    return not unequal & (unequal >> 1) and not both & (nonzero >> 1)


def wllc_recode(n: int, length: int) -> Expansion:
    """Complement-assisted recoding of one component to exactly length+1 digits.

    Words of binary weight above length/2 are recoded through the ones'
    complement: take the NAF of n - (2^length - 1), then add 1 at the top
    digit and subtract 1 at digit 0 to restore the value.  Light words
    just take the NAF of n.  Digits land in {-1,0,1} except digit 0,
    which may reach -2, and the top digit, which stays in {0,1}.
    """
    n = _integer("exponent", n)
    length = _integer("length", length)
    if length < 1:
        raise ValueError("length must be at least 1")
    if n < 0 or n >= (1 << length):
        raise ValueError(f"{n} is not representable in {length} bits")
    support, two = _wllc_support(n, length)
    return _row(length + 1, support, n, two)


def _wllc_support(n: int, length: int) -> tuple[int, int]:
    """(nonzero, magnitude-2) position masks of wllc_recode(n, length).

    A heavy word recodes v = n - (2^length - 1) <= 0.  The +1 at the top
    turns the top digit of naf(v), 0 or -1, into 1 or 0.  The -1 at
    position 0 turns digit 0 of naf(v) into -1 when v is even, into -2
    when v = 3 mod 4 (digit -1), and into 0 when v = 1 mod 4 (digit 1).
    """
    if 2 * n.bit_count() <= length:
        return _naf_support(n), 0
    v = n - ((1 << length) - 1)
    support = _naf_support(v) ^ (1 << length)
    if not v & 1:
        return support | 1, 0
    if v & 3 == 3:
        return support, 1
    return support ^ 1, 0


def wllc_joint(exponents: Sequence[int]) -> JointExpansion:
    """Recode a vector of non-negative integers, not all zero, componentwise.

    The common length is the bit length of the largest component, so every
    row has exactly length+1 digits.
    """
    return recode_joint(exponents, RecodingScheme.WLLC)


def reduce_digit2(joint: JointExpansion) -> JointExpansion:
    """Rewrite away all digits of magnitude 2 without raising weight1.

    Repeatedly, at the highest column containing a |2|, split each digit
    as d = 2q + r with r in {0,1} and q in {-1,0,1}, keep r and carry q
    into the next column.  Values are preserved and every digit of the
    result is in {-1,0,1}.  The result may be longer: one column at most
    for a single WLLC row, two at most for two rows of up to three digits,
    as rows (-2, -2) and (2, -1) reach.
    """
    rows = [list(r.digits) for r in joint.rows]
    length = len(joint)
    j = joint._masks()[1].bit_length() - 1
    while j >= 0:
        if j + 1 == length:
            for row in rows:
                row.append(0)
            length += 1
        for row in rows:
            d = row[j]
            r = d & 1
            row[j] = r
            row[j + 1] += (d - r) >> 1
        if any(abs(row[j + 1]) == 2 for row in rows):
            j = j + 1
            continue
        while j >= 0 and not any(abs(row[j]) == 2 for row in rows):
            j -= 1
    return JointExpansion(tuple(Expansion(tuple(row)) for row in rows))


def naf_complement_weight_gap(word: Expansion) -> int:
    """weight(naf(v)) - weight(naf(2^len - v - 1)) for a {0,1} word of value v."""
    ones_complement(word)  # ValueError for a word that is not {0,1}
    return _complement_gap(word._support, len(word))


def _complement_gap(value: int, length: int) -> int:
    """naf_complement_weight_gap(binary(value, length)), from the NAF masks."""
    full = (1 << length) - 1
    return _naf_support(value).bit_count() - _naf_support(full ^ value).bit_count()


def recode_joint(
    exponents: Sequence[int],
    scheme: RecodingScheme,
    length: int | None = None,
) -> JointExpansion:
    """Produce the joint expansion a scheme feeds to the evaluator.

    Exponents must be non-negative; a negative one raises ValueError, even
    for the schemes whose single-row recoders accept negative integers.
    """
    exps = _integers("exponent", exponents)
    if not exps:
        raise ValueError("need at least one exponent")
    if any(n < 0 for n in exps):
        raise ValueError("exponents must be non-negative")
    if length is not None:
        length = _integer("length", length)
    if scheme is RecodingScheme.BINARY:
        width = max(n.bit_length() for n in exps) if length is None else length
        return _joint(tuple(binary(n, width) for n in exps))
    if scheme is RecodingScheme.WLLC:
        if length is None:
            if not any(exps):
                raise ValueError("all-zero exponent vector cannot be recoded")
            length = max(exps).bit_length()
        return _joint(tuple(wllc_recode(n, length) for n in exps))
    if scheme in (RecodingScheme.NAF, RecodingScheme.STACKED_NAF):
        joint = stack([naf(n) for n in exps])
    elif scheme is RecodingScheme.SJSF:
        if len(exps) != 2:
            raise ValueError("sjsf recodes exactly two exponents")
        joint = sjsf(exps[0], exps[1])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if length is not None:
        joint = _joint(tuple(r.padded(length) for r in joint.rows))
    return joint


# ---------------------------------------------------------------------------
# Brute-force minimal-cost oracles.

# The public oracles' input check; _CarryDP.cost takes any size.  A witness
# re-reads the DP once per column, so it costs time quadratic in bit length.
ORACLE_BOUND = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    """A minimal cost and a cheapest expansion attaining it."""

    minimal_cost: int
    witness: JointExpansion


class _CarryDP:
    """Forward min-plus DP over carry pairs for one column digit rule.

    Read least significant bit first in two's complement, the residuals
    after k columns are (m >> k) + c1 and (n >> k) + c2 for carries (c1, c2);
    column (d1, d2) takes carry c under bit b to (b + c - d) / 2.  A state
    is its cost vector: the least costs over `carries` less their minimum,
    None past `spread`.  Cost-to-go never differs by more between carry
    pairs, so such an entry is on no cheapest path.  _step, a pure bit
    step, gives the next vector; `nibbles`, its _nibble_table from `start`,
    is built on first use, and cost() reads a nibble pair per lookup.
    """

    tail = 2  # past both tops, residuals in [-2, 2] end within 2 columns

    def __init__(self, even: tuple[int, ...], cost, carries: range, spread: int):
        # table[(a & 1) << 1 | (b & 1)]: the (cost, d1, d2) for residuals (a, b).
        digits = (even, (-1, 1))
        self.table = tuple(
            tuple((cost(*c), *c) for c in product(digits[p >> 1], digits[p & 1]))
            for p in range(4)
        )
        self.carries = tuple(product(carries, repeat=2))
        self.spread = spread
        self.start = tuple(0 if c == (0, 0) else None for c in self.carries)

    def _step(self, state: tuple, letter: int) -> tuple[int, int, tuple]:
        """One bit step for _nibble_table: (its least cost, 0, the next state)."""
        best: dict[tuple[int, int], int] = {}
        for base, (c1, c2) in zip(state, self.carries):
            if base is not None:
                a, b = (letter & 1) + c1, (letter >> 1) + c2
                for cost, d1, d2 in self.table[(a & 1) << 1 | (b & 1)]:
                    succ = ((a - d1) >> 1, (b - d2) >> 1)
                    best[succ] = min(base + cost, best.get(succ, base + cost))
        low = min(best.values())
        gaps = [best.get(c, low + self.spread + 1) - low for c in self.carries]
        return low, 0, tuple(g if g <= self.spread else None for g in gaps)

    @functools.cached_property
    def nibbles(self) -> list:
        return _nibble_table(self.start, self._step)

    def cost(self, m: int, n: int) -> int:
        """The minimal cost of (m, n), for integers of any size.

        Reads positions 0..top, whole bytes so _sjsf_bytes pads nothing, at
        least `tail` positions past both tops.  Past the tops every letter is
        the sign bits, and carries that cancel the signs keep the residuals
        zero at no cost, so reading further leaves the answer alone.
        """
        top = (max(m.bit_length(), n.bit_length()) + self.tail - 1) | 7
        total, state = _read(self.nibbles, m, n, top)
        # m and n shifted past the read are their signs, so carries of the
        # opposite signs zero the residuals.
        return total + self.final(state, (-(m >> top + 1), -(n >> top + 1)))

    def final(self, state: tuple, carries: tuple[int, int] = (0, 0)) -> int:
        """The least cost left after a read past both tops that reached
        state, when these carries zero the residuals: (0, 0) for
        non-negative m and n."""
        return state[self.carries.index(carries)]

    def witness(self, m: int, n: int) -> tuple[int, JointExpansion]:
        """(minimal cost, a cheapest expansion) of (m, n), a column at a time:
        a column whose cost plus the rest's minimum is the current minimum."""
        columns, total = [], self.cost(m, n)
        least = total
        while m or n:
            for cost, d1, d2 in self.table[(m & 1) << 1 | (n & 1)]:
                rest = ((m - d1) >> 1, (n - d2) >> 1)
                # A column that leaves the pair itself costs at least 1 (the
                # zero column does so only at (0, 0), where the loop has
                # stopped), so it is never cheapest and is not read.
                if rest != (m, n) and cost + self.cost(*rest) == total:
                    break
            else:
                raise RuntimeError("no column attains the minimum")
            columns.append((d1, d2))
            total -= cost
            m, n = rest
        return least, JointExpansion(_rows_from_columns(columns, 2))


_WEIGHT1 = _CarryDP((-2, 0, 2), lambda d1, d2: max(abs(d1), abs(d2)), range(-1, 3), 2)
_JOINT_WEIGHT = _CarryDP((0,), lambda d1, d2: 1 if d1 or d2 else 0, range(2), 1)


def _oracle(dp: _CarryDP, m: int, n: int) -> OracleResult:
    m, n = _integer("oracle input", m), _integer("oracle input", n)
    if abs(m) > ORACLE_BOUND or abs(n) > ORACLE_BOUND:
        raise ValueError(f"oracle inputs limited to |x| <= {ORACLE_BOUND}")
    return OracleResult(*dp.witness(m, n))


def min_weight1_oracle(m: int, n: int) -> OracleResult:
    """Cheapest two-row {-2..2} expansion of (m, n) under the weight1 cost:
    odd residuals take digit -1 or 1, even ones -2, 0 or 2, and a column
    costs max|d_k|, the multiplications it takes."""
    return _oracle(_WEIGHT1, m, n)


def min_joint_weight_oracle(m: int, n: int) -> OracleResult:
    """Fewest nonzero columns over two-row {-1,0,1} expansions of (m, n):
    odd residuals take digit -1 or 1, even ones only 0, and a column costs
    1 when it is nonzero."""
    return _oracle(_JOINT_WEIGHT, m, n)
