"""Recoding transducers and their exact Markov-chain analysis.

One builder turns a column digit rule from recoding into a machine that
takes recoding's carry step per letter, and it builds all three: the
non-adjacent form (naf_transducer), a word and its complement in lockstep
(double_naf_transducer) and the simple joint sparse form
(sjsf_transducer).  A machine reads one binary digit per row,
least significant first, as one input letter, and emits signed digit
columns one position late, once the residues mod 4 the rule needs are
known.  Each row holds a pending value in {0, 1, 2} (input digit plus
carry); the flush word realizes what the pending values still contribute.
A run zips its emitted columns into one digit tuple per row, then masks
(expansions._rows_from_columns); only verify's walk over every word
(verification._flushed_outputs) puts the columns straight into masks.

The chain tools accept any of the machines.  Everything downstream of the
machines is exact: distributions walk integer numerators over a common
denominator and become rationals only when returned; no floating point
enters here.  One integer pass over a machine's transitions sums a reward
of each output column over every input of a length, optionally by popcount
(_column_counts): the zero-digit probability and every exhaustive statistic
in experiments are such sums.  The exhaustive zero-output count checks the
chain from outside: every input goes into one packed integer, and one
product, exclusive or and shift give the NAF supports of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .expansions import (
    _DIGITS,
    DIGIT_MAX,
    DIGIT_MIN,
    JointExpansion,
    _integer,
    _rows_from_columns,
)
from .recoding import _carry_step, _chain, _naf_column, _naf_support, _sjsf_column

Column = tuple[int, ...]
OutputWord = tuple[Column, ...]

TERMINAL = "end"

ZERO_PROBABILITY_ERROR_CONSTANT = 1

_EXHAUSTIVE_POSITION_BOUND = 20
# The width of one field of a packed integer (see _packed_range): at
# k <= 20 every input n is below 2**22, so 3n < 2**24 fits one field.
_FIELD_BITS = 32


@dataclass(frozen=True)
class Transducer:
    """Deterministic letter-to-word transducer.

    The input letters are range(2 ** input_dim).  transitions maps
    (state, letter) to (next state, output word); an output word is a
    tuple of columns, each column one output digit per row.  flush maps
    each state to the word emitted when input ends there.
    """

    states: tuple[str, ...]
    initial: str
    output_dim: int
    transitions: Mapping[tuple[str, int], tuple[str, OutputWord]]
    flush: Mapping[str, OutputWord]
    input_dim: int = 1

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        letters = self.letters
        for s in self.states:
            if s not in self.flush:
                raise ValueError(f"state {s!r} has no flush word")
            self._check_word(self.flush[s])
            for b in letters:
                if (s, b) not in self.transitions:
                    raise ValueError(f"state {s!r} lacks a transition on {b}")
                target, word = self.transitions[(s, b)]
                if target not in self.states:
                    raise ValueError(f"transition target {target!r} unknown")
                self._check_word(word)
        successors = {
            s: [self.transitions[(s, b)][0] for b in letters] for s in self.states
        }
        if _reachable(successors, self.initial) != set(self.states):
            raise ValueError("unreachable states present")

    @property
    def letters(self) -> range:
        return range(1 << self.input_dim)

    def _check_word(self, word: OutputWord) -> None:
        for col in word:
            if len(col) != self.output_dim:
                raise ValueError("output column has wrong dimension")
            if not _DIGITS.issuperset(col):
                raise ValueError(f"output digit outside [{DIGIT_MIN}, {DIGIT_MAX}]")

    def step(self, state: str, letter: int) -> tuple[str, OutputWord]:
        try:
            return self.transitions[(state, letter)]
        except KeyError:
            raise ValueError(f"no transition from {state!r} on {letter!r}") from None

    def run(self, letters: Iterable[int]) -> JointExpansion:
        """Feed a least-significant-first letter stream, flush, and collect."""
        state = self.initial
        columns: list[Column] = []
        for b in letters:
            state, word = self.step(state, b)
            columns += word
        columns += self.flush[state]
        return JointExpansion(_rows_from_columns(columns, self.output_dim))


def _reachable(successors: Mapping[Hashable, Iterable], start: Hashable) -> set:
    """Every node reachable from start, start included (recoding._chain)."""
    return set(_chain(start, lambda node: [(target,) for target in successors[node]])[0])


def _components(
    successors: Mapping[Hashable, Iterable[Hashable]],
) -> dict[frozenset, bool]:
    """Strongly connected components, each mapped to whether it is
    recurrent (reaches nothing outside itself).  Reachability by search
    from every node: quadratic, which suits graphs of a few states."""
    reach = {s: _reachable(successors, s) for s in successors}
    comps = {s: frozenset(u for u in seen if s in reach[u]) for s, seen in reach.items()}
    return {comps[s]: comps[s] == reach[s] for s in reach}


def strongly_connected_components(t: Transducer) -> tuple[frozenset[str], ...]:
    """SCCs of the transition graph, with flushing modelled as an edge to
    a terminal sink state.  Sorted by size, then by state labels."""
    successors = {
        s: [t.transitions[(s, b)][0] for b in t.letters] + [TERMINAL]
        for s in t.states
    }
    successors[TERMINAL] = []
    return tuple(sorted(_components(successors), key=lambda c: (len(c), sorted(c))))


def _carry_transducer(
    rule: Callable[..., Column],
    inputs: Sequence[tuple[int, ...]],
    numbered: bool = False,
) -> Transducer:
    """The machine that runs a column digit rule over binary rows.

    Letter k feeds the bits inputs[k], one per row.  A state other than
    "start" is "p" followed by the pending value (bit plus carry, in
    {0, 1, 2}) of each row at the last position read; states are named in
    the order recoding._chain finds them, breadth first.  Each letter
    after the first takes one recoding._carry_step, which emits the rule's
    column for the previous position.  Flushing steps on zero bits at
    least once, then until nothing is pending.  numbered=True names the
    states "1", "2", ... in the same order instead.
    """
    zeros = (0,) * len(inputs[0])

    def moves(pending: Column | None) -> list[tuple[OutputWord, Column]]:
        if pending is None:  # the start emits nothing
            return [((), bits) for bits in inputs]
        return [((c,), t) for t, c in (_carry_step(rule, pending, b) for b in inputs)]

    order, edges = _chain(None, moves)
    if numbered:
        names = [str(i + 1) for i in range(len(order))]
    else:
        names = ["start"] + ["p" + "".join(map(str, pending)) for pending in order[1:]]
    transitions = {
        (source, letter): (names[target], word)
        for source, out in zip(names, edges)
        for letter, (word, target) in enumerate(out)
    }
    flush: dict[str, OutputWord] = {}
    for name, pending in zip(names, order):
        tail: list[Column] = []
        while pending is not None and (not tail or any(pending)):
            if len(tail) > 3 ** len(zeros):  # more steps than pending values
                raise RuntimeError("the rule's carries never die out")
            pending, column = _carry_step(rule, pending, zeros)
            tail.append(column)
        flush[name] = tuple(tail)
    input_dim = len(inputs).bit_length() - 1
    return Transducer(tuple(names), names[0], len(zeros), transitions, flush, input_dim)


def naf_transducer() -> Transducer:
    """Single-exponent recoder: binary in, non-adjacent digits out.  A
    pending 1 ("p1") resolves to +1 when the next digit is 0 and to -1
    (with carry, pending 2) when it is 1; even pendings emit 0."""
    return _carry_transducer(_naf_column, ((0,), (1,)))


def double_naf_transducer() -> Transducer:
    """Two-row recoder of a word and its ones' complement in lockstep.

    Input digit b feeds b to row 1 and 1-b to row 2, so the rows of the
    output are the non-adjacent forms of the input value and of its
    complement.  The six states are numbered "1".."6" in the builder's order.
    """
    return _carry_transducer(
        lambda a, b: _naf_column(a) + _naf_column(b), ((0, 1), (1, 0)), numbered=True
    )


def sjsf_transducer() -> Transducer:
    """The simple joint sparse form over bit pairs: letter k feeds bit
    k & 1 to row 1 and bit k >> 1 to row 2.  recoding.sjsf() runs the same
    carry steps from a nibble table, with no machine built."""
    return _carry_transducer(_sjsf_column, ((0, 0), (1, 0), (0, 1), (1, 1)))


# ---------------------------------------------------------------------------
# Exact chain analysis.


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals, rows/columns indexed by labels."""

    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("matrix shape does not match its labels")

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_row_stochastic(self) -> bool:
        return all(
            all(x >= 0 for x in row) and sum(row) == 1 for row in self.entries
        )


@dataclass(frozen=True)
class StateDistribution:
    """Probability row vector over chain states after a number of steps."""

    labels: tuple[str, ...]
    weights: tuple[Fraction, ...]
    step: int

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.labels):
            raise ValueError("weight vector does not match labels")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise ValueError("weights must be non-negative and sum to 1")

    def probability(self, label: str) -> Fraction:
        return self.weights[self.labels.index(label)]

    def times(self, p: RationalMatrix) -> "StateDistribution":
        if p.labels != self.labels:
            raise ValueError("label mismatch")
        numerators, denominator = next(_walk(p, self.weights))
        return StateDistribution(
            self.labels, _ratios(numerators, denominator), self.step + 1
        )


def transition_matrix(t: Transducer) -> RationalMatrix:
    """Chain over the machine's states under uniform independent input letters."""
    labels = t.states
    index = {s: i for i, s in enumerate(labels)}
    weight = Fraction(1, len(t.letters))
    rows = [[Fraction(0)] * len(labels) for _ in labels]
    for s in labels:
        for b in t.letters:
            rows[index[s]][index[t.transitions[(s, b)][0]]] += weight
    matrix = RationalMatrix(labels, tuple(tuple(r) for r in rows))
    if not matrix.is_row_stochastic():
        raise RuntimeError("transition matrix is not row-stochastic")
    return matrix


def _walk(
    p: RationalMatrix, weights: Sequence[Fraction]
) -> Iterator[tuple[list[int], int]]:
    """(numerators, denominator) of the weights after 1, 2, ... steps of p.

    p's entries are taken as integers over their least common denominator
    and the weights over theirs, so each step is integer arithmetic and
    the denominator grows by that factor.  Like StateDistribution, a step
    whose weights are negative or do not sum to 1 raises ValueError.
    """
    scale = math.lcm(*(x.denominator for row in p.entries for x in row))
    rows = [
        [(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x]
        for row in p.entries
    ]
    denominator = math.lcm(*(w.denominator for w in weights))
    numerators = [w.numerator * (denominator // w.denominator) for w in weights]
    while True:
        step = [0] * len(numerators)
        for v, row in zip(numerators, rows):
            if v:
                for j, a in row:
                    step[j] += v * a
        numerators = step
        denominator *= scale
        if min(numerators) < 0 or sum(numerators) != denominator:
            raise ValueError("weights must be non-negative and sum to 1")
        yield numerators, denominator


def _ratios(numerators: Iterable[int], denominator: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, denominator) for v in numerators)


def state_distribution(p: RationalMatrix, k: int) -> StateDistribution:
    """Exact distribution after k steps, started in the first-labelled state."""
    k = _integer("step count", k)
    if k < 0:
        raise ValueError("step count must be non-negative")
    start = StateDistribution(
        p.labels, tuple(Fraction(1 if i == 0 else 0) for i in range(p.size)), 0
    )
    if k == 0:
        return start
    numerators, denominator = next(islice(_walk(p, start.weights), k - 1, None))
    return StateDistribution(p.labels, _ratios(numerators, denominator), k)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square exact linear system by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        scale = aug[c][c]
        aug[c] = [x / scale for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def stationary_distribution(p: RationalMatrix) -> StateDistribution:
    """Exact solution of pi P = pi on the unique recurrent class.

    Transient states get probability 0.  Raises if the chain has more than
    one recurrent class (then no single stationary start-independent limit
    exists).
    """
    if not p.is_row_stochastic():
        raise ValueError("matrix is not row-stochastic")
    successors = {
        i: [j for j, x in enumerate(row) if x != 0] for i, row in enumerate(p.entries)
    }
    recurrent = [c for c, closed in _components(successors).items() if closed]
    if len(recurrent) != 1:
        raise ValueError("recurrent class is not unique")
    support = sorted(recurrent[0])
    m = len(support)
    # (P_sub^T - I) pi^T = 0, whose last row the others imply, with the
    # normalization row sum(pi) = 1 in its place.
    rows = [
        [p.entries[support[j]][support[i]] - (1 if i == j else 0) for j in range(m)]
        for i in range(m - 1)
    ]
    rows.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * (m - 1) + [Fraction(1)]
    pi_sub = _solve_exact([[Fraction(x) for x in row] for row in rows], rhs)
    weights = [Fraction(0)] * p.size
    for idx, w in zip(support, pi_sub):
        weights[idx] = w
    dist = StateDistribution(p.labels, tuple(weights), 0)
    if dist.times(p).weights != dist.weights:
        raise RuntimeError("stationary check pi P = pi failed")
    return dist


@cache
def _checked_machine(build: Callable[[], Transducer]) -> Transducer:
    """The machine build() returns, built once per builder; callers only
    read it.  It must have the layout _column_counts reads, as the
    builders' machines do, or ValueError: a letter emits no column from
    the initial state, which no letter re-enters, and one column from
    every other state."""
    t = build()
    for (state, _), (target, word) in t.transitions.items():
        if target == t.initial or len(word) != (0 if state == t.initial else 1):
            raise ValueError("machine does not emit one column per letter after the first")
    return t


def _column_counts(
    build: Callable[[], Transducer], length: int, reward: Callable[[Column], int],
    x: int = 1,
) -> list[int]:
    """columns[j]: reward(column j) summed over every input of length >= 1
    letters, an input with k one bits counted x ** k times (so at x = 2**B
    above every count, bits [k*B, (k+1)*B) count the inputs with k one
    bits); an input whose output ends before column j adds nothing.

    Letter k emits column k - 1 (the layout _checked_machine checks):
    letters 1 .. length - 1 emit columns 0 .. length - 2, and the flush
    emits the rest, as many as the longest flush word.  Column k - 1 sums,
    over the states after k letters, the counted inputs there times the
    reward summed over the next letter, times the counted choices of the
    letters after; a flush column sums the inputs ending in each state
    times the reward of that state's flush column.
    """
    t = _checked_machine(build)
    weights = [x ** b.bit_count() for b in t.letters]
    steps = {
        s: [(t.transitions[(s, b)], w) for b, w in zip(t.letters, weights)]
        for s in t.states
    }
    emitted = {s: sum(w * reward(c) for (_, word), w in steps[s] for c in word) for s in steps}
    inputs, columns = {t.initial: 1}, []
    for k in range(1, length + 1):
        after = dict.fromkeys(t.states, 0)
        for s, v in inputs.items():
            for (target, _), w in steps[s]:
                after[target] += v * w
        inputs = after
        if k < length:
            here = sum(v * emitted[s] for s, v in inputs.items())
            columns.append(here * sum(weights) ** (length - 1 - k))
    flushed = [0] * max(map(len, t.flush.values()))
    for s, v in inputs.items():
        for j, column in enumerate(t.flush[s]):
            flushed[j] += v * reward(column)
    return columns + flushed


def _packed_range(count: int) -> tuple[int, int]:
    """(words, ones): the integers 0 .. count - 1 side by side in one
    integer, a field of _FIELD_BITS bits each, 0 lowest, and the integer
    with bit 0 of every field set.  Then (words >> j & ones).bit_count()
    counts the fields with bit j set: one shift, mask and popcount over
    all of them.  Built by doubling: the fields c..2c-1 are the fields
    0..c-1 plus c.  A count that is not a power of two is cut from the
    next one."""
    words, ones, filled = 0, 1, 1
    while filled < count:
        words |= (words + filled * ones) << _FIELD_BITS * filled
        ones |= ones << _FIELD_BITS * filled
        filled *= 2
    if filled > count:
        keep = (1 << _FIELD_BITS * count) - 1
        words, ones = words & keep, ones & keep
    return words, ones


def zero_output_probability(k: int, method: str = "markov") -> Fraction:
    """Exact probability that output digit k of row 1 is zero.

    Row 1 is the recoding of the input value itself; the input is uniform
    over binary words long enough to determine digit k (k+2 positions).
    "markov" counts the inputs whose column k has a zero row-1 digit over
    the chain of the product machine (_column_counts); "exhaustive"
    counts all inputs and is capped at k = 20.  Both agree exactly.  The
    result differs from the limit 2/3 by at most 2**-k times
    ZERO_PROBABILITY_ERROR_CONSTANT.

    The exhaustive count packs every input into one integer, a field each
    (_packed_range), and takes the NAF support of all of them at once:
    under the cap 3n fits its field, so no carry crosses one, and bit 0 of
    3n ^ n is always 0, so the shift takes no bit across either.
    """
    k = _integer("digit position", k)
    if k < 0:
        raise ValueError("digit position must be non-negative")
    if method == "markov":
        zeros = _column_counts(double_naf_transducer, k + 2, lambda c: c[0] == 0)
        return Fraction(zeros[k], 1 << k + 2)
    if method == "exhaustive":
        if k > _EXHAUSTIVE_POSITION_BOUND:
            raise ValueError(
                f"exhaustive enumeration capped at k = {_EXHAUSTIVE_POSITION_BOUND}"
            )
        inputs = 1 << k + 2
        words, ones = _packed_range(inputs)
        nonzero = (_naf_support(words) >> k & ones).bit_count()
        return Fraction(inputs - nonzero, inputs)
    raise ValueError(f"unknown method {method!r}")
