"""Recoding transducers and their exact Markov-chain analysis.

The machines read standard binary digits least significant first and emit
signed digit columns with a one-position delay: the digit for position j
is written while reading position j+1, once the look-ahead needed for
non-adjacency is available.  Reading position j leaves the machine holding
a pending value in {0, 1, 2} (input digit plus carry); the flush word
realizes whatever the pending value still contributes after the last
input digit.

Everything downstream of the machines is exact rational arithmetic; no
floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Hashable, Iterable, Mapping

from .expansions import Expansion, JointExpansion
from .recoding import _naf_support

Column = tuple[int, ...]
OutputWord = tuple[Column, ...]

TERMINAL = "end"

ZERO_PROBABILITY_ERROR_CONSTANT = 1

_EXHAUSTIVE_POSITION_BOUND = 20


@dataclass(frozen=True)
class Transducer:
    """Deterministic letter-to-word transducer over input alphabet {0,1}.

    transitions maps (state, input digit) to (next state, output word);
    an output word is a tuple of columns, each column one output digit per
    row.  flush maps each state to the word emitted when input ends there.
    """

    states: tuple[str, ...]
    initial: str
    output_dim: int
    transitions: Mapping[tuple[str, int], tuple[str, OutputWord]]
    flush: Mapping[str, OutputWord]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        for s in self.states:
            if s not in self.flush:
                raise ValueError(f"state {s!r} has no flush word")
            self._check_word(self.flush[s])
            for b in (0, 1):
                if (s, b) not in self.transitions:
                    raise ValueError(f"state {s!r} lacks a transition on {b}")
                target, word = self.transitions[(s, b)]
                if target not in self.states:
                    raise ValueError(f"transition target {target!r} unknown")
                self._check_word(word)
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for b in (0, 1):
                t = self.transitions[(s, b)][0]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if seen != set(self.states):
            raise ValueError("unreachable states present")

    def _check_word(self, word: OutputWord) -> None:
        for col in word:
            if len(col) != self.output_dim:
                raise ValueError("output column has wrong dimension")

    def step(self, state: str, bit: int) -> tuple[str, OutputWord]:
        if bit not in (0, 1):
            raise ValueError(f"input digit {bit} outside {{0,1}}")
        return self.transitions[(state, bit)]

    def run(self, bits: Iterable[int]) -> JointExpansion:
        """Feed a least-significant-first digit stream, flush, and collect."""
        state = self.initial
        columns: list[Column] = []
        for b in bits:
            state, word = self.step(state, b)
            columns.extend(word)
        columns.extend(self.flush[state])
        rows = (Expansion(col[i] for col in columns) for i in range(self.output_dim))
        return JointExpansion(tuple(rows))

    def run_word(self, word: Expansion) -> JointExpansion:
        if word._negative or word._two:
            raise ValueError("transducer input must be a standard binary word")
        return self.run(word.digits)


def _components(
    successors: Mapping[Hashable, Iterable[Hashable]],
) -> dict[frozenset, bool]:
    """Strongly connected components, each mapped to whether it is
    recurrent (reaches nothing outside itself).  Reachability by search
    from every node: quadratic, which suits graphs of a few states."""
    reach = {}
    for s in successors:
        seen, stack = {s}, [s]
        while stack:
            for target in successors[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        reach[s] = seen
    comps = {s: frozenset(u for u in seen if s in reach[u]) for s, seen in reach.items()}
    return {comps[s]: comps[s] == reach[s] for s in reach}


def strongly_connected_components(t: Transducer) -> tuple[frozenset[str], ...]:
    """SCCs of the transition graph, with flushing modelled as an edge to
    a terminal sink state.  Sorted by size, then by state labels."""
    successors = {
        s: [t.transitions[(s, b)][0] for b in (0, 1)] + [TERMINAL]
        for s in t.states
    }
    successors[TERMINAL] = []
    return tuple(sorted(_components(successors), key=lambda c: (len(c), sorted(c))))


def naf_transducer() -> Transducer:
    """Single-exponent recoder: binary in, non-adjacent digits out.

    States: "start" before any digit is read, then "p0"/"p1"/"p2" for the
    pending value at the most recently read position.  A pending 1 resolves
    to +1 when the next digit is 0 and to -1 (with carry, pending 2) when
    the next digit is 1; even pendings always emit 0.
    """
    z: OutputWord = ((0,),)
    transitions = {
        ("start", 0): ("p0", ()),
        ("start", 1): ("p1", ()),
        ("p0", 0): ("p0", z),
        ("p0", 1): ("p1", z),
        ("p1", 0): ("p0", ((1,),)),
        ("p1", 1): ("p2", ((-1,),)),
        ("p2", 0): ("p1", z),
        ("p2", 1): ("p2", z),
    }
    flush = {
        "start": (),
        "p0": ((0,),),
        "p1": ((1,),),
        "p2": ((0,), (1,)),
    }
    return Transducer(("start", "p0", "p1", "p2"), "start", 1, transitions, flush)


def double_naf_transducer() -> Transducer:
    """Product machine recoding a word and its ones' complement in lockstep.

    Each input digit b drives one copy of the single recoder on b and a
    second copy on 1-b, so row 1 of the output is the non-adjacent form of
    the input value and row 2 that of its complement.  The reachable part
    has six states, named "1".."6" in the order breadth-first search
    (inputs 0, then 1) discovers them.
    """
    m = naf_transducer()

    def merged(w1: OutputWord, w2: OutputWord) -> OutputWord:
        if len(w1) != len(w2):
            raise RuntimeError("component machines fell out of step")
        return tuple((c1[0], c2[0]) for c1, c2 in zip(w1, w2))

    initial = (m.initial, m.initial)
    pairs = [initial]
    label = {initial: "1"}
    transitions: dict[tuple[str, int], tuple[str, OutputWord]] = {}
    flush: dict[str, OutputWord] = {}
    for s1, s2 in pairs:
        source = label[(s1, s2)]
        for b in (0, 1):
            t1, w1 = m.transitions[(s1, b)]
            t2, w2 = m.transitions[(s2, 1 - b)]
            target = (t1, t2)
            if target not in label:
                label[target] = str(len(pairs) + 1)
                pairs.append(target)
            transitions[(source, b)] = (label[target], merged(w1, w2))
        f1, f2 = m.flush[s1], m.flush[s2]
        flush[source] = tuple(
            (c1[0], c2[0]) for c1, c2 in zip_longest(f1, f2, fillvalue=(0,))
        )
    return Transducer(tuple(label[p] for p in pairs), "1", 2, transitions, flush)


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

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def is_row_stochastic(self) -> bool:
        return all(
            all(x >= 0 for x in row) and sum(row) == 1 for row in self.entries
        )

    def multiply(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.labels != other.labels:
            raise ValueError("label mismatch")
        n = self.size
        rows = tuple(
            tuple(
                sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), Fraction(0))
                for j in range(n)
            )
            for i in range(n)
        )
        return RationalMatrix(self.labels, rows)

    def power(self, k: int) -> "RationalMatrix":
        if k < 0:
            raise ValueError("negative power")
        result = RationalMatrix(self.labels, _identity_rows(self.size))
        for _ in range(k):
            result = result.multiply(self)
        return result


def _identity_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
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
        n = len(self.labels)
        weights = tuple(
            sum((self.weights[i] * p.entries[i][j] for i in range(n)), Fraction(0))
            for j in range(n)
        )
        return StateDistribution(self.labels, weights, self.step + 1)


def transition_matrix(t: Transducer) -> RationalMatrix:
    """Chain over the machine's states under uniform independent input digits."""
    labels = t.states
    index = {s: i for i, s in enumerate(labels)}
    half = Fraction(1, 2)
    rows = [[Fraction(0)] * len(labels) for _ in labels]
    for s in labels:
        for b in (0, 1):
            rows[index[s]][index[t.transitions[(s, b)][0]]] += half
    matrix = RationalMatrix(labels, tuple(tuple(r) for r in rows))
    if not matrix.is_row_stochastic():
        raise RuntimeError("transition matrix is not row-stochastic")
    return matrix


def state_distribution(p: RationalMatrix, k: int) -> StateDistribution:
    """Exact distribution after k steps, started in the first-labelled state."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    dist = StateDistribution(
        p.labels,
        tuple(Fraction(1 if i == 0 else 0) for i in range(p.size)),
        0,
    )
    for _ in range(k):
        dist = dist.times(p)
    return dist


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a consistent (possibly overdetermined) exact linear system."""
    m = len(rows)
    n = len(rows[0])
    aug = [rows[i] + [rhs[i]] for i in range(m)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValueError("inconsistent linear system")
    if len(pivots) != n:
        raise ValueError("underdetermined linear system")
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        solution[c] = aug[i][n]
    return solution


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
    # (P_sub^T - I) pi^T = 0 plus the normalization row sum(pi) = 1.
    rows = [
        [p.entries[support[j]][support[i]] - (1 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    rows.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * m + [Fraction(1)]
    pi_sub = _solve_exact([[Fraction(x) for x in row] for row in rows], rhs)
    weights = [Fraction(0)] * p.size
    for idx, w in zip(support, pi_sub):
        weights[idx] = w
    dist = StateDistribution(p.labels, tuple(weights), 0)
    if dist.times(p).weights != dist.weights:
        raise RuntimeError("stationary check pi P = pi failed")
    return dist


def zero_output_probability(k: int, method: str = "markov") -> Fraction:
    """Exact probability that output digit k of row 1 is zero.

    Row 1 is the recoding of the input value itself; the input is uniform
    over binary words long enough to determine digit k (k+2 positions).
    "markov" evaluates the chain of the product machine; "exhaustive"
    enumerates all inputs arithmetically and is capped at k = 20.  Both
    agree exactly.  The result differs from the limit 2/3 by at most
    2**-k times ZERO_PROBABILITY_ERROR_CONSTANT.
    """
    if k < 0:
        raise ValueError("digit position must be non-negative")
    if method == "markov":
        t = double_naf_transducer()
        p = transition_matrix(t)
        dist = state_distribution(p, k + 1)
        total = Fraction(0)
        for label, weight in zip(dist.labels, dist.weights):
            if weight == 0:
                continue
            zero_inputs = 0
            for b in (0, 1):
                word = t.transitions[(label, b)][1]
                if not word:
                    raise RuntimeError("support reached the silent initial state")
                if word[0][0] == 0:
                    zero_inputs += 1
            total += weight * Fraction(zero_inputs, 2)
        return total
    if method == "exhaustive":
        if k > _EXHAUSTIVE_POSITION_BOUND:
            raise ValueError(
                f"exhaustive enumeration capped at k = {_EXHAUSTIVE_POSITION_BOUND}"
            )
        width = k + 2
        count = sum(_naf_support(n) >> k & 1 == 0 for n in range(1 << width))
        return Fraction(count, 1 << width)
    raise ValueError(f"unknown method {method!r}")
