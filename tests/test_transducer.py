"""Recoding transducers and their exact Markov-chain analysis."""

from fractions import Fraction
from itertools import product

import pytest

from digitkit.recoding import _naf_support, naf
from test_properties import MACHINES, run_by_digits, sjsf_machine_matches
from digitkit.transducer import (
    TERMINAL,
    ZERO_PROBABILITY_ERROR_CONSTANT,
    RationalMatrix,
    StateDistribution,
    Transducer,
    _carry_transducer,
    _column_counts,
    _solve_exact,
    double_naf_transducer,
    naf_transducer,
    sjsf_transducer,
    state_distribution,
    stationary_distribution,
    strongly_connected_components,
    transition_matrix,
    zero_output_probability,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
ZERO = Fraction(0)

EXPECTED_P_ROWS = (
    (ZERO, HALF, HALF, ZERO, ZERO, ZERO),
    (ZERO, ZERO, HALF, HALF, ZERO, ZERO),
    (ZERO, HALF, ZERO, ZERO, HALF, ZERO),
    (ZERO, ZERO, ZERO, HALF, ZERO, HALF),
    (ZERO, ZERO, ZERO, ZERO, HALF, HALF),
    (ZERO, ZERO, ZERO, HALF, HALF, ZERO),
)


def bits_of(value, length):
    return tuple((value >> i) & 1 for i in range(length))


def test_naf_transducer_reproduces_naf():
    machine = naf_transducer()
    assert machine.output_dim == 1
    for length in range(0, 11):
        for value in range(1 << length):
            out = machine.run(bits_of(value, length))
            assert out.rows[0].trimmed() == naf(value)


def test_naf_transducer_tables():
    machine = naf_transducer()
    assert machine.states == ("start", "p0", "p1", "p2")
    assert (machine.initial, machine.input_dim, machine.output_dim) == ("start", 1, 1)
    assert machine.transitions == {
        ("start", 0): ("p0", ()),
        ("start", 1): ("p1", ()),
        ("p0", 0): ("p0", ((0,),)),
        ("p0", 1): ("p1", ((0,),)),
        ("p1", 0): ("p0", ((1,),)),
        ("p1", 1): ("p2", ((-1,),)),
        ("p2", 0): ("p1", ((0,),)),
        ("p2", 1): ("p2", ((0,),)),
    }
    assert machine.flush == {
        "start": (),
        "p0": ((0,),),
        "p1": ((1,),),
        "p2": ((0,), (1,)),
    }


def test_double_naf_transducer_tables():
    machine = double_naf_transducer()
    assert machine.states == ("1", "2", "3", "4", "5", "6")
    assert (machine.initial, machine.input_dim, machine.output_dim) == ("1", 1, 2)
    assert machine.transitions == {
        ("1", 0): ("2", ()),
        ("1", 1): ("3", ()),
        ("2", 0): ("4", ((0, -1),)),
        ("2", 1): ("3", ((0, 1),)),
        ("3", 0): ("2", ((1, 0),)),
        ("3", 1): ("5", ((-1, 0),)),
        ("4", 0): ("4", ((0, 0),)),
        ("4", 1): ("6", ((0, 0),)),
        ("5", 0): ("6", ((0, 0),)),
        ("5", 1): ("5", ((0, 0),)),
        ("6", 0): ("4", ((1, -1),)),
        ("6", 1): ("5", ((-1, 1),)),
    }
    assert machine.flush == {
        "1": (),
        "2": ((0, 1),),
        "3": ((1, 0),),
        "4": ((0, 0), (0, 1)),
        "5": ((0, 0), (1, 0)),
        "6": ((1, 1),),
    }


def test_sjsf_transducer_reproduces_sjsf():
    machine = sjsf_transducer()
    assert (machine.initial, machine.input_dim, machine.output_dim) == ("start", 2, 2)
    for m in range(1 << 6):
        for n in range(1 << 6):
            for extra in range(4):
                assert sjsf_machine_matches(m, n, extra), (m, n, extra)


def test_sjsf_transducer_chain():
    machine = sjsf_transducer()
    pending = frozenset(f"p{a}{b}" for a in range(3) for b in range(3))
    assert strongly_connected_components(machine) == (
        frozenset({TERMINAL}),
        frozenset({"start"}),
        pending,
    )
    p = transition_matrix(machine)
    pi = stationary_distribution(p)
    nonzero = sum(
        weight * Fraction(sum(
            any(machine.transitions[(state, letter)][1][0])
            for letter in machine.letters
        ), len(machine.letters))
        for state, weight in zip(pi.labels, pi.weights)
        if weight
    )
    assert nonzero == HALF
    assert {s for s, w in zip(pi.labels, pi.weights) if w} == pending


def test_run_matches_its_digits_on_every_short_input():
    for machine in MACHINES:
        for length in range(9):
            for letters in product(machine.letters, repeat=length):
                assert machine.run(letters) == run_by_digits(machine, letters), (
                    machine.states,
                    letters,
                )


def test_transducer_step_rejects_unknown_letters():
    machine = naf_transducer()
    assert machine.step("p1", 1) == ("p2", ((-1,),))
    with pytest.raises(ValueError):
        machine.step("p1", 2)
    with pytest.raises(ValueError):
        sjsf_transducer().run([0, 4])


def test_transducer_validation():
    with pytest.raises(ValueError):
        Transducer(
            states=("a",),
            initial="a",
            output_dim=1,
            transitions={("a", 0): ("a", ())},
            flush={"a": ()},
        )
    with pytest.raises(ValueError):
        Transducer(
            states=("a",),
            initial="a",
            output_dim=1,
            transitions={("a", 0): ("b", ()), ("a", 1): ("a", ())},
            flush={"a": ()},
        )
    with pytest.raises(ValueError):
        Transducer(
            states=("a",),
            initial="a",
            output_dim=2,
            transitions={("a", 0): ("a", ((1,),)), ("a", 1): ("a", ())},
            flush={"a": ()},
        )
    for bad in (3, -3):
        with pytest.raises(ValueError, match="outside"):
            Transducer(
                states=("a",),
                initial="a",
                output_dim=1,
                transitions={("a", 0): ("a", ((bad,),)), ("a", 1): ("a", ())},
                flush={"a": ()},
            )
        with pytest.raises(ValueError, match="outside"):
            Transducer(
                states=("a",),
                initial="a",
                output_dim=1,
                transitions={("a", 0): ("a", ()), ("a", 1): ("a", ())},
                flush={"a": ((0,), (bad,))},
            )


def test_transducer_needs_its_start_flush_words_and_reachable_states():
    loop = {("a", 0): ("a", ()), ("a", 1): ("a", ())}
    with pytest.raises(ValueError, match="^initial state missing from state set$"):
        Transducer(("a",), "b", 1, loop, {"a": ()})
    with pytest.raises(ValueError, match="^state 'a' has no flush word$"):
        Transducer(("a",), "a", 1, loop, {})
    island = {**loop, ("b", 0): ("a", ()), ("b", 1): ("b", ())}
    with pytest.raises(ValueError, match="^unreachable states present$"):
        Transducer(("a", "b"), "a", 1, island, {"a": (), "b": ()})


def test_a_rule_whose_carries_never_die_out_is_refused():
    # Digit -1 everywhere: a pending 1 carries 1 on every zero bit.
    with pytest.raises(RuntimeError, match="^the rule's carries never die out$"):
        _carry_transducer(lambda a: (-1,), ((0,), (1,)))


def test_double_machine_shape():
    machine = double_naf_transducer()
    assert machine.output_dim == 2
    assert machine.initial == "1"
    assert set(machine.states) == {"1", "2", "3", "4", "5", "6"}


def test_double_machine_outputs_word_and_complement():
    machine = double_naf_transducer()
    for length in range(1, 11):
        full = (1 << length) - 1
        for value in range(1 << length):
            out = machine.run(bits_of(value, length))
            assert out.rows[0].trimmed() == naf(value)
            assert out.rows[1].trimmed() == naf(full - value)


def test_strongly_connected_components():
    assert strongly_connected_components(naf_transducer()) == (
        frozenset({TERMINAL}),
        frozenset({"start"}),
        frozenset({"p0", "p1", "p2"}),
    )
    assert strongly_connected_components(double_naf_transducer()) == (
        frozenset({"1"}),
        frozenset({TERMINAL}),
        frozenset({"2", "3"}),
        frozenset({"4", "5", "6"}),
    )


def test_transition_matrix_is_the_expected_one():
    p = transition_matrix(double_naf_transducer())
    assert p.labels == ("1", "2", "3", "4", "5", "6")
    assert p.entries == EXPECTED_P_ROWS
    assert p.is_row_stochastic()


def test_rational_matrix_algebra():
    with pytest.raises(ValueError):
        RationalMatrix(("a",), ((Fraction(1), Fraction(0)),))


def test_state_distribution_transients_halve():
    p = transition_matrix(double_naf_transducer())
    start = state_distribution(p, 0)
    assert start.probability("1") == 1
    for k in range(1, 21):
        dist = state_distribution(p, k)
        assert dist.probability("1") == 0
        assert dist.probability("2") == Fraction(1, 1 << k)
        assert dist.probability("3") == Fraction(1, 1 << k)
        assert sum(dist.weights) == 1


def distributions_by_fractions(p, steps):
    """The weights after 0..steps steps from the first state, one Fraction
    product-sum per entry."""
    n = p.size
    weights = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
    yield weights
    for _ in range(steps):
        weights = tuple(
            sum((weights[i] * p.entries[i][j] for i in range(n)), Fraction(0))
            for j in range(n)
        )
        yield weights


# Denominators 3 and 5: the common denominator 15 is neither of them,
# nor a power of two.
THIRDS_AND_FIFTHS = RationalMatrix(
    ("a", "b", "c"),
    (
        (THIRD, 2 * THIRD, ZERO),
        (ZERO, Fraction(2, 5), Fraction(3, 5)),
        (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)),
    ),
)


def test_state_distribution_matches_the_fraction_loop():
    matrices = [transition_matrix(m) for m in MACHINES] + [THIRDS_AND_FIFTHS]
    for p in matrices:
        want = list(distributions_by_fractions(p, 41))
        for k in range(41):
            dist = state_distribution(p, k)
            assert (dist.labels, dist.weights, dist.step) == (p.labels, want[k], k)
            step = dist.times(p)
            assert (step.weights, step.step) == (want[k + 1], k + 1)


def test_state_distribution_rejects_a_bad_matrix():
    one = Fraction(1)
    # Row "b" sums to 3/4; the walk first reaches it at step 2.
    leaky = RationalMatrix(("a", "b"), ((ZERO, one), (HALF, Fraction(1, 4))))
    assert state_distribution(leaky, 1).weights == (ZERO, one)
    for k in (2, 3):
        with pytest.raises(ValueError, match="sum to 1"):
            state_distribution(leaky, k)
    with pytest.raises(ValueError, match="sum to 1"):
        state_distribution(leaky, 1).times(leaky)
    # Rows that sum to 1 through a negative entry.
    signed = RationalMatrix(("a", "b"), ((Fraction(2), -one), (ZERO, one)))
    with pytest.raises(ValueError, match="non-negative"):
        state_distribution(signed, 1)
    with pytest.raises(ValueError, match="label mismatch"):
        state_distribution(signed, 0).times(RationalMatrix(("x", "y"), leaky.entries))


def test_solve_exact_pivots_and_rejects_a_singular_system():
    one, two = Fraction(1), Fraction(2)
    # The first column's only nonzero entry is in the second row.
    assert _solve_exact([[ZERO, one], [one, one]], [two, Fraction(3)]) == [one, two]
    with pytest.raises(ValueError, match="singular"):
        _solve_exact([[one, two], [two, Fraction(4)]], [one, two])


def test_stationary_distribution():
    p = transition_matrix(double_naf_transducer())
    pi = stationary_distribution(p)
    assert pi.weights == (ZERO, ZERO, ZERO, THIRD, THIRD, THIRD)
    assert pi.times(p).weights == pi.weights

    q = transition_matrix(naf_transducer())
    pi_naf = stationary_distribution(q)
    assert sorted(pi_naf.weights) == [ZERO, THIRD, THIRD, THIRD]
    assert pi_naf.probability(q.labels[0]) == 0

    # The recurrent class {a, b} precedes the transient state c.
    r = RationalMatrix(
        ("a", "b", "c"),
        ((ZERO, Fraction(1), ZERO), (Fraction(1), ZERO, ZERO), (HALF, ZERO, HALF)),
    )
    assert stationary_distribution(r).weights == (HALF, HALF, ZERO)

    identity = RationalMatrix(("a", "b"), ((Fraction(1), ZERO), (ZERO, Fraction(1))))
    with pytest.raises(ValueError, match="not unique"):
        stationary_distribution(identity)


def test_state_distribution_validation():
    with pytest.raises(ValueError):
        StateDistribution(("a", "b"), (Fraction(1, 2), Fraction(1, 4)), 0)
    with pytest.raises(ValueError):
        StateDistribution(("a",), (Fraction(-1), Fraction(2)), 0)
    with pytest.raises(ValueError):
        StateDistribution(("a", "b"), (Fraction(-1), Fraction(2)), 0)
    dist = StateDistribution(("a", "b"), (Fraction(1, 2), Fraction(1, 2)), 3)
    assert dist.step == 3
    assert dist.probability("b") == Fraction(1, 2)


def test_chain_analysis_refuses_a_negative_step_or_a_substochastic_matrix():
    p = transition_matrix(double_naf_transducer())
    with pytest.raises(ValueError, match="^step count must be non-negative$"):
        state_distribution(p, -1)
    leaky = RationalMatrix(("a", "b"), ((HALF, ZERO), (ZERO, Fraction(1))))
    with pytest.raises(ValueError, match="^matrix is not row-stochastic$"):
        stationary_distribution(leaky)


def test_zero_output_probability_closed_form():
    for k in range(13):
        expected = Fraction(2, 3) - Fraction(1, 6) * Fraction(-1, 2) ** k
        assert zero_output_probability(k) == expected
        bound = Fraction(ZERO_PROBABILITY_ERROR_CONSTANT, 1 << k)
        assert abs(zero_output_probability(k) - Fraction(2, 3)) <= bound


def test_zero_output_probability_methods_agree():
    for k in range(21):
        assert zero_output_probability(k, "markov") == zero_output_probability(
            k, "exhaustive"
        )


def zero_output_by_inputs(k):
    """The exhaustive probability by a loop over the inputs, one NAF
    support per input word of k + 2 bits."""
    inputs = 1 << k + 2
    return Fraction(sum(_naf_support(n) >> k & 1 == 0 for n in range(inputs)), inputs)


def test_packed_zero_count_equals_the_per_input_loop():
    for k in range(13):
        assert zero_output_probability(k, "exhaustive") == zero_output_by_inputs(k), k


def test_chain_arguments_must_be_integers():
    p = transition_matrix(double_naf_transducer())
    for method in ("markov", "exhaustive"):
        for bad in (3.5, "3"):
            with pytest.raises(ValueError, match=f"^digit position {bad!r} is not an integer$"):
                zero_output_probability(bad, method)
        assert zero_output_probability(3.0, method) == zero_output_probability(3, method)
    for bad in (2.5, "2"):
        with pytest.raises(ValueError, match=f"^step count {bad!r} is not an integer$"):
            state_distribution(p, bad)
    assert state_distribution(p, 2.0) == state_distribution(p, 2)


def test_zero_output_probability_bounds():
    with pytest.raises(ValueError):
        zero_output_probability(21, "exhaustive")
    with pytest.raises(ValueError):
        zero_output_probability(3, "montecarlo")
    with pytest.raises(ValueError):
        zero_output_probability(-1)


def test_zero_output_probability_builds_the_chain_once(monkeypatch):
    # _checked_machine builds each machine once, for the zero-digit
    # probability and for the SJSF exhaustive statistics alike.
    import digitkit.transducer as td
    from digitkit import experiments as ex
    from digitkit.recoding import RecodingScheme

    builds = []

    def counted(build):
        def counting():
            builds.append(build)
            return build()

        return counting

    monkeypatch.setattr(td, "double_naf_transducer", counted(double_naf_transducer))
    monkeypatch.setattr(ex, "sjsf_transducer", counted(sjsf_transducer))
    values = [zero_output_probability(k) for k in range(10)]
    records = [ex.exhaustive_stats(RecodingScheme.SJSF, length) for length in (1, 2, 5)]
    assert builds == [double_naf_transducer, sjsf_transducer]
    assert values[3] == Fraction(2, 3) - Fraction(1, 6) * Fraction(-1, 2) ** 3
    assert records[1].mean_weight == 1.5
    for build in (double_naf_transducer, sjsf_transducer):
        machine = td._checked_machine(build)
        assert td._checked_machine(build) is machine
        assert build() is not build()
        assert build() is not machine


def digit_zero(column):
    return column[0] == 0


def run_column_sums(machine, length, reward):
    """by_ones[k][j]: reward(column j) summed over every input of `length`
    letters with k one bits, by Transducer.run on each input."""
    by_ones = [[] for _ in range(length * machine.input_dim + 1)]
    for letters in product(machine.letters, repeat=length):
        sums = by_ones[sum(b.bit_count() for b in letters)]
        for j, column in enumerate(machine.run(letters).columns()):
            if j == len(sums):
                sums.append(0)
            sums[j] += reward(column)
    return by_ones


def test_column_counts_equal_the_runs():
    for build, lengths in (
        (naf_transducer, range(1, 11)),
        (double_naf_transducer, range(1, 11)),
        (sjsf_transducer, range(1, 6)),
    ):
        machine = build()
        widest = max(map(len, machine.flush.values()))
        for length in lengths:
            field = length * machine.input_dim + 1  # every count is below 2**field
            for reward in (any, digit_zero):
                counts = _column_counts(build, length, reward)
                marked = _column_counts(build, length, reward, 1 << field)
                assert len(counts) == len(marked) == length - 1 + widest
                # Columns no input reaches sum to nothing.
                by_ones = [
                    sums + [0] * (len(counts) - len(sums))
                    for sums in run_column_sums(machine, length, reward)
                ]
                assert counts == [sum(column) for column in zip(*by_ones)], (build, length)
                # Marked by popcount: field k of each column counts the
                # inputs with k one bits.
                for ones, sums in enumerate(by_ones):
                    fields = [c >> field * ones & (1 << field) - 1 for c in marked]
                    assert fields == sums, (build, length, ones)
                assert not any(c >> field * len(by_ones) for c in marked)


def test_column_counts_reject_a_machine_that_breaks_the_layout():
    naf = naf_transducer()
    late = dict(naf.transitions)
    late[("p2", 1)] = ("p2", ((0,), (0,)))  # two columns on one letter
    early = dict(naf.transitions)
    early[("start", 0)] = ("p0", ((0,),))  # a column on the first letter
    back = dict(naf.transitions)
    back[("p0", 0)] = ("start", ((0,),))  # the start state re-entered
    for transitions in (late, early, back):
        machine = Transducer(naf.states, naf.initial, 1, transitions, naf.flush)
        with pytest.raises(ValueError, match="one column per letter"):
            _column_counts(lambda: machine, 3, any)
