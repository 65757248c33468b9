"""Recoders: non-adjacent form, joint sparse form, complement-aware form,
digit-2 reduction, and the brute-force minimality oracles."""

import functools
import hashlib
import os
import random
import subprocess
import sys
from collections import deque
from itertools import product
from pathlib import Path

import pytest

from digitkit import recoding
from digitkit.expansions import Expansion, JointExpansion, binary
from digitkit.recoding import (
    ORACLE_BOUND,
    RecodingScheme,
    is_naf,
    is_sjsf,
    min_joint_weight_oracle,
    min_weight1_oracle,
    naf,
    naf_complement_weight_gap,
    recode_joint,
    reduce_digit2,
    sjsf,
    wllc_joint,
    wllc_recode,
    _JOINT_WEIGHT,
    _WEIGHT1,
)


def test_naf_frozen_examples():
    assert naf(0).digits == ()
    assert naf(1).digits == (1,)
    assert naf(3).digits == (-1, 0, 1)
    assert naf(7).digits == (-1, 0, 0, 1)
    assert naf(13).digits == (1, 0, -1, 0, 1)
    assert naf(-3).digits == (1, 0, -1)


def test_naf_round_trip_and_syntax():
    for n in range(-600, 600):
        e = naf(n)
        assert e.value() == n
        assert is_naf(e)
        if n:
            assert e.digits[-1] != 0


def test_naf_weight_matches_support_identity():
    for n in range(-300, 300):
        support = ((3 * n) ^ n) >> 1
        weight = bin(support & ((1 << 64) - 1)).count("1") if n >= 0 else None
        if n >= 0:
            assert naf(n).weight() == weight


def test_is_naf_rejects_adjacent_nonzeros():
    assert not is_naf(Expansion((1, 1)))
    assert not is_naf(Expansion((1, -1, 0)))
    assert not is_naf(Expansion((2, 0, 1)))
    assert is_naf(Expansion((1, 0, -1)))


def test_sjsf_frozen_example():
    j = sjsf(3, 2)
    assert j.rows[0].digits == (1, 1)
    assert j.rows[1].digits == (0, 1)
    assert j.joint_weight() == 2


def test_sjsf_exhaustive_small():
    for m in range(64):
        for n in range(64):
            j = sjsf(m, n)
            assert j.values() == (m, n)
            assert is_sjsf(j)
            assert all(d in (-1, 0, 1) for r in j.rows for d in r.digits)
            if m or n:
                assert any(j.column(len(j) - 1))


def test_sjsf_random_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.getrandbits(128), rng.getrandbits(128)
        j = sjsf(m, n)
        assert j.values() == (m, n)
        assert is_sjsf(j)


def test_sjsf_rejects_negative():
    with pytest.raises(ValueError):
        sjsf(-1, 3)
    with pytest.raises(ValueError):
        sjsf(3, -1)


def test_integer_arguments_are_checked_before_any_read():
    # Integral floats and bools pass as their ints; anything else is refused.
    assert sjsf(3.0, True) == sjsf(3, 1)
    assert naf(-3.0) == naf(-3)
    for oracle in (min_weight1_oracle, min_joint_weight_oracle):
        assert oracle(3.0, 1).minimal_cost == oracle(3, 1).minimal_cost
        for bad in (2.5, "3"):
            with pytest.raises(ValueError, match=f"^oracle input {bad!r} is not an integer$"):
                oracle(bad, 1)
            with pytest.raises(ValueError, match=f"^oracle input {bad!r} is not an integer$"):
                oracle(1, bad)
    for bad in (2.5, "3"):
        with pytest.raises(ValueError, match=f"^exponent {bad!r} is not an integer$"):
            sjsf(bad, 1)
        with pytest.raises(ValueError, match=f"^exponent {bad!r} is not an integer$"):
            sjsf(1, bad)
        with pytest.raises(ValueError, match=f"^exponent {bad!r} is not an integer$"):
            naf(bad)


def test_is_sjsf_rejects_non_minimal_pattern():
    j = JointExpansion((Expansion((1, 1)), Expansion((1, 0))))
    assert not is_sjsf(j)


def test_sjsf_supports_are_the_rows_of_sjsf():
    rng = random.Random(31)
    pairs = list(product(range(64), repeat=2))
    pairs += [(rng.getrandbits(rng.randint(1, 600)), rng.getrandbits(rng.randint(1, 600)))
              for _ in range(200)]
    for m, n in pairs:
        j = sjsf(m, n)
        assert recoding._sjsf_supports(m, n) == (len(j), j.rows[0]._support, j.rows[1]._support)


def _sjsf_conditions(a: tuple, b: tuple) -> bool:
    """sjsf's two syntactic conditions, column by column, on digit rows."""
    columns = list(zip(a, b)) + [(0, 0)]
    return all(
        (abs(x) == abs(y) or abs(u) == abs(v)) and (not (x and y) or u == v == 0)
        for (x, y), (u, v) in zip(columns, columns[1:])
    )


def test_sjsf_syntax_states_the_conditions_of_is_sjsf():
    for length in range(5):
        words = list(product((-1, 0, 1), repeat=length))
        for a, b in product(words, repeat=2):
            joint = JointExpansion((Expansion(a), Expansion(b)))
            want = _sjsf_conditions(a, b)
            assert recoding._sjsf_syntax(*(r._support for r in joint.rows)) == want
            assert is_sjsf(joint) == want
    # The supports pass, but a magnitude-2 digit is outside the form.
    for a, b in (((2,), (0,)), ((0, 1), (0, -2))):
        joint = JointExpansion((Expansion(a), Expansion(b)))
        assert recoding._sjsf_syntax(*(r._support for r in joint.rows))
        assert not is_sjsf(joint)


def test_recoders_name_what_they_refuse():
    with pytest.raises(ValueError, match="^is_sjsf is defined for two rows$"):
        is_sjsf(recode_joint((1, 2, 3), RecodingScheme.STACKED_NAF))
    with pytest.raises(ValueError, match="^length must be at least 1$"):
        wllc_recode(0, 0)
    with pytest.raises(ValueError, match="^unknown scheme 'naf'$"):
        recode_joint((1, 2), "naf")


def test_wllc_recode_frozen_examples():
    assert wllc_recode(13, 4).digits == (-1, -1, 0, 0, 1)
    assert wllc_recode(1, 1).digits == (-1, 1)
    assert wllc_recode(5, 4).digits == (1, 0, 1, 0, 0)


def test_wllc_recode_exhaustive_small():
    for length in range(1, 11):
        for n in range(1 << length):
            e = wllc_recode(n, length)
            assert len(e) == length + 1
            assert e.value() == n
            assert all(-2 <= d <= 2 for d in e.digits)
            assert all(d != 2 for d in e.digits)
            assert all(d != -2 for d in e.digits[1:])


def test_wllc_recode_rejects_out_of_range():
    with pytest.raises(ValueError):
        wllc_recode(16, 4)
    with pytest.raises(ValueError):
        wllc_recode(-1, 4)


def test_wllc_joint_common_length():
    j = wllc_joint((13, 5))
    assert len(j) == 5
    assert j.values() == (13, 5)
    assert j.weight1() == 4
    with pytest.raises(ValueError):
        wllc_joint((0, 0))


def test_reduce_digit2_preserves_value_without_raising_weight1():
    for length in range(1, 9):
        for n in range(1 << length):
            j = JointExpansion((wllc_recode(n, length),))
            reduced = reduce_digit2(j)
            assert reduced.values() == (n,)
            assert all(d in (-1, 0, 1) for r in reduced.rows for d in r.digits)
            assert reduced.weight1() <= j.weight1()
            assert len(reduced) <= len(j) + 1
    for length in range(1, 4):
        for flat in product(range(-2, 3), repeat=2 * length):
            j = JointExpansion((Expansion(flat[:length]), Expansion(flat[length:])))
            reduced = reduce_digit2(j)
            assert reduced.values() == j.values()
            assert all(d in (-1, 0, 1) for r in reduced.rows for d in r.digits)
            assert reduced.weight1() <= j.weight1()
            assert len(reduced) <= len(j) + 2
    j = JointExpansion((Expansion((-2, -2)), Expansion((2, -1))))
    grown = reduce_digit2(j)
    assert [r.digits for r in grown.rows] == [(0, 1, 0, -1), (0, 0, 0, 0)]
    assert (j.values(), grown.values()) == ((-6, 0), (-6, 0))
    assert (j.weight1(), grown.weight1()) == (4, 2)


def test_naf_complement_weight_gap_bounded():
    for length in range(1, 11):
        for n in range(1 << length):
            assert abs(naf_complement_weight_gap(binary(n, length))) <= 2
    assert abs(naf_complement_weight_gap(binary(7, 3))) == 2
    for word in (Expansion((1, -1)), Expansion((2, 0))):
        with pytest.raises(ValueError, match=r"^ones_complement requires a \{0,1\} word$"):
            naf_complement_weight_gap(word)


def test_recode_joint_dispatch():
    exps = (13, 5)
    b = recode_joint(exps, RecodingScheme.BINARY)
    assert b.values() == exps
    assert len(b) == 4
    assert len(recode_joint(exps, RecodingScheme.BINARY, length=9)) == 9

    n = recode_joint(exps, RecodingScheme.NAF)
    assert n.values() == exps
    s = recode_joint(exps, RecodingScheme.STACKED_NAF)
    assert s == n

    j = recode_joint(exps, RecodingScheme.SJSF, length=8)
    assert len(j) == 8
    assert j.values() == exps

    w = recode_joint(exps, RecodingScheme.WLLC, length=6)
    assert len(w) == 7
    assert w.values() == exps


def test_recoded_joints_pass_the_public_checks():
    # The recoders build their joints unchecked; each must be one the
    # checked constructor accepts and equals.
    rng = random.Random(18)
    vectors = [(0, 0), (1, 0), (13, 5), (255, 256)]
    vectors += [(rng.getrandbits(bits), rng.getrandbits(bits)) for bits in (7, 64, 300)]
    for scheme in RecodingScheme:
        for dimension in (1, 2, 3) if scheme is not RecodingScheme.SJSF else (2,):
            for vector in vectors:
                exps = (vector * 2)[:dimension]
                if scheme is RecodingScheme.WLLC and not any(exps):
                    continue
                width = max(exps).bit_length() + 2
                for length in (None, width):
                    joint = recode_joint(exps, scheme, length)
                    assert joint == JointExpansion(joint.rows), (scheme, exps, length)
                    assert type(joint.rows) is tuple
                    assert joint.values() == exps
    for m, n in vectors:
        joint = sjsf(m, n)
        assert joint == JointExpansion(joint.rows)


def test_recode_joint_validation():
    with pytest.raises(ValueError):
        recode_joint((), RecodingScheme.NAF)
    with pytest.raises(ValueError):
        recode_joint((-1,), RecodingScheme.NAF)
    with pytest.raises(ValueError):
        recode_joint((1, 2, 3), RecodingScheme.SJSF)
    # An exponent that is not an integer is refused, not truncated by int().
    for exps in (("5", 3), (5.5, 3)):
        with pytest.raises(ValueError, match=f"^exponent {exps[0]!r} is not an integer$"):
            recode_joint(exps, RecodingScheme.WLLC)
    assert recode_joint((5.0, True), RecodingScheme.WLLC).values() == (5, 1)
    # So is a length that is not an integer, in each recoder that takes one.
    for scheme in RecodingScheme:
        with pytest.raises(ValueError, match=r"^length 4.5 is not an integer$"):
            recode_joint((5, 3), scheme, length=4.5)
        assert len(recode_joint((5, 3), scheme, length=5.0)) in (5, 6)
    for recoder in (wllc_recode, binary):
        with pytest.raises(ValueError, match=r"^length 4.5 is not an integer$"):
            recoder(5, 4.5)
        with pytest.raises(ValueError, match=r"^exponent 5.5 is not an integer$"):
            recoder(5.5, 4)
        assert recoder(5.0, 4.0).value() == 5


def test_scheme_from_name():
    assert RecodingScheme.from_name("Stacked_NAF") is RecodingScheme.STACKED_NAF
    assert RecodingScheme.from_name("wllc") is RecodingScheme.WLLC
    with pytest.raises(ValueError):
        RecodingScheme.from_name("base3")


def test_min_weight1_oracle_small_values():
    assert min_weight1_oracle(0, 0).minimal_cost == 0
    assert min_weight1_oracle(1, 0).minimal_cost == 1
    assert min_weight1_oracle(1, 1).minimal_cost == 1
    assert min_weight1_oracle(-7, 9).minimal_cost == min_weight1_oracle(7, -9).minimal_cost


def test_min_weight1_oracle_witness_is_consistent():
    for m in range(0, 24):
        for n in range(0, 24):
            result = min_weight1_oracle(m, n)
            assert result.witness.values() == (m, n)
            assert result.witness.weight1() == result.minimal_cost
            # The witness rows are built from masks; they must be canonical.
            assert all(Expansion(r.digits) == r for r in result.witness.rows)


def test_min_joint_weight_oracle_witness_is_consistent():
    for m in range(0, 24):
        for n in range(0, 24):
            result = min_joint_weight_oracle(m, n)
            assert result.witness.values() == (m, n)
            assert result.witness.joint_weight() == result.minimal_cost
            assert all(
                d in (-1, 0, 1) for r in result.witness.rows for d in r.digits
            )
            assert all(Expansion(r.digits) == r for r in result.witness.rows)


def test_oracles_agree_with_sjsf_on_a_sample():
    rng = random.Random(1)
    for _ in range(40):
        m, n = rng.randrange(1 << 10), rng.randrange(1 << 10)
        j = sjsf(m, n)
        assert min_joint_weight_oracle(m, n).minimal_cost == j.joint_weight()
        assert min_weight1_oracle(m, n).minimal_cost == j.joint_weight()
    # Every sign combination: negating a row negates its digits, so both
    # minima equal the joint sparse form's weight of (|m|, |n|).
    for m, n in product(range(-31, 32), repeat=2):
        weight = sjsf(abs(m), abs(n)).joint_weight()
        for oracle, cost, digits in (
            (min_weight1_oracle, JointExpansion.weight1, (-2, -1, 0, 1, 2)),
            (min_joint_weight_oracle, JointExpansion.joint_weight, (-1, 0, 1)),
        ):
            result = oracle(m, n)
            assert result.minimal_cost == weight
            assert result.witness.values() == (m, n)
            assert cost(result.witness) == weight
            assert all(d in digits for r in result.witness.rows for d in r.digits)


def test_oracle_results_compare_by_cost_and_witness():
    for oracle in (min_weight1_oracle, min_joint_weight_oracle):
        assert oracle(13, 5) == oracle(13.0, 5)
        assert oracle(13, 5) != oracle(5, 13)  # same cost, other witness
        assert oracle(13, 5) != oracle(13, 4)


def test_oracle_answers_match_their_pinned_digest():
    # The sha256 of every (m, n, minimal cost, witness row digits) of both
    # oracles over |m|, |n| <= 31, one repr per line: a change to the carry
    # DP or to the witness's greedy choice that moves any answer moves it.
    digest = hashlib.sha256()
    for oracle in (min_weight1_oracle, min_joint_weight_oracle):
        for m, n in product(range(-31, 32), repeat=2):
            result = oracle(m, n)
            rows = tuple(row.digits for row in result.witness.rows)
            digest.update(repr((m, n, result.minimal_cost, rows)).encode() + b"\n")
    assert digest.hexdigest() == (
        "85c7f00c2609c2c88fe26d20aade6bdd4a324cb43981b4e3068bf6a0e197eb0d"
    )


def test_an_oracle_call_reads_its_own_cost_once(monkeypatch):
    # The answer's cost is the witness's first read.  Later reads are of the
    # rest after a candidate column, and a column that maps the pair to
    # itself is skipped unread.
    reads, cost = [], recoding._CarryDP.cost
    monkeypatch.setattr(
        recoding._CarryDP, "cost", lambda dp, m, n: reads.append((m, n)) or cost(dp, m, n)
    )
    pairs = [*product(range(-15, 16), repeat=2), (ORACLE_BOUND, -ORACLE_BOUND)]
    for oracle, dp, _ in DPS:
        for m, n in pairs:
            reads.clear()
            assert oracle(m, n).minimal_cost == cost(dp, m, n)
            assert reads[0] == (m, n)
            assert reads.count((m, n)) == 1, (m, n)


def test_oracle_bound_enforced():
    with pytest.raises(ValueError):
        min_weight1_oracle(ORACLE_BOUND + 1, 0)
    with pytest.raises(ValueError):
        min_joint_weight_oracle(0, -(ORACLE_BOUND + 1))


def _search(m, n, table):
    """The minimal cost by a shortest-path search over residual pairs, where
    a column (d1, d2) of `table` maps (a, b) to ((a - d1) / 2, (b - d2) / 2).

    Dial's bucket queue: queues[c] holds the pairs reached at cost c, and a
    free column's target goes to the front of the current queue, which on
    costs 0 and 1 is 0-1 breadth-first search.  |r'| <= (|r| + 2) / 2 keeps
    the search in a logarithmic window around (m, n), so it terminates.
    It shares only the column table with the carry DP, so the tests hold
    the DP to it.
    """
    source = (m, n)
    dist = {source: 0}
    # A column costs at most 2, so queues[cost + 2] is the last one filled.
    queues = [deque([source]), deque()]
    cost = 0
    while any(queues[cost:]):
        queue = queues[cost]
        queues.append(deque())
        while queue:
            node = queue.popleft()
            if node == (0, 0):
                return cost
            if dist[node] < cost:
                continue  # reached more cheaply since it was queued
            a, b = node
            for edge, d1, d2 in table[(a & 1) << 1 | (b & 1)]:
                step = cost + edge
                succ = ((a - d1) >> 1, (b - d2) >> 1)
                if step < dist.get(succ, step + 1):
                    dist[succ] = step
                    if edge:
                        queues[step].append(succ)
                    else:
                        queue.appendleft(succ)
        cost += 1
    raise RuntimeError("unreachable: (0, 0) is always reachable")


# Each oracle's carry DP with the largest spread of its cost-to-go.
DPS = ((min_weight1_oracle, _WEIGHT1, 2), (min_joint_weight_oracle, _JOINT_WEIGHT, 1))


def test_carry_dp_equals_the_search_on_every_small_pair():
    for _, dp, _ in DPS:
        for m, n in product(range(-63, 64), repeat=2):
            assert dp.cost(m, n) == _search(m, n, dp.table), (m, n)


def test_carry_dp_equals_the_search_on_a_seeded_sample():
    rng = random.Random(16)
    pairs = [
        (rng.randint(-ORACLE_BOUND, ORACLE_BOUND), rng.randint(-ORACLE_BOUND, ORACLE_BOUND))
        for _ in range(500)
    ]
    pairs += [(ORACLE_BOUND, -ORACLE_BOUND), (-ORACLE_BOUND, ORACLE_BOUND - 1)]
    for _, dp, _ in DPS:
        for m, n in pairs:
            assert dp.cost(m, n) == _search(m, n, dp.table), (m, n)


def test_carry_dp_tail_ends_a_cheapest_expansion():
    # Past both bit lengths the residuals lie in [-2, 2]; from each such
    # pair some cheapest expansion ends within dp.tail columns.
    for _, dp, _ in DPS:
        for start in product(range(-2, 3), repeat=2):
            reach, least = {start: 0}, float("inf")
            for _ in range(dp.tail):
                step = {}
                for (a, b), base in reach.items():
                    for cost, d1, d2 in dp.table[(a & 1) << 1 | (b & 1)]:
                        succ = ((a - d1) >> 1, (b - d2) >> 1)
                        step[succ] = min(step.get(succ, base + cost), base + cost)
                reach = step
                least = min(least, reach.get((0, 0), least))
            assert least == _search(*start, dp.table), start


def _unpruned(m, n, dp):
    """The minimal cost by a plain min-plus loop over every carry pair, with
    no normalising, no pruning and no cache."""
    dist = {(0, 0): 0}
    for _ in range(max(m.bit_length(), n.bit_length()) + dp.tail):
        step = {}
        for (c1, c2), base in dist.items():
            a, b = (m & 1) + c1, (n & 1) + c2
            for cost, d1, d2 in dp.table[(a & 1) << 1 | (b & 1)]:
                succ = ((a - d1) >> 1, (b - d2) >> 1)
                step[succ] = min(step.get(succ, base + cost), base + cost)
        dist = step
        m >>= 1
        n >>= 1
    return dist[(-m, -n)]


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_pruned_carry_dp_equals_the_unpruned_loop(bits):
    rng = random.Random(bits)
    for _ in range(8):
        m, n = (rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(2))
        for _, dp, _ in DPS:
            assert dp.cost(m, n) == _unpruned(m, n, dp), (m, n)


def _cost_to_go_closure(dp):
    """Every normalised cost-to-go vector over the carry pairs: from each
    sign-extended end, closed under one more letter read below."""

    def back(letter, ctg):
        b1, b2 = letter & 1, letter >> 1
        out = {}
        for c1, c2 in dp.carries:
            a, b = b1 + c1, b2 + c2
            out[(c1, c2)] = min(
                cost + ctg[((a - d1) >> 1, (b - d2) >> 1)]
                for cost, d1, d2 in dp.table[(a & 1) << 1 | (b & 1)]
            )
        return out

    def normalised(ctg):
        low = min(ctg.values())
        return tuple(ctg[c] - low for c in dp.carries)

    todo = []
    for s1, s2 in product((0, 1), repeat=2):
        # Reading the sign bits (s1, s2) forever; the residuals are zero
        # when the carries cancel the signs.
        ctg = {c: 0 if c == (s1, s2) else float("inf") for c in dp.carries}
        while (before := back(s1 | s2 << 1, ctg)) != ctg:
            ctg = before
        todo.append(normalised(ctg))
    seen = set()
    while todo:
        vector = todo.pop()
        if vector not in seen:
            seen.add(vector)
            ctg = dict(zip(dp.carries, vector))
            todo.extend(normalised(back(letter, ctg)) for letter in range(4))
    return seen


def test_cost_to_go_never_spreads_past_the_pruning_bound():
    for (_, dp, spread), count in zip(DPS, (160, 11)):
        closure = _cost_to_go_closure(dp)
        assert len(closure) == count
        assert max(max(vector) for vector in closure) == spread == dp.spread


@pytest.mark.parametrize("bits", range(1, 13))
def test_nibble_stepped_cost_equals_the_unpruned_loop_at_every_short_length(bits):
    # The read ends at the first byte boundary at least dp.tail bits past
    # the top, so these lengths cover both sides of a boundary.
    rng = random.Random(bits)
    top = 1 << (bits - 1)
    for s1, s2 in product((1, -1), repeat=2):
        for _ in range(20):
            m = s1 * (top | rng.getrandbits(bits - 1))
            n = s2 * rng.randrange(2 * top)
            for _, dp, _ in DPS:
                assert dp.cost(m, n) == _unpruned(m, n, dp), (m, n)
                assert dp.cost(n, m) == _unpruned(n, m, dp), (n, m)


def _rows(start):
    """Every row linked from a _nibble_table row, by the state it records."""
    rows, todo = {start[256]: start}, [start]
    while todo:
        for _, _, succ in todo.pop()[:256]:
            if succ[256] not in rows:
                rows[succ[256]] = succ
                todo.append(succ)
    return rows


def _fields(dp):
    """What a carry DP holds: each attribute's repr, the nibble table by
    identity (its rows link to one another)."""
    return {k: id(v) if k == "nibbles" else repr(v) for k, v in vars(dp).items()}


def test_carry_dp_step_cache_stays_bounded():
    rng = random.Random(1024)
    for (_, dp, _), count in zip(DPS, (42, 25)):
        for _ in range(10):
            dp.cost(rng.getrandbits(1024) - (1 << 1023), rng.getrandbits(1024))
        fields = _fields(dp)
        step = functools.cache(dp._step)
        # Every state (cost vector) reachable from the start under every letter.
        states, todo = {dp.start}, [dp.start]
        while todo:
            state = todo.pop()
            for letter in range(4):
                _, _, succ = step(state, letter)
                if succ not in states:
                    states.add(succ)
                    todo.append(succ)
        assert len(states) == count
        # One nibble row per reachable state, each entry four bit steps composed.
        rows = _rows(dp.nibbles)
        assert rows.keys() == states
        for state, row in rows.items():
            assert len(row) == 257 and row[256] == state
            for x, (cost, bits, succ) in enumerate(row[:256]):
                total, end = 0, state
                for i in range(4):
                    more, _, end = step(end, (x >> 4 + i & 1) | (x >> i & 1) << 1)
                    total += more
                assert (cost, bits) == (total, 0) and succ is rows[end]
        # _step is pure: the DP holds what it held before the walk.
        assert _fields(dp) == fields


def test_import_builds_no_carry_dp_step():
    code = (
        "import digitkit\n"
        "from digitkit.recoding import _JOINT_WEIGHT, _WEIGHT1, _sjsf_nibble_table\n"
        "print('nibbles' in vars(_JOINT_WEIGHT), 'nibbles' in vars(_WEIGHT1),"
        " _sjsf_nibble_table.cache_info().currsize)"
    )
    src = Path(recoding.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["False", "False", "0"]


def test_nibble_table_composes_four_steps_per_entry():
    # A toy automaton: the state is the parity of m's bits read; each step
    # costs m's bit and sets column bit 0 to n's bit.
    start = recoding._nibble_table(0, lambda s, letter: (letter & 1, letter >> 1, s ^ letter & 1))
    assert set(_rows(start)) == {0, 1}
    for state, row in _rows(start).items():
        assert len(row) == 257 and row[256] == state
        for x1, x2 in product(range(16), repeat=2):
            cost, bits, succ = row[x1 << 4 | x2]
            assert (cost, bits) == (x1.bit_count(), x2), (state, x1, x2)
            assert succ[256] == state ^ x1.bit_count() & 1


@pytest.mark.parametrize("limit", [-3, 0, 1, 2, 3, 7, 15, 16, 23, 63, 64, 127, 255, 256, 511])
def test_read_window_equals_the_per_pair_reads(limit):
    # Pair (m, n) is number m * (limit + 1) + n; at the cap, a sample.
    checked = range(max(limit + 1, 0) ** 2)
    if limit == 511:
        checked = set(random.Random(limit).sample(checked, 3000))
    for oracle in (_WEIGHT1, _JOINT_WEIGHT):
        pairs = []
        for m, n, s1, s2, least in recoding._read_window(limit, oracle):
            pairs.append((m, n))
            if m * (limit + 1) + n not in checked:
                continue
            assert (s1, s2) == recoding._sjsf_supports(m, n)[1:], (m, n)
            weight = recoding._sjsf_weight_top(m, n, limit.bit_length())[0]
            assert (s1 | s2).bit_count() == weight, (m, n)
            assert least == oracle.cost(m, n), (m, n)
        assert pairs == list(product(range(limit + 1), repeat=2))


def test_read_returns_a_state_that_hashes_and_compares_by_value():
    # Rows link one another, so comparing two rows by value need not end;
    # what a read hands back is the state it reached, a plain tuple.
    rng = random.Random(33)
    for start in (recoding._sjsf_nibble_table(), _WEIGHT1.nibbles, _JOINT_WEIGHT.nibbles):
        reachable = set(_rows(start))
        for _ in range(40):
            length = rng.randrange(1, 80)
            m, n = rng.randrange(-1 << length, 1 << length), rng.getrandbits(length)
            _, state = recoding._read(start, m, n, length)
            assert {state} <= reachable, (m, n, length)


def _handwritten_sjsf_table():
    """The SJSF nibble table as built before _nibble_table, loop for loop:
    row "p00" of linked rows of (weight, columns, next row)."""
    from digitkit.transducer import sjsf_transducer

    machine = sjsf_transducer()
    step = {s: [] for s in machine.states if s != machine.initial}
    for state, row in step.items():
        for letter in machine.letters:
            target, ((d1, d2),) = machine.transitions[(state, letter)]
            row.append((target, (d1 & 1) | (d2 & 1) << 8))
    rows = {s: [] for s in step}
    for state, row in rows.items():
        for x1 in range(16):
            for x2 in range(16):
                target, columns = state, 0
                for i in range(4):
                    letter = (x1 >> i & 1) | (x2 >> i & 1) << 1
                    target, column = step[target][letter]
                    columns |= column << i
                weight = ((columns | columns >> 8) & 15).bit_count()
                row.append((weight, columns, target))
    return rows


def test_sjsf_nibble_table_equals_the_handwritten_table():
    # The table's states are pending pairs, the machine's their labels.
    def label(pending):
        return "p" + "".join(map(str, pending))

    expected = _handwritten_sjsf_table()
    rows = {label(state): row for state, row in _rows(recoding._sjsf_nibble_table()).items()}
    assert rows.keys() == expected.keys()
    for state, row in rows.items():
        assert [(w, c, label(succ[256])) for w, c, succ in row[:256]] == expected[state]
