"""multiexp: seeded multiexp(bases, exps, scheme, ModGroup(MERSENNE61)) calls.

Every scheme at dimension 2, and every scheme but sjsf (which takes two
exponents) at dimension 3, each at 64, 256 and 1024 bits: 27 call classes.
A round makes one call of every class in a seeded order.  The benchmark
draws POOL_ROUNDS rounds of inputs before it starts the clock, together
with the expected result of each call, and cycles through them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import calibrate
from harness import percentile

NAME = "multiexp"
CALIBRATION = calibrate.INTERPRETER
LATENCY = "op"

SCHEMES = ("binary", "naf", "stacked-naf", "sjsf", "wllc")
LENGTHS = (64, 256, 1024)
CLASSES = tuple(
    (scheme, dimension, length)
    for scheme in SCHEMES
    for dimension in ((2,) if scheme == "sjsf" else (2, 3))
    for length in LENGTHS
)
POOL_ROUNDS = 16
TINY_POOL_ROUNDS = 1

SETUP = """
import digitkit
from digitkit.multiexp import MERSENNE61, ModGroup, multiexp
from digitkit.recoding import RecodingScheme
group = ModGroup(MERSENNE61)
multiexp((2, 3), (5, 3), RecodingScheme.SJSF, group)
"""


@dataclass(frozen=True)
class Case:
    scheme: object
    dimension: int
    length: int
    bases: tuple[int, ...]
    exps: tuple[int, ...]
    result: int
    multiplications: int
    squarings: int

    @property
    def kind(self) -> str:
        return f"{self.scheme.value}/d{self.dimension}/L{self.length}"


class Workload:
    def __init__(self, dk, seed: int, tiny: bool = False) -> None:
        self.dk = dk
        self.group = dk.multiexp.ModGroup(dk.multiexp.MERSENNE61)
        rng = random.Random(seed)
        rounds = TINY_POOL_ROUNDS if tiny else POOL_ROUNDS
        self.pool = [self._draw_round(rng) for _ in range(rounds)]

    def describe(self) -> dict:
        return {
            "classes": [f"{s}/d{d}/L{n}" for s, d, n in CLASSES],
            "distinct_inputs": sum(len(r) for r in self.pool),
            "modulus": "2^61-1",
        }

    def _draw_round(self, rng: random.Random) -> list[Case]:
        cases = [self._draw_case(rng, *cls) for cls in CLASSES]
        rng.shuffle(cases)
        return cases

    def _draw_case(self, rng, scheme_name, dimension, length) -> Case:
        p = self.dk.multiexp.MERSENNE61
        scheme = self.dk.recoding.RecodingScheme(scheme_name)
        bases = tuple(rng.randrange(2, p) for _ in range(dimension))
        exps = (0,)
        while not any(exps):
            exps = tuple(rng.getrandbits(length) for _ in range(dimension))
        result = 1
        for base, exp in zip(bases, exps):
            result = result * pow(base, exp, p) % p
        joint = self.dk.recoding.recode_joint(exps, scheme)
        top = 1 if any(row.digits[-1] for row in joint.rows) else 0
        return Case(
            scheme, dimension, length, bases, exps, result,
            joint.weight1() - top, len(joint) - 1,
        )

    def round(self, r: int, session) -> None:
        run = self.dk.multiexp.multiexp
        for case in self.pool[r % len(self.pool)]:
            session.timed(
                case.kind,
                1,
                lambda: run(case.bases, case.exps, case.scheme, self.group),
                lambda out: check(case, out),
            )

    def summary(self, ops) -> dict:
        ms = [op.seconds * 1e3 for op in ops]
        return {
            "mx.calls_per_s": len(ops) / sum(op.seconds for op in ops),
            "mx.call_p50_ms": percentile(ms, 50),
            "mx.call_p99_ms": percentile(ms, 99),
        }


def check(case: Case, out) -> list[str]:
    """Result against a product of pow values; counts against the expansion."""
    result, counter = out
    problems = []
    if result != case.result:
        problems.append(f"{case.kind} exps={case.exps}: result {result} != {case.result}")
    if counter.multiplications != case.multiplications:
        problems.append(
            f"{case.kind}: multiplications {counter.multiplications} "
            f"!= weight1 - top {case.multiplications}"
        )
    if counter.squarings != case.squarings:
        problems.append(
            f"{case.kind}: squarings {counter.squarings} != columns - 1 {case.squarings}"
        )
    return problems
