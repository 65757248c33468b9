"""exact: one pass of the exhaustive and exact suites per round.

A pass runs the six verification checks at the bounds below, the
exhaustive statistics of SJSF and WLLC, the complement bit
probabilities, and the exact chain analysis of the product machine.  The
seeded parts are the check seeds of `sjsf` and `cost-model`, and the
step counts the chain is asked about.
"""

from __future__ import annotations

import random
from fractions import Fraction

import calibrate
from harness import library_seed, percentile

NAME = "exact"
CALIBRATION = calibrate.INTERPRETER
LATENCY = "round"

# Bounds chosen so one pass takes about 0.4 s on a 2-CPU x86 box: short
# passes give a run enough of them for a steady median.
BOUNDS = {
    "thm1": {"max_n": 15},
    "thm2": {"max_length": 10},
    "sjsf": {"max_n": 23, "random_pairs": 200},
    "cost-model": {"instances": 20},
    "transducer": {"max_length": 10},
    "wllc-vs-naf": {"max_length": 10},
}
TINY_BOUNDS = {
    "thm1": {"max_n": 3},
    "thm2": {"max_length": 3},
    "sjsf": {"max_n": 3, "random_pairs": 2},
    "cost-model": {"instances": 2},
    "transducer": {"max_length": 3},
    "wllc-vs-naf": {"max_length": 3},
}
SEEDED_CHECKS = ("sjsf", "cost-model")


def expected_cases(name: str, bounds: dict) -> int:
    """The case count each check reports at its bounds."""
    words = lambda n: (1 << (n + 1)) - 2  # every word of length 1..n
    if name == "thm1":
        return (bounds["max_n"] + 1) ** 2
    if name == "sjsf":
        return (bounds["max_n"] + 1) ** 2 + bounds["random_pairs"]
    if name == "cost-model":
        return 5 * bounds["instances"]
    if name == "transducer":
        # matrix, stationary, 20 distributions, 9 zero probabilities
        return 31 + words(bounds["max_length"])
    return words(bounds["max_length"])


EXHAUSTIVE_LENGTH = 6
# mean_weight1 of exhaustive_stats(scheme, 6) over all pairs, and samples.
EXHAUSTIVE_PINNED = {
    "sjsf": (4096, 3.677734375),
    "wllc": (4095, 4.24957264957265),
}
BIT_LENGTH = 12
# Sums of P(bit i = 0) and of P(bit i = 0, bit j = 0) at length 12.
BIT_PINNED = (Fraction(3765, 512), Fraction(24519, 1024))

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)
TRANSITIONS = (
    (_ZERO, _HALF, _HALF, _ZERO, _ZERO, _ZERO),
    (_ZERO, _ZERO, _HALF, _HALF, _ZERO, _ZERO),
    (_ZERO, _HALF, _ZERO, _ZERO, _HALF, _ZERO),
    (_ZERO, _ZERO, _ZERO, _HALF, _ZERO, _HALF),
    (_ZERO, _ZERO, _ZERO, _ZERO, _HALF, _HALF),
    (_ZERO, _ZERO, _ZERO, _HALF, _HALF, _ZERO),
)
STATIONARY = (_ZERO, _ZERO, _ZERO, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

SETUP = """
import digitkit
from digitkit.transducer import double_naf_transducer, stationary_distribution, transition_matrix
stationary_distribution(transition_matrix(double_naf_transducer()))
"""


class Workload:
    def __init__(self, dk, seed: int, tiny: bool = False) -> None:
        self.dk = dk
        self.seed = seed
        self.bounds = TINY_BOUNDS if tiny else BOUNDS
        self.machine = dk.transducer.double_naf_transducer()

    def describe(self) -> dict:
        return {
            "check_bounds": self.bounds,
            "check_cases": {n: expected_cases(n, b) for n, b in self.bounds.items()},
            "exhaustive_length": EXHAUSTIVE_LENGTH,
            "bit_probability_length": BIT_LENGTH,
        }

    def round(self, r: int, session) -> None:
        dk = self.dk
        rng = random.Random(library_seed(self.seed, NAME, r))
        for name, bounds in self.bounds.items():
            if name in SEEDED_CHECKS:
                bounds = dict(bounds, seed=rng.getrandbits(32))
            session.timed(
                name,
                expected_cases(name, bounds),
                lambda: dk.verification.run_check(name, **bounds),
                lambda report: check_report(name, bounds, report),
            )
        for scheme in ("sjsf", "wllc"):
            session.timed(
                f"exhaustive_stats.{scheme}",
                1,
                lambda: dk.experiments.exhaustive_stats(
                    dk.recoding.RecodingScheme(scheme), EXHAUSTIVE_LENGTH
                ),
                lambda record: check_exhaustive(scheme, record),
            )
        session.timed(
            "complement_bit_probabilities",
            1,
            lambda: dk.experiments.complement_bit_probabilities(BIT_LENGTH),
            check_bits,
        )
        t = dk.transducer
        p = session.timed(
            "transition_matrix",
            1,
            lambda: t.transition_matrix(self.machine),
            lambda matrix: [] if matrix.entries == TRANSITIONS else ["transition matrix"],
        )
        if p is None:
            return
        steps = rng.randint(32, 64)
        session.timed(
            "state_distribution",
            1,
            lambda: t.state_distribution(p, steps),
            lambda dist: check_distribution(dist, steps),
        )
        session.timed(
            "stationary_distribution",
            1,
            lambda: t.stationary_distribution(p),
            lambda pi: [] if pi.weights == STATIONARY else [f"stationary {pi.weights}"],
        )
        k = rng.randint(8, 14)
        markov = session.timed(
            "zero_output_probability.markov",
            1,
            lambda: t.zero_output_probability(k, "markov"),
            lambda prob: [],
        )
        session.timed(
            "zero_output_probability.exhaustive",
            1,
            lambda: t.zero_output_probability(k, "exhaustive"),
            lambda prob: [] if prob == markov else [f"k={k}: markov {markov} != {prob}"],
        )

    def summary(self, ops) -> dict:
        passes: dict[int, float] = {}
        for op in ops:
            passes[op.round] = passes.get(op.round, 0.0) + op.seconds
        return {"ex.suite_s": percentile(list(passes.values()), 50)}


def check_report(name: str, bounds: dict, report) -> list[str]:
    want = expected_cases(name, bounds)
    problems = []
    if not report.passed:
        problems.append(f"{name}: FAIL {report.details} {report.counterexamples[:3]}")
    if report.cases != want:
        problems.append(f"{name}: {report.cases} cases, pinned {want}")
    return problems


def check_exhaustive(scheme: str, record) -> list[str]:
    samples, weight1 = EXHAUSTIVE_PINNED[scheme]
    width = EXHAUSTIVE_LENGTH + 1
    if (
        record.samples == samples
        and record.mean_weight1 == weight1
        and record.mean_squarings == width - 1
        and abs(record.mean_weight + record.mean_zeros - width) < 1e-12
    ):
        return []
    return [f"exhaustive {scheme}: {record}"]


def check_bits(report) -> list[str]:
    sums = (sum(report.zero_probability), sum(report.pair_zero_probability.values()))
    return [] if sums == BIT_PINNED else [f"bit probability sums {sums}"]


def check_distribution(dist, steps: int) -> list[str]:
    # States 2 and 3 are transient; each holds exactly 2^-k after k steps.
    want = Fraction(1, 1 << steps)
    if dist.probability("2") == want and dist.probability("3") == want:
        return []
    return [f"state distribution after {steps} steps: {dist.weights}"]

