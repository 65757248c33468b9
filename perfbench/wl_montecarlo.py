"""montecarlo: the acceptance-fixture traffic at workers = 1.

One round calls each fixture once, with a library seed derived from the
benchmark seed and the round number: cost_slope for WLLC and SJSF at
(256, 512), compare_schemes at 256 and at 512, and run_stats for WLLC at
dimension 3 and length 256.  The sample budgets below are per call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

import calibrate
from harness import library_seed

NAME = "montecarlo"
CALIBRATION = calibrate.SAMPLING
LATENCY = "op"

# kind -> samples per call.  Chosen so each call takes 50-150 ms on a
# 2-CPU x86 box, and a round about half a second.
BUDGET = {
    "wllc_slope": 2000,
    "sjsf_slope": 300,
    "compare_256": 500,
    "compare_512": 300,
    "d3": 3000,
}
TINY_BUDGET = {kind: 10 for kind in BUDGET}
# Lengths each call samples at; a slope samples every index at L and 2L.
LENGTHS = {
    "wllc_slope": (256, 512),
    "sjsf_slope": (256, 512),
    "compare_256": (256,),
    "compare_512": (512,),
    "d3": (256,),
}
# Samples of every call re-derived with the digit-level recoders.
SLICE = 2

PIN_SEED = 0

SETUP = """
import digitkit
from digitkit.experiments import RunConfig, compare_schemes, cost_slope, run_stats
from digitkit.recoding import RecodingScheme
cost_slope(RecodingScheme.WLLC, 16, 4, 0)
cost_slope(RecodingScheme.SJSF, 16, 4, 0)
compare_schemes(16, 4, 0)
"""


class Workload:
    def __init__(self, dk, seed: int, tiny: bool = False) -> None:
        self.dk = dk
        self.seed = seed
        self.budget = TINY_BUDGET if tiny else BUDGET
        self.scheme = dk.recoding.RecodingScheme

    def describe(self) -> dict:
        return {"samples_per_call": self.budget, "lengths": LENGTHS, "workers": 1}

    def call(self, kind: str, samples: int, seed: int):
        ex, s = self.dk.experiments, self.scheme
        if kind == "wllc_slope":
            return ex.cost_slope(s.WLLC, 256, samples, seed)
        if kind == "sjsf_slope":
            return ex.cost_slope(s.SJSF, 256, samples, seed)
        if kind == "compare_256":
            return ex.compare_schemes(256, samples, seed)
        if kind == "compare_512":
            return ex.compare_schemes(512, samples, seed)
        if kind == "d3":
            config = ex.RunConfig(seed, samples, (256,), s.WLLC, dimension=3)
            return next(iter(ex.run_stats(config)))
        raise ValueError(kind)

    def round(self, r: int, session) -> None:
        seed = library_seed(self.seed, NAME, r)
        for kind, samples in self.budget.items():
            session.timed(
                kind,
                samples * len(LENGTHS[kind]),
                lambda: self.call(kind, samples, seed),
                lambda out: self.check(kind, samples, seed, out),
            )

    # -- output checks -------------------------------------------------------

    def check(self, kind: str, samples: int, seed: int, out) -> list[str]:
        problems = []
        if kind.startswith("compare"):
            if out.samples != samples or out.length != LENGTHS[kind][0]:
                problems.append(f"{kind}: wrong shape {out}")
            if out.violations != 0 or out.min_margin < 0:
                problems.append(f"{kind}: WLLC beat SJSF: {out}")
        else:
            records = (out,) if kind == "d3" else (out.low, out.high)
            for record, length in zip(records, LENGTHS[kind], strict=True):
                problems += self._identities(kind, record, samples, length)
        problems += self._slice(kind, seed)
        return problems

    def _identities(self, kind, record, samples, length) -> list[str]:
        width = length + 1
        problems = []
        if record.samples != samples or record.length != length:
            problems.append(f"{kind}: wrong shape {record}")
        if not math.isclose(record.mean_weight + record.mean_zeros, width, rel_tol=1e-12):
            problems.append(f"{kind}: mean_weight + mean_zeros != {width}")
        if record.mean_squarings != width - 1:
            problems.append(f"{kind}: mean_squarings != {width - 1}")
        return problems

    def _slice(self, kind: str, seed: int) -> list[str]:
        """The library's answer on the first SLICE samples of the same
        stream against the digit-level recoders on those samples."""
        ex, s = self.dk.experiments, self.scheme
        got = self.call(kind, SLICE, seed)
        if kind.startswith("compare"):
            want = self._reference_comparison(seed, LENGTHS[kind][0])
            have = (got.violations, got.min_margin)
            return [] if have == want else [f"{kind}: slice {have} != digit-level {want}"]
        if kind == "d3":
            pairs = [(got, self._reference_means(seed, 256, 3, s.WLLC))]
        else:
            scheme = s.WLLC if kind == "wllc_slope" else s.SJSF
            pairs = [
                (got.low, self._reference_means(seed, 256, 2, scheme)),
                (got.high, self._reference_means(seed, 512, 2, scheme)),
            ]
        problems = []
        for record, want in pairs:
            have = (
                record.mean_weight,
                record.mean_weight1,
                record.mean_zeros,
                record.mean_multiplications,
                record.mean_squarings,
            )
            if have != want:
                problems.append(f"{kind}: slice means {have} != digit-level {want}")
        return problems

    def _digit_level(self, exps, length, scheme):
        """(weight, weight1, zeros, multiplications, squarings) of one sample."""
        pad = length if scheme is self.scheme.WLLC else length + 1
        joint = self.dk.recoding.recode_joint(exps, scheme, length=pad)
        weight1 = joint.weight1()
        top = 1 if any(row.digits[-1] for row in joint.rows) else 0
        return joint.joint_weight(), weight1, joint.zeros(), weight1 - top, len(joint) - 1

    def _reference_means(self, seed, length, dimension, scheme):
        sums = [0] * 5
        for i in range(SLICE):
            exps, _ = self.dk.experiments.sample_exponents(
                seed, i, length, dimension, nonzero=scheme is self.scheme.WLLC
            )
            for k, value in enumerate(self._digit_level(exps, length, scheme)):
                sums[k] += value
        return tuple(total / SLICE for total in sums)

    def _reference_comparison(self, seed, length):
        violations, margin = 0, None
        for i in range(SLICE):
            exps, _ = self.dk.experiments.sample_exponents(seed, i, length, 2, nonzero=True)
            costs = []
            for scheme in (self.scheme.WLLC, self.scheme.SJSF):
                _, _, _, mults, squarings = self._digit_level(exps, length, scheme)
                costs.append(mults + squarings)
            diff = costs[0] - costs[1]
            violations += diff < 0
            margin = diff if margin is None else min(margin, diff)
        return violations, margin

    # -- pinned sample stream ------------------------------------------------

    def digest(self, outputs: dict) -> str:
        """SHA-256 over the round's results, rounded as the CLI prints them."""
        line = self.dk.experiments.record_to_json_line
        lines = []
        for kind in BUDGET:
            out = outputs[kind]
            if kind.startswith("compare"):
                lines.append(json.dumps(asdict(out), sort_keys=True))
            elif kind == "d3":
                lines.append(line(out))
            else:
                lines += [line(out.low), line(out.high), f"slope {round(out.slope, 6)}"]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def pinned_round(self, session, pinned: dict) -> None:
        """Round 0 at seed PIN_SEED and the default budget must reproduce
        the committed digest: a speed-up may not change the sample stream."""
        seed = library_seed(PIN_SEED, NAME, 0)

        def compute():
            return {kind: self.call(kind, n, seed) for kind, n in BUDGET.items()}

        def check(outputs):
            got = self.digest(outputs)
            want = pinned["montecarlo"]["sha256"]
            return [] if got == want else [f"sample stream digest {got} != pinned {want}"]

        session.untimed("pinned_stream", compute, check)

    def summary(self, ops) -> dict:
        """Samples per second of each fixture, for the report line."""
        groups = {
            "mc.wllc_slope.samples_per_s": ("wllc_slope",),
            "mc.sjsf_slope.samples_per_s": ("sjsf_slope",),
            "mc.compare.samples_per_s": ("compare_256", "compare_512"),
            "mc.d3.samples_per_s": ("d3",),
        }
        out = {}
        for name, kinds in groups.items():
            chosen = [op for op in ops if op.kind in kinds]
            seconds = sum(op.seconds for op in chosen)
            if seconds > 0:
                out[name] = sum(op.units for op in chosen) / seconds
        return out
