"""Layer probes: each per-layer metric, timed from outside around public calls.

Where a public function calls into another layer, the probe times that
layer on the same inputs and takes the difference (scheme_metric_us is
run_stats minus sample_exponents on the same sample stream).  Inputs come
from the benchmark seed.  Every value is the median of a few repeats.
"""

from __future__ import annotations

import random
import statistics
import time

import wl_cli
import wl_exact
from harness import library_seed, run_child

RUN_STATS_SCHEMES = ("binary", "naf", "wllc", "sjsf")
RECODE_SCHEMES = ("binary", "naf", "stacked-naf", "sjsf", "wllc")


def _seconds(call, repeats: int) -> float:
    """Median wall time of `call` over `repeats` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _each(fn, items):
    """A call that applies fn to every item, for timing a batch."""
    return lambda: [fn(item) for item in items]


def measure(dk, seed: int, tiny: bool = False) -> dict[str, tuple[float, str]]:
    rng = random.Random(library_seed(seed, "probes"))
    scale = 1 if tiny else 10
    reps = 1 if tiny else 3
    out: dict[str, tuple[float, str]] = {}
    out.update(_experiments(dk, rng, scale, reps))
    out.update(_recoding_and_expansions(dk, rng, scale, reps))
    out.update(_multiexp(dk, rng, scale, reps))
    out.update(_transducer(dk, rng, scale, reps))
    out.update(_verification(dk, rng, tiny))
    out.update(_cli(reps))
    return out


def _experiments(dk, rng, scale, reps):
    ex, S = dk.experiments, dk.recoding.RecodingScheme
    out = {}
    seed = rng.getrandbits(64)
    n = 100 * scale
    out["experiments.derive_sample_seed_us"] = (
        _seconds(lambda: [ex.derive_sample_seed(seed, i) for i in range(n)], reps) / n * 1e6,
        "us",
    )
    redraws = 0

    def sampling(length, dimension, nonzero, count):
        def draw():
            nonlocal redraws
            for i in range(count):
                redraws += ex.sample_exponents(seed, i, length, dimension, nonzero)[1]
        return draw

    for label, length, dimension in (("L256", 256, 2), ("L512", 512, 2), ("d3", 256, 3)):
        per = _seconds(sampling(length, dimension, False, n), reps) / n
        out[f"experiments.sample_exponents_us.{label}"] = (per * 1e6, "us")
    for scheme in RUN_STATS_SCHEMES:
        samples = (5 if scheme == "sjsf" else 50) * scale
        for length in (256, 512):
            config = ex.RunConfig(seed, samples, (length,), S(scheme))
            run = _seconds(lambda: list(ex.run_stats(config)), reps) / samples
            draw = _seconds(sampling(length, 2, scheme == "wllc", samples), reps) / samples
            out[f"experiments.run_stats_us.{scheme}.L{length}"] = (run * 1e6, "us")
            out[f"experiments.scheme_metric_us.{scheme}.L{length}"] = ((run - draw) * 1e6, "us")
    samples = 2 * scale
    for length in (256, 512):
        per = _seconds(lambda: ex.compare_schemes(length, samples, seed), reps) / samples
        out[f"experiments.compare_schemes_us.L{length}"] = (per * 1e6, "us")
    out["experiments.redraws"] = (redraws, "count")
    for scheme in ("sjsf", "wllc"):
        out[f"experiments.exhaustive_stats_s.{scheme}"] = (
            _seconds(lambda: ex.exhaustive_stats(S(scheme), wl_exact.EXHAUSTIVE_LENGTH), reps),
            "s",
        )
    out["experiments.complement_bit_probabilities_s"] = (
        _seconds(lambda: ex.complement_bit_probabilities(wl_exact.BIT_LENGTH), reps),
        "s",
    )
    return out


def _recoding_and_expansions(dk, rng, scale, reps):
    rc, S = dk.recoding, dk.recoding.RecodingScheme
    out = {}
    pairs = {length: [(rng.getrandbits(length), rng.getrandbits(length)) for _ in range(scale)]
             for length in (256, 1024)}
    for scheme in RECODE_SCHEMES:
        for length, items in pairs.items():
            per = _seconds(_each(lambda e: rc.recode_joint(e, S(scheme)), items), reps) / len(items)
            out[f"recoding.recode_joint_us.{scheme}.L{length}"] = (per * 1e6, "us")
    small = [(rng.getrandbits(12), rng.getrandbits(12)) for _ in range(2 * scale)]
    for name in ("min_weight1_oracle", "min_joint_weight_oracle"):
        fn = getattr(rc, name)
        per = _seconds(_each(lambda p: fn(*p), small), reps) / len(small)
        out[f"recoding.{name}_us"] = (per * 1e6, "us")
    words = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(10 * scale)]
    per = _seconds(_each(lambda p: rc.sjsf(*p), words), reps) / len(words)
    out["recoding.sjsf_us"] = (per * 1e6, "us")
    joints = [rc.sjsf(*p) for p in words]
    per = _seconds(_each(rc.is_sjsf, joints), reps) / len(joints)
    out["recoding.is_sjsf_us"] = (per * 1e6, "us")

    wllc = {length: [rc.recode_joint(p, S.WLLC) for p in items] for length, items in pairs.items()}
    for length, items in wllc.items():
        per = _seconds(_each(lambda j: j.weight1(), items), reps) / len(items)
        out[f"expansions.weight1_us.L{length}"] = (per * 1e6, "us")
    items = wllc[256]
    per = _seconds(_each(lambda j: j.joint_weight(), items), reps) / len(items)
    out["expansions.joint_weight_us"] = (per * 1e6, "us")
    per = _seconds(_each(lambda j: [c for c in j.columns()], items), reps) / len(items)
    out["expansions.columns_us"] = (per * 1e6, "us")
    digits = [tuple(rng.choice((-1, 0, 0, 1)) for _ in range(257)) for _ in range(10 * scale)]
    per = _seconds(_each(dk.expansions.Expansion, digits), reps) / len(digits)
    out["expansions.construct_us"] = (per * 1e6, "us")
    return out


def _multiexp(dk, rng, scale, reps):
    mx, S = dk.multiexp, dk.recoding.RecodingScheme
    group = mx.ModGroup(mx.MERSENNE61)
    out = {}
    tables = {}
    for dimension in (2, 3):
        bases = [tuple(rng.randrange(2, mx.MERSENNE61) for _ in range(dimension))
                 for _ in range(scale)]
        per = _seconds(_each(lambda b: mx.precompute(b, group), bases), reps) / len(bases)
        out[f"multiexp.precompute_us.d{dimension}"] = (per * 1e6, "us")
        tables[dimension] = mx.precompute(bases[0], group)
    counts = mx.CostCounter()
    for length in (256, 1024):
        joints = [dk.recoding.recode_joint((rng.getrandbits(length), rng.getrandbits(length)), S.WLLC)
                  for _ in range(scale)]
        per = _seconds(_each(lambda j: mx.evaluate(j, tables[2], group), joints), reps) / len(joints)
        out[f"multiexp.evaluate_us.L{length}"] = (per * 1e6, "us")
        for joint in joints:
            _, counter = mx.evaluate(joint, tables[2], group)
            counts.squarings += counter.squarings
            counts.multiplications += counter.multiplications
            counts.precomp_multiplications += counter.precomp_multiplications
            counts.inversions += counter.inversions
    for name in ("squarings", "multiplications", "precomp_multiplications", "inversions"):
        out[f"multiexp.{name}"] = (getattr(counts, name), "count")
    return out


def _transducer(dk, rng, scale, reps):
    t = dk.transducer
    out = {}
    n = scale
    out["transducer.double_naf_transducer_us"] = (
        _seconds(lambda: [t.double_naf_transducer() for _ in range(n)], reps) / n * 1e6, "us"
    )
    machine = t.double_naf_transducer()
    words = [tuple(rng.getrandbits(1) for _ in range(14)) for _ in range(10 * scale)]
    per = _seconds(_each(machine.run, words), reps) / len(words)
    out["transducer.run_us"] = (per * 1e6, "us")
    p = t.transition_matrix(machine)
    out["transducer.state_distribution_ms.k64"] = (
        _seconds(lambda: t.state_distribution(p, 64), reps) * 1e3, "ms"
    )
    out["transducer.stationary_distribution_us"] = (
        _seconds(lambda: [t.stationary_distribution(p) for _ in range(n)], reps) / n * 1e6, "us"
    )
    out["transducer.zero_output_probability_ms.k64"] = (
        _seconds(lambda: t.zero_output_probability(64, "markov"), reps) * 1e3, "ms"
    )
    return out


def _verification(dk, rng, tiny):
    out = {}
    bounds_by_check = wl_exact.TINY_BOUNDS if tiny else wl_exact.BOUNDS
    for name, bounds in bounds_by_check.items():
        if name in wl_exact.SEEDED_CHECKS:
            bounds = dict(bounds, seed=rng.getrandbits(32))
        start = time.perf_counter()
        report = dk.verification.run_check(name, **bounds)
        out[f"verification.{name}_s"] = (time.perf_counter() - start, "s")
        out[f"verification.{name}.cases"] = (report.cases, "count")
    return out


def _cli(reps):
    out = {}
    for name, code in (("interpreter", "pass"), ("import", "import digitkit")):
        times = [run_child(["-c", code])[0] for _ in range(reps)]
        out[f"cli.{name}_ms"] = (statistics.median(times) * 1e3, "ms")
    for name, argv in wl_cli.COMMANDS.items():
        elapsed, _ = run_child(["-m", "digitkit", *argv])
        out[f"cli.{name}_ms"] = (elapsed * 1e3, "ms")
    return out
