"""cli: sequential cold invocations of `python -m digitkit`.

The README's examples of recode, multiexp, markov, falsify bit-prob, a
small verify thm2 and stats --exhaustive, one child process at a time.
A round runs each once in a seeded order.  Each answer must exit 0 and
print exactly the stdout recorded in cli_golden.json, which agrees with
the output the README documents for these commands.
"""

from __future__ import annotations

import json
import random

import calibrate
from harness import BENCH_DIR, library_seed, percentile, run_child

NAME = "cli"
CALIBRATION = calibrate.INTERPRETER_START
LATENCY = "op"

GOLDEN = json.loads((BENCH_DIR / "cli_golden.json").read_text())
COMMANDS = {name: entry["argv"] for name, entry in GOLDEN.items()}

SETUP = """
import digitkit.cli
digitkit.cli.build_parser()
"""

# A traced invocation: the same main(), with the tracer installed after
# import; the child reports its per-layer self time on the last stderr line.
TRACED_CHILD = """
import json, sys, time
start = time.perf_counter()
import digitkit.cli
imported = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer(keep=0)
tracer.install()
tracer.active = True
try:
    code = digitkit.cli.main(sys.argv[2:])
finally:
    tracer.active = False
    tracer.uninstall()
sys.stdout.flush()
print(json.dumps({"import_s": imported - start, "layers": tracer.by_layer()}), file=sys.stderr)
sys.exit(code)
"""


class Workload:
    def __init__(self, dk, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.import_s: list[float] = []

    def describe(self) -> dict:
        return {"commands": COMMANDS, "interpreter": "python -m digitkit"}

    def round(self, r: int, session) -> None:
        order = list(COMMANDS)
        random.Random(library_seed(self.seed, NAME, r)).shuffle(order)
        for name in order:
            session.timed(name, 1, lambda: self.invoke(name, session.tracer), lambda out: check(name, out))

    def invoke(self, name: str, tracer):
        argv = COMMANDS[name]
        if tracer is None:
            _, done = run_child(["-m", "digitkit", *argv])
            return done
        _, done = run_child(["-c", TRACED_CHILD, str(BENCH_DIR), *argv])
        report = json.loads(done.stderr.strip().splitlines()[-1])
        self.import_s.append(report["import_s"])
        for layer, (seconds, calls) in report["layers"].items():
            tracer.self_s[f"{layer}.child"] += seconds
            tracer.calls[f"{layer}.child"] += calls
        return done

    def summary(self, ops) -> dict:
        ms = [op.seconds * 1e3 for op in ops]
        out = {
            "cli.cold_start_p50_ms": percentile(ms, 50),
            "cli.cold_start_p90_ms": percentile(ms, 90),
        }
        if self.import_s:
            out["cli.traced_import_ms"] = 1e3 * percentile(self.import_s, 50)
        return out


def check(name: str, done) -> list[str]:
    """Exit code 0 and the documented stdout, byte for byte."""
    problems = []
    if done.returncode != 0:
        problems.append(f"{name}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
    if done.stdout != GOLDEN[name]["stdout"]:
        problems.append(f"{name}: stdout differs: {done.stdout[:300]!r}")
    return problems
