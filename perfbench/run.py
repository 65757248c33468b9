"""digitkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the digitkit sources under src/ of the checkout
this file sits in, as one client in a closed loop (the next operation
starts when the previous one returns; workers = 1).  Every operation's
output is checked outside the timed region.  The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  The end-to-end times are at the reference speed of a
calibration kernel timed alongside the work (calibrate.py).  The line
before the result is a report with the run's metadata, the raw
end-to-end figures, the per-workload breakdowns and, when traced, the
per-module trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import probes  # noqa: E402
import wl_cli  # noqa: E402
import wl_exact  # noqa: E402
import wl_montecarlo  # noqa: E402
import wl_multiexp  # noqa: E402
from calibrate import INTERPRETER_START, Calibrator  # noqa: E402
from harness import ROOT, SRC, Session, percentile, time_to_ready  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_montecarlo, wl_multiexp, wl_exact, wl_cli)}
SETUP_REPEATS = 11
# Share of the set-up time given to its calibration kernel.
SETUP_CALIBRATION_SHARE = 0.3
OUT_DIR = harness.BENCH_DIR / "out"
PINNED = harness.BENCH_DIR / "pinned.json"


def import_digitkit() -> SimpleNamespace:
    """Import the package from the checkout's src/, never from elsewhere.

    Returns its modules by layer name, plus the package itself; the
    package namespace cannot serve, as its `multiexp` is the function.
    """
    init = SRC / "digitkit" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no digitkit sources at {init}")
    sys.path.insert(0, str(SRC))
    import digitkit
    import digitkit.cli  # noqa: F401  (the tracer wraps every module)

    if Path(digitkit.__file__).resolve() != init.resolve():
        raise ImportError(f"digitkit imported from {digitkit.__file__}, not {init}")
    modules = {layer: sys.modules[f"digitkit.{layer}"] for layer in LAYERS}
    return SimpleNamespace(package=digitkit, **modules)


def git_commit() -> str | None:
    """The checkout's commit when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def drive(workload, session: Session, seconds: float, tracer: Tracer | None) -> int:
    """Warm up with one unmeasured round, then run rounds until `seconds`
    of measured operation time have passed.  With a tracer each round runs
    twice on the same inputs, traced and untraced, alternating which goes
    first.  Returns the number of measured rounds."""
    session.measured = False
    session.round = -1
    workload.round(0, session)
    session.measured = True
    elapsed = 0.0
    r = 0
    while elapsed < seconds:
        modes = [None] if tracer is None else ([None, tracer] if r % 2 == 0 else [tracer, None])
        for mode in modes:
            session.round = r
            before = len(session.ops)
            session.tracer = mode
            with mode or nullcontext():
                workload.round(r, session)
            session.tracer = None
            elapsed += sum(op.seconds for op in session.ops[before:])
        r += 1
    return r


def _rounds(ops) -> dict[int, tuple[float, int]]:
    """{round: (seconds, units)} over the given operations."""
    out: dict[int, list] = {}
    for op in ops:
        entry = out.setdefault(op.round, [0.0, 0])
        entry[0] += op.seconds
        entry[1] += op.units
    return {r: (s, u) for r, (s, u) in out.items()}


def end_to_end(module, ops, setup: list[float], calibrator=None, setup_calibrator=None) -> dict:
    """The end-to-end metrics, raw without calibrators.  With them every
    time is at the reference speed: the rate scaled by the run's mean
    kernel time, each latency by the kernel calls around it, and the
    set-up time by the mean of the interpreter starts timed between the
    set-up children."""
    if module.LATENCY == "round":
        spans: dict[int, list] = {}
        for op in ops:
            span = spans.setdefault(op.round, [op.start, 0.0, 0.0])
            span[1] = op.start + op.seconds
            span[2] += op.seconds
        spans = spans.values()
    else:
        spans = [(op.start, op.start + op.seconds, op.seconds) for op in ops]
    latencies = [
        1e3 * busy * (calibrator.local_factor(start, end) if calibrator else 1.0)
        for start, end, busy in spans
    ]
    factor = calibrator.factor() if calibrator else 1.0
    setup_factor = setup_calibrator.factor() if setup_calibrator else 1.0
    return {
        "setup_s": {"value": setup_factor * statistics.median(setup), "unit": "s"},
        "work_per_s": {
            "value": sum(op.units for op in ops) / sum(op.seconds for op in ops) / factor,
            "unit": "1/s",
        },
        "op_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
    }


def traced_layers(ops, tracer: Tracer) -> tuple[dict, dict]:
    """Per-module self time, calls and share of the traced rounds' wall
    time, and the tracing overhead against the untraced runs of the same
    rounds.  Returns (metrics, report)."""
    traced = _rounds([op for op in ops if op.traced])
    plain = _rounds([op for op in ops if not op.traced])
    wall = sum(s for s, _ in traced.values())
    n = len(traced)
    metrics = {}
    attributed = 0.0
    for layer, (seconds, calls) in tracer.by_layer().items():
        attributed += seconds
        metrics[f"trace.{layer}.self_ms"] = {"value": seconds * 1e3 / n, "unit": "ms"}
        metrics[f"trace.{layer}.calls"] = {"value": calls / n, "unit": "count"}
        metrics[f"trace.{layer}.share"] = {"value": 100 * seconds / wall, "unit": "%"}
    metrics["trace.other.share"] = {"value": 100 * (wall - attributed) / wall, "unit": "%"}
    ratios = [traced[r][0] / plain[r][0] for r in traced if r in plain]
    metrics["trace.overhead_pct"] = {
        "value": 100 * (statistics.median(ratios) - 1),
        "unit": "%",
    }
    metrics["trace.untraced_round_ms"] = {
        "value": 1e3 * statistics.median(s for s, _ in plain.values()),
        "unit": "ms",
    }
    metrics["trace.traced_round_ms"] = {
        "value": 1e3 * statistics.median(s for s, _ in traced.values()),
        "unit": "ms",
    }
    report = {
        "traced_rounds": n,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "self_ms_by_function": {
            name: round(s * 1e3, 3) for name, s in sorted(tracer.self_s.items())
        },
        "calls_by_function": dict(sorted(tracer.calls.items())),
    }
    return metrics, report


def run(dk, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run of one workload.  Returns (report, result)."""
    loadavg = os.getloadavg()
    module = WORKLOADS[name]
    setup: list[float] = []
    if not trace:
        setup_calibrator = Calibrator(INTERPRETER_START, SETUP_CALIBRATION_SHARE)
        for _ in range(1 if tiny else SETUP_REPEATS):
            setup.append(time_to_ready(module.SETUP))
            setup_calibrator.top_up(setup[-1])
    workload = module.Workload(dk, seed, tiny)
    session = Session()
    if name == wl_montecarlo.NAME:
        workload.pinned_round(session, json.loads(PINNED.read_text()))
    tracer = Tracer() if trace else None
    if not trace:
        session.calibrator = Calibrator(module.CALIBRATION)
    rounds = drive(workload, session, seconds, tracer)
    measured = [op for op in session.ops if op.measured]
    untraced = [op for op in measured if not op.traced]
    report = {
        "meta": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "tiny": tiny,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "digitkit_version": dk.package.__version__,
            "git_commit": git_commit(),
            "loadavg_start": loadavg,
            "rounds": rounds,
            "operations": dict(Counter(op.kind for op in measured)),
            "inputs": workload.describe(),
        },
        "workload_metrics": workload.summary(untraced),
        "failures": [p for op in session.failed for p in op.problems][:20],
    }
    if trace:
        metrics = {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in probes.measure(dk, seed, tiny).items()
        }
        layer_metrics, report["trace"] = traced_layers(measured, tracer)
        metrics.update(layer_metrics)
        report["spans"] = tracer.spans
    else:
        metrics = end_to_end(module, untraced, setup, session.calibrator, setup_calibrator)
        report["calibration"] = {
            "setup": setup_calibrator.report(),
            "work": session.calibrator.report(),
        }
        report["raw_end_to_end"] = {
            key: m["value"] for key, m in end_to_end(module, untraced, setup).items()
        }
    attempted = len(session.ops)
    failed = len(session.failed)
    report["meta"]["failed_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on the CPU it is on,
    so the calibration kernel runs on the core it calibrates."""
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, `processor`
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        dk = import_digitkit()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    report, result = run(dk, args.workload, args.seed, args.seconds, bool(args.trace))
    spans = report.pop("spans", None)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"report": report, "result": result, "spans": spans}))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
