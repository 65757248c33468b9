"""Record a before/after benchmark comparison as a BENCH_*.json file.

    python3 scripts/bench_record.py --parent ../parent --change . \
        --seeds 1 2 3 --out BENCH_N.json

Runs `perfbench/run.py --workload W --seed s --seconds S --trace 0` in
the parent checkout and in the change checkout, for every workload that
the change's BENCHMARK.json lists (S is its run_seconds) and every seed,
alternating parent and change run by run and which side runs first from
seed to seed.  Each run writes its
report under `perfbench/out/` of the checkout it runs in, so point
`--parent` at a checkout outside this repository (a `git worktree` or a
`git clone` of the parent commit).

The output holds the machine (nproc, Python, platform), both checkouts'
commits and source trees, every run's metrics, and per metric and side
the median and the quartiles; per metric it also counts the seeds on
which the change read better than the parent, by the direction
BENCHMARK.json gives.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def git(checkout: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def describe(checkout: Path) -> dict:
    """The commit a checkout is at, its src/ and perfbench/ trees, and
    whether tracked files differ from the commit."""
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_tree": git(checkout, "rev-parse", "HEAD:src"),
        "perfbench_tree": git(checkout, "rev-parse", "HEAD:perfbench"),
        "dirty": None if status is None else bool(status),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last stdout line is the result."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout}: {' '.join(command)} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": round(time.monotonic() - started, 2),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the seeds on which
    the change read better than the parent (ties count for neither)."""
    out = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {
            side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES
        }
        entry = {"unit": first["unit"], **{side: quartiles(values[side]) for side in SIDES}}
        direction = better.get(name)
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            entry["better"] = direction
            entry["change_wins"] = sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            )
            entry["pairs"] = len(values["parent"])
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 3:
        parser.error("quartiles need at least 3 seeds")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu": cpu_model(),
        },
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "checkouts": {side: describe(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(run)
                print(
                    f"{workload} seed {seed} {side}: failed {run['failed']}, "
                    + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in run["metrics"].items()
                    ),
                    file=sys.stderr,
                )
        report["workloads"][workload] = {
            "summary": summarize(runs, better),
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
