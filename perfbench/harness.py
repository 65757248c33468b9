"""Shared pieces of the workloads: timed operations, checks, child processes."""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation a client waited for, and what its output check found."""

    kind: str
    round: int
    seconds: float
    units: int
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    measured: bool = True
    start: float = 0.0


class Session:
    """Collects the operations of one run.

    `timed` runs an operation inside the clock and its output check
    outside it; an exception or a check problem marks the operation
    failed.  `tracer` is set while a traced round runs; `measured` is
    false during warm-up, whose operations are checked but not timed.
    After each measured operation the `calibrator`, when set, is topped
    up with its time.
    """

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.round = 0
        self.tracer = None
        self.measured = True
        self.calibrator = None

    def timed(self, kind: str, units: int, call: Callable, check: Callable):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            elapsed = time.perf_counter() - start
            self._pause()
            self._record(kind, elapsed, units, [traceback.format_exc(limit=3)], True, start)
            return None
        elapsed = time.perf_counter() - start
        self._pause()
        self._record(kind, elapsed, units, self._checked(check, out), True, start)
        return out

    def _pause(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False

    def untimed(self, kind: str, call: Callable, check: Callable) -> None:
        """A checked operation that is not part of any latency or rate."""
        try:
            problems = self._checked(check, call())
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        self._record(kind, 0.0, 0, problems, False)

    @staticmethod
    def _checked(check: Callable, out) -> list[str]:
        try:
            return list(check(out))
        except Exception:
            return ["checker raised: " + traceback.format_exc(limit=3)]

    def _record(self, kind, seconds, units, problems, timed, start=0.0) -> None:
        traced = self.tracer is not None
        measured = timed and self.measured
        self.ops.append(Op(kind, self.round, seconds, units, problems, traced, measured, start))
        if measured and self.calibrator is not None:
            self.calibrator.top_up(seconds)

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.ops if op.problems]


def library_seed(seed: int, *parts: object) -> int:
    """A 64-bit seed for the library, derived from the benchmark seed."""
    text = "/".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion; (wall seconds, result)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, done


def time_to_ready(code: str) -> float:
    """Seconds from starting a child interpreter until it has run `code`.

    The child prints a line once the code has run; the clock stops when
    that line arrives, so interpreter teardown is not counted.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code + "\nprint('ready', flush=True)"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.kill()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed ({child.returncode}): {err.strip()}")
    return elapsed
