"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a few virtual CPUs of a shared host.  Their speed
drifts with the load of other tenants on the same cores: the cores switch
between a fast and a slow state (pure-Python code runs about 1.6 times
slower in the slow one) every few milliseconds, and spend anything from
15% to all of a ten-second window in the slow state.  That moves every raw
time of a run by 10-50% and swamps any change to digitkit.

So a run also times a fixed calibration kernel that never calls digitkit
but does the same kind of work as the workload's operations, and so slows
down with them:

- INTERPRETER: big-integer bit walking, small tuples, dict counting,
  modular products and Fraction sums, the pure-Python mix of `recoding`,
  `expansions`, `multiexp` and `verification`;
- SAMPLING: BLAKE2b seeds, `random.Random` streams and whole-word
  big-integer arithmetic, with a short digit walk: the mix of the
  `experiments` fast paths, whose C-level share makes them less sensitive
  to the slow state than interpreter loops;
- INTERPRETER_START: a bare `python -c pass` child, the process start and
  interpreter set-up that every cold invocation pays before digitkit.

The kernel runs after each measured operation until it has had `share` of
the measured time, so it samples the same host state as the operations.
Times are then reported at the reference speed:

    reported = raw * nominal_s / (mean kernel time over the same span)

The span is the whole run for a rate, and the time around each latency
(LOCAL_WINDOW_S either side, and at least LOCAL_MIN_CALLS kernel calls)
for a latency.  A time summed over a span grows in proportion to the slow
share, and so does the kernel's mean, so their ratio holds still where a
median of either would jump between the two states; and a percentile of
latencies sorts each operation's own cost, not the state the host was in
while it ran.

A change to digitkit moves the operations but not the kernel, so it moves
the reported times in full; a slower host moves both and cancels.  The raw
figures and the kernel's mean are in the report line.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import struct
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from harness import run_child

SHARE = 0.1
WARM_S = 0.05
LOCAL_WINDOW_S = 0.1
LOCAL_MIN_CALLS = 8

_M61 = (1 << 61) - 1
_WORDS = tuple(
    int.from_bytes(hashlib.sha512(bytes([i])).digest() * 2, "little") for i in range(2)
)


def _digit_walk(word: int, acc: int, counts: dict) -> int:
    """Signed-digit recoding of `word`, the digits counted by position class."""
    digits = []
    x = word
    while x:
        if x & 1:
            d = 2 - (x & 3)
            x -= d
        else:
            d = 0
        digits.append(d)
        x >>= 1
    for i, d in enumerate(digits):
        key = (d, i & 7)
        counts[key] = counts.get(key, 0) + 1
        if d:
            acc = acc * (i + 3) % _M61
    return acc


def interpreter_kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    acc = 1
    for word in _WORDS:
        acc = _digit_walk(word, acc, counts)
    total = Fraction(0)
    for k in range(1, 24):
        total += Fraction(1, k * k)
    return acc ^ len(counts) ^ (total.numerator % _M61)


def sampling_kernel() -> int:
    weight = 0
    for index in range(120):
        digest = hashlib.blake2b(struct.pack("<QQ", 7, index), digest_size=8).digest()
        rng = random.Random(int.from_bytes(digest, "little"))
        m, n = rng.getrandbits(512), rng.getrandbits(512)
        weight += ((((3 * m) ^ m) | ((3 * n) ^ n)) >> 1).bit_count()
    counts: dict[tuple[int, int], int] = {}
    return weight ^ _digit_walk(_WORDS[0] >> 512, 1, counts)


def interpreter_start_kernel() -> int:
    _, done = run_child(["-c", "pass"])
    return done.returncode


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], int]
    # About the kernel's mean time on a 2-vCPU Xeon VM (Python 3.11).
    # Only a scale: it makes reported times read as raw times there.
    nominal_s: float


INTERPRETER = Kernel("interpreter", interpreter_kernel, 0.0012)
SAMPLING = Kernel("sampling", sampling_kernel, 0.0016)
INTERPRETER_START = Kernel("interpreter_start", interpreter_start_kernel, 0.06)


class Calibrator:
    """Times one kernel, interleaved with the measured work."""

    def __init__(self, kernel: Kernel, share: float = SHARE) -> None:
        self.kernel = kernel
        self.share = share
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.sums = [0.0]  # prefix sums of samples
        self.owed_for = 0.0
        self.spent = 0.0
        self.result = kernel.run()
        warm_until = time.perf_counter() + WARM_S
        while time.perf_counter() < warm_until:
            self._check(kernel.run())

    def _check(self, result: int) -> None:
        if result != self.result:
            raise RuntimeError(f"calibration kernel {self.kernel.name} gave {result}")

    def top_up(self, measured_s: float) -> None:
        """Account `measured_s` more seconds of work, then run the kernel
        until it has had `share` of all the work so far (at least once)."""
        self.owed_for += measured_s
        while self.spent < self.share * self.owed_for or not self.samples:
            start = time.perf_counter()
            result = self.kernel.run()
            elapsed = time.perf_counter() - start
            self._check(result)
            self.record(start, elapsed)

    def record(self, start: float, elapsed: float) -> None:
        """One kernel call that started at `start` and took `elapsed`."""
        self.samples.append(elapsed)
        self.starts.append(start)
        self.spent += elapsed
        self.sums.append(self.spent)

    def mean_s(self) -> float:
        return self.spent / len(self.samples)

    def factor(self) -> float:
        """Multiply a raw time by this to get it at the reference speed."""
        return self.kernel.nominal_s / self.mean_s()

    def local_factor(self, start: float, end: float) -> float:
        """`factor` from the kernel calls within LOCAL_WINDOW_S of the span
        from `start` to `end`, widened to at least LOCAL_MIN_CALLS calls."""
        lo = bisect.bisect_left(self.starts, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + LOCAL_WINDOW_S)
        while hi - lo < min(LOCAL_MIN_CALLS, len(self.samples)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.samples))
        return self.kernel.nominal_s * (hi - lo) / (self.sums[hi] - self.sums[lo])

    def report(self) -> dict:
        return {
            "kernel": self.kernel.name,
            "kernel_mean_ms": 1e3 * self.mean_s(),
            "kernel_calls": len(self.samples),
            "factor": self.factor(),
        }
