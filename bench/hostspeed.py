"""Host-speed calibration: a fixed kernel timed all through a run.

On small shared virtual machines the same pure-Python work runs at speeds
that drift by a third within a minute (0.26 to 0.40 s for one fixed loop,
in stretches of 10 to 20 s), while process CPU time stays within 2 % of wall
time, so neither wall nor CPU time is steady from one run to the next.

``HostSpeed`` therefore keeps a calibrator: a separate interpreter that
times ``kernel`` (exact rational arithmetic, like curvezeta's own work)
whenever asked.  The benchmark asks every ``PERIOD_S`` seconds, between
jobs and, with the job process paused, during long ones.  A job's time is
scaled by ``REFERENCE_S`` over the mean kernel time from ``WINDOW_S``
before the job to ``WINDOW_S`` after it, which gives
seconds at the host speed where the kernel takes ``REFERENCE_S``.  The
calibrator is its own process so that its timings do not include the
copy-on-write faults a process sharing pages with a forked job would take,
and ``run.py`` pins the benchmark's processes to one CPU, so that it times
the CPU the jobs run on.  Raw times are kept in the results.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.25
# One kernel timing is noisy; a job is scaled by their mean over this much
# time on either side of it, still short against the 10-20 s drift.
WINDOW_S = 2.0
# About the time of two kernel runs on a quiet 2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11.
REFERENCE_S = 0.015


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i)
    p = [Fraction(i, 7) for i in range(30)]
    conv = [Fraction(0)] * 59
    for i, x in enumerate(p):
        for j, y in enumerate(p):
            conv[i + j] += x * y
    return acc + conv[29]


def serve() -> None:
    """Calibrator loop: one line in, the seconds of two kernel runs out.

    An untimed run first warms the caches the job evicted, so the timing
    reflects the host's speed rather than this process's wake-up.
    """
    for _ in sys.stdin:
        kernel()
        start = time.perf_counter()
        kernel()
        kernel()
        print(time.perf_counter() - start, flush=True)


class HostSpeed:
    """A calibrator process and its kernel timings, as (parent clock, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = -PERIOD_S
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PERIOD_S

    def sample(self) -> None:
        start = time.perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        seconds = float(self._proc.stdout.readline())
        self._last = time.perf_counter()
        self.samples.append(((start + self._last) / 2, seconds))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time within WINDOW_S of [start, end].

        ``run_job`` samples whenever PERIOD_S has passed, so the window is
        never empty.
        """
        near = [s for mid, s in self.samples if start - WINDOW_S <= mid <= end + WINDOW_S]
        return REFERENCE_S / statistics.mean(near)


if __name__ == "__main__":
    serve()
