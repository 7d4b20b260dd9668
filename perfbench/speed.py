"""Host-speed calibration for timings taken on a shared machine.

On a shared 2-vCPU virtual machine the same ``predict_instance`` call was measured
at 7.4 ms and 13 ms a few seconds apart: the host's CPU speed drifts by up to
~75% over seconds to minutes, far more than the changes the benchmark must
resolve. A fixed calibration probe, interpreter-bound small-array work shaped
like a taped recurrence and independent of aspectcrf, slows down by nearly
the same factor (the program/probe time ratio varied ~5% where the raw times
varied ~36%). So while the benchmark measures, an interval timer runs the
probe every ``PROBE_EVERY_S`` seconds of wall time, wherever the main thread
is (Python runs the SIGALRM handler between bytecodes), the benchmark's
clock stops while the probe runs, and each duration is reported rescaled to
the speed at which the probe takes ``REFERENCE_PROBE_S``:

    reported = measured * REFERENCE_PROBE_S * mean(1 / probe time) over the probes in the interval

With probes evenly spaced in time this integrates the speed over the
interval, so an interval that straddles a fast and a slow period is scaled
by their time-weighted mix.

Raw wall-clock figures are printed next to the result for comparison.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.002
PROBE_EVERY_S = 0.1
MIN_PROBES = 5  # probes behind every factor; the nearest ones when an interval holds fewer

_rng = np.random.default_rng(20201006)
_W = _rng.uniform(-0.1, 0.1, (64, 192))
_X0 = _rng.uniform(-0.1, 0.1, 64)
_BLOCK = _rng.random(200_000)


def probe_work() -> float:
    """Fixed work: 120 small-matrix recurrence steps with closures, then a large sum."""
    h = _X0
    entries = []
    for _ in range(120):
        z = h @ _W
        r = 1.0 / (1.0 + np.exp(-z[:64]))
        c = np.tanh(z[128:] * r)
        h = 0.5 * h + 0.5 * c
        entries.append((h, lambda g, r=r: g * r))
        if not math.isfinite(float(h.sum())):
            raise ArithmeticError("calibration probe diverged")
    for _, adjoint in reversed(entries):
        adjoint(h)
    return float(_BLOCK.sum())


class Speed:
    """A clock that stops while the probe runs, plus the probe timings."""

    def __init__(self):
        self._paused = 0.0
        self._in_probe = False
        self.starts: list[float] = []  # probe start, on this clock
        self.durations: list[float] = []

    def now(self) -> float:
        while True:
            paused = self._paused
            t = time.perf_counter()
            if paused == self._paused:  # no probe ran in between
                return t - paused

    def probe(self) -> None:
        if self._in_probe:
            return
        self._in_probe = True
        try:
            started = time.perf_counter()
            probe_work()
            ended = time.perf_counter()
            self.starts.append(started - self._paused)
            self.durations.append(ended - started)
            self._paused += ended - started
        finally:
            self._in_probe = False

    @contextlib.contextmanager
    def sampling(self):
        """Run the probe every PROBE_EVERY_S seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def held(self):
        """Defer probes until the block ends, so a short timed call never contains one.

        A probe inside a few-millisecond request would also leave it running
        on caches the probe evicted, which is enough to fill the latency tail.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S times the mean inverse probe time in [start, end] (clock times)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else math.inf
            after = self.starts[hi] - end if hi < len(self.starts) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no calibration probe recorded")
        return REFERENCE_PROBE_S * statistics.fmean(1.0 / d for d in self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The duration end - start at the reference speed."""
        return (end - start) * self.factor(start, end)
