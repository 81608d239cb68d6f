"""A fixed probe kernel that measures how fast the machine is right now.

On a shared machine, load from other processes changes how fast the same
code runs by tens of percent within seconds. The probe runs no spmlab code;
it mixes the kinds of work the package does (interpreter loops over small
NumPy arrays, a sort, CSV formatting and parsing) and takes under two
milliseconds. It runs right before and right after each timed operation and,
through a SIGALRM interval timer, every 0.1 s while the operation runs.
Dividing the operation's time (minus the probes' own time) by the mean
probe time cancels most of the outside load, because it slows both alike;
that ratio is ``wall_norm``. Set-up time is measured the same way and
reported in seconds on a nominal machine on which the probe takes
``NOMINAL_PROBE_S``.

Process CPU time is no steadier than wall time here: the outside load slows
this process while it runs, rather than taking the CPU away from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import signal
import time

import numpy as np

INTERVAL_S = 0.1
NOMINAL_PROBE_S = 1e-3


class Window:
    """Probe timings taken around and during one operation."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_cost = 0.0        # seconds the periodic probes took from the operation

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 32))
        self._w = 0.1 * rng.standard_normal((32, 19))
        self._v = 0.1 * rng.standard_normal((19, 32))
        self._keys = np.round(rng.random(2000) * 50) / 50
        self._rows = rng.standard_normal((8, 19)).tolist()
        self._window: Window | None = None

    def _kernel(self) -> None:
        z = self._x
        for _ in range(30):
            p = 1.0 / (1.0 + np.exp(-(z @ self._w)))
            np.all(np.isfinite(p))
            z = np.tanh(np.where(p > 0.5, p, 0.5 * p) @ self._v)
        np.lexsort((np.arange(self._keys.size), -self._keys))
        buf = io.StringIO()
        csv.writer(buf).writerows([[repr(v) for v in row] for row in self._rows])
        for row in csv.reader(io.StringIO(buf.getvalue())):
            [float(cell) for cell in row]

    def _probe(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - t0
        self._window.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        if self._window is None:     # a signal delivered just before the timer stopped
            return
        t0 = time.perf_counter()
        self._probe()
        self._window.probe_cost += time.perf_counter() - t0

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return its result, its seconds and its time in probe units."""
        with self.window() as window:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0 - window.probe_cost
        return result, seconds, seconds / window.mean_s

    @contextlib.contextmanager
    def window(self):
        """Probe before, periodically during, and after the enclosed operation."""
        self._window = window = Window()
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            self._window = None
