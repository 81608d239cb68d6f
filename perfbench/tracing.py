"""In-memory span recorder for the traced benchmark run.

Functions are wrapped from outside the package, at every module attribute
through which a caller looks them up, so that no source file of the program
changes. Each call becomes a span (name, start, end, parent span, run id);
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans and counters; ``wrap_*`` patch callables, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run_id = -1
        self.counters: dict[int, dict] = defaultdict(dict)
        self.missing: list[str] = []
        self._open: list = []          # spans of the current run, as tuples
        self._closed: list = []        # (run id, structured array) per finished run
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attr, original) to restore

    # -- spans and counters -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id

    def end_run(self) -> None:
        """Compact the current run's spans into arrays (cheaper to hold)."""
        n = len(self._open)
        arr = np.zeros(n, dtype=_SPAN_DTYPE)
        if n:
            cols = list(zip(*self._open))
            for field, col in zip(_SPAN_DTYPE.names, cols):
                arr[field] = col
        self._closed.append((self.run_id, arr))
        self._open = []
        self.run_id = -1

    def add(self, name: str, value: float) -> None:
        run = self.counters[self.run_id]
        run[name] = run.get(name, 0.0) + value

    def note_once(self, name: str, value: float) -> None:
        self.counters[self.run_id].setdefault(name, value)

    def call(self, name, fn, args, kwargs, on_exit=None):
        """Run ``fn`` inside a span named ``name`` (a string or a function of args)."""
        nid = self.name_id(name(args) if callable(name) else name)
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self._open)
        self._open.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._open[index] = (nid, start, end, parent, self.run_id)
        if on_exit is not None:
            on_exit(self, args, result)
        return result

    # -- patching -----------------------------------------------------------

    def _wrapper(self, name, fn, on_exit):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap_function(self, modules, home, attr, name, on_exit=None) -> None:
        """Wrap ``home.attr`` in every module that holds the same function object."""
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, on_exit))

    def wrap_method(self, cls, attr, name, on_exit=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, on_exit))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def runs(self) -> list["RunSpans"]:
        return [RunSpans(self.names, arr, self.counters.get(run_id, {}))
                for run_id, arr in self._closed]

    def save(self, path) -> None:
        """Write every recorded span as a compressed NumPy archive."""
        spans = np.concatenate([arr for _, arr in self._closed] or [np.zeros(0, _SPAN_DTYPE)])
        np.savez_compressed(path, names=np.array(self.names), **{f: spans[f] for f in _SPAN_DTYPE.names})


_SPAN_DTYPE = np.dtype([
    ("name", np.int32), ("start", np.float64), ("end", np.float64),
    ("parent", np.int64), ("run", np.int32),
])


class RunSpans:
    """Per-name aggregates of one run's spans.

    Self time is a span's duration minus the time its direct children cover.
    """

    def __init__(self, names, spans, counters):
        self.names = names
        self.counters = counters
        self._ids = {n: i for i, n in enumerate(names)}
        n = len(names)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=spans.size)
        self_time = dur - child
        nid = spans["name"]
        self._calls = np.bincount(nid, minlength=n)
        self._total = np.bincount(nid, weights=dur, minlength=n)
        self._self = np.bincount(nid, weights=self_time, minlength=n)
        self._spans = spans
        self._dur = dur
        self._parent_name = np.where(has_parent, nid[np.where(has_parent, parent, 0)], -1)

    def _pick(self, table, names):
        return sum(float(table[self._ids[n]]) for n in names if n in self._ids)

    def calls(self, *names) -> float:
        return self._pick(self._calls, names)

    def total_s(self, *names) -> float:
        return self._pick(self._total, names)

    def self_s(self, *names) -> float:
        return self._pick(self._self, names)

    def durations(self, name) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        return self._dur[self._spans["name"] == self._ids[name]]

    def calls_not_under(self, name, parent_name) -> float:
        """Calls of ``name`` whose direct parent span is not ``parent_name``."""
        if name not in self._ids:
            return 0.0
        mine = self._spans["name"] == self._ids[name]
        pid = self._ids.get(parent_name, -2)
        return float(np.count_nonzero(mine & (self._parent_name != pid)))

    def counter(self, name, default=0.0) -> float:
        return float(self.counters.get(name, default))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0
