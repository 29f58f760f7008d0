"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  The benchmark opens and closes
spans from outside the package: it wraps package callables, or rebinds
module attributes for the duration of one traced pass, and never edits
the package itself.  Spans live in flat arrays until the run ends, when
they are summarised per name and written out.

Self time of a span is its duration minus the durations of its direct
children.  The code is single-threaded, so children are sequential and
nested inside their parent, and the self times of a subtree sum to the
duration of its root.
"""

from __future__ import annotations

import random
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Records spans opened by the wrappers that `wrap` returns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(args, result) runs after the span closes."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _arrays(self):
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return names, parent, dur

    def self_times(self) -> np.ndarray:
        _, parent, dur = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def totals(self) -> dict[str, SpanTotals]:
        names, _, dur = self._arrays()
        own = self.self_times()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {
            name: SpanTotals(int(calls[i]), float(total[i]), float(selfs[i]))
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        _, parent, dur = self._arrays()
        return float(dur[parent < 0].sum())

    def min_self(self) -> float:
        own = self.self_times()
        return float(own.min()) if len(own) else 0.0

    def write(self, path: str) -> None:
        """Write every span as arrays: names, name_id, parent, start, end (seconds)."""
        names, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=names.astype(np.int32),
            parent=parent.astype(np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


class Reservoir:
    """Uniform sample of fixed size from a stream, driven by a seeded generator."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0

    def add(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        j = self.rng.randrange(self.seen)
        if j < self.size:
            self.items[j] = item


@contextmanager
def patched(*bindings):
    """Rebind (object, attribute, value) triples and restore them on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in bindings]
    for obj, attr, value in bindings:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
