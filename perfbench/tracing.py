"""In-memory spans with parent ids, self-time arithmetic, and attribute patching.

A span is (name, parent span, start, end). The traced program is
single-threaded, so spans nest: a span's children lie inside it and do not
overlap, and its self time is its duration minus its children's durations.
Spans are kept in flat arrays for the length of one pass and reduced when the
pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np


def self_times(name_ids, parents, starts, ends, n_names: int) -> np.ndarray:
    """Total self time per name id.

    Each span contributes its duration minus the durations of the spans whose
    parent it is; a parent of -1 marks a root span.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    children = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
    return np.bincount(
        np.asarray(name_ids, dtype=np.int64), weights=dur - children, minlength=n_names
    )


class Tracer:
    """Records spans and named counters for one pass at a time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts.clear()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        if self._stack.pop() != sid:
            raise RuntimeError("spans must close in reverse order of opening")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def within(self, name: str) -> bool:
        """True while a span of this name is open."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name_ids[s] == nid for s in self._stack)

    def wrap(self, fn, name, count=None):
        """fn inside a span. `name` is a string or a function of fn's
        arguments; `count(tracer, result, *args, **kwargs)` runs after a call
        that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        selfs = self_times(self.name_ids, self.parents, self.starts, self.ends, len(self.names))
        calls = np.bincount(np.asarray(self.name_ids, dtype=np.int64), minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block and
    restore every original afterwards, also when the block raises."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
