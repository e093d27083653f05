"""In-memory span recorder installed around the program's public calls.

A span is ``(name, start, end, parent)``.  Spans are kept in a list and
only summarised when the benchmark ends, so recording costs one clock
read and one append per call.  Spans are installed from outside the
program: :meth:`Tracer.wrap` replaces a function (or method) in every
already-imported ``repro`` module that holds a reference to it, so
``from x import f`` call sites are covered too.

A span opened on a thread with no open span of its own (a service's
batcher thread) is parented to the innermost span open on the root's
thread: in the benchmark's sequential legs that is the call waiting for
it.  A span's *self time* is its duration minus the union of its
children's intervals, clipped to the span (children on other threads
may overlap each other or outlive it).  The root span covers the whole
traced leg; its self time is the unattributed remainder and is always
reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable


class Span:
    __slots__ = ("name", "start", "end", "parent", "idx")

    def __init__(self, name: str, start: float, parent: int | None, idx: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.idx = idx


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def rebind(owner: Any, attr: str, new: Any) -> list[tuple[Any, str, Any]]:
    """Set ``owner.attr`` to *new*, and rebind every ``repro`` module
    global that refers to the old value; returns the undo list."""
    original = getattr(owner, attr)
    setattr(owner, attr, new)
    patches = [(owner, attr, original)]
    if isinstance(owner, type):
        return patches
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is owner:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, new)
                patches.append((module, key, original))
    return patches


class Tracer:
    """Span list plus per-thread open-span stacks and named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._root_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:  # the root's thread may pop concurrently
                parent = self._root_stack[-1]
            except IndexError:
                parent = self._root
        with self._lock:
            span = Span(name, time.perf_counter() if start is None else start,
                        parent, len(self.spans))
            self.spans.append(span)
        stack.append(span.idx)
        return span

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] == span.idx:
            stack.pop()

    def root(self, name: str = "root") -> Span:
        """Open the root span; spans of threads with no open span hang here."""
        span = self.open(name)
        self._root = span.idx
        self._root_stack = self._stack()
        return span

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- installation ---------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Callable[[tuple, dict, Any], None] | None = None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *on_result(args, kwargs, result)*, when given, runs after the
        call (inside the span) to update counters.
        """
        func = getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        self._patches += rebind(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self time of every span, by index."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                # Clip to the parent: a span parented across threads
                # may outlive it.
                parent = self.spans[span.parent]
                lo, hi = max(span.start, parent.start), min(span.end, parent.end)
                if hi > lo:
                    children[span.parent].append((lo, hi))
        return {
            span.idx: (span.end - span.start) - union_length(children[span.idx])
            for span in self.spans
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        The root span's self time appears under its own name; callers
        report it as the unattributed remainder.
        """
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += selfs[span.idx]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]
