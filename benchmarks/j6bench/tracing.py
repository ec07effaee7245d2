"""Spans and counters recorded from outside the program.

The traced run replaces module attributes of ``j6opt`` (the names a
calling module imported, or a module's own global where it calls
itself) with thin wrappers.  A ``span`` wrapper records name, start,
end and parent on a thread-local stack; a ``count`` wrapper only counts
calls, for hot functions whose time belongs to their caller.
:meth:`Tracer.patch` restores every attribute it replaced, also when
the traced code raises.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["Span", "Hook", "Tracer", "self_times", "union_length"]


class Span:
    """One timed call.  ``parent`` is the span that caused it: the top of
    the calling thread's stack, or, for a thread with an empty stack (a
    pool worker), the top of the owner thread's stack."""

    __slots__ = ("label", "start", "end", "parent", "attrs")

    def __init__(self, label: str, start: float, parent: "Span | None" = None):
        self.label = label
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Where to wrap: ``module.attr`` is recorded under ``label``.

    ``on_call(span, tracer, args, kwargs, result)`` runs after a wrapped
    call returns, outside its span, to annotate the span or bump a
    counter.  A ``count`` hook with ``within`` counts only calls made
    while a span with that label is open on the calling thread, so that
    calls from set-up or from the benchmark's own checks stay out.
    """

    module: str
    attr: str
    label: str
    kind: str = "span"  # "span" or "count"
    on_call: Callable | None = None
    within: str | None = None


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id``): its duration minus the part
    of its interval that its child spans cover.  Children may overlap
    when they ran in pool threads, so coverage is an interval union."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = s.parent
        if p is not None:
            children[id(p)].append((max(s.start, p.start), min(s.end, p.end)))
    return {id(s): s.duration - union_length(children.get(id(s), [])) for s in spans}


class Tracer:
    """Collects spans and counters; the thread that creates it owns it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, label: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else next(reversed(self._owner), None)
        s = Span(label, time.perf_counter(), parent)
        stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(s)

    @contextmanager
    def span(self, label: str) -> Iterator[Span]:
        s = self._open(label)
        try:
            yield s
        finally:
            self._close(s)

    def inside(self, label: str) -> bool:
        """Whether a span with ``label`` is open on the calling thread."""
        return any(s.label == label for s in self._stack())

    def count(self, label: str, n: float = 1) -> None:
        with self._lock:  # pool threads count too
            self.counts[label] += n

    def _wrapper(self, fn: Callable, hook: Hook) -> Callable:
        if hook.kind == "count":
            label, within = hook.label, hook.within

            def counted(*args, **kwargs):
                if within is None or self.inside(within):
                    self.count(label)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            s = self._open(hook.label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook.on_call is not None:
                hook.on_call(s, self, args, kwargs, result)
            return result

        return spanned

    @contextmanager
    def patch(self, hooks: list[Hook]) -> Iterator["Tracer"]:
        """Wrap every hooked attribute that exists, record the ones that
        do not in ``absent``, and restore every wrapped one on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for hook in hooks:
                module = importlib.import_module(hook.module)
                if not hasattr(module, hook.attr):
                    self.absent.append(f"{hook.module}.{hook.attr}")
                    continue
                original = getattr(module, hook.attr)
                saved.append((module, hook.attr, original))
                setattr(module, hook.attr, self._wrapper(original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per label: number of spans, and total and self seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.label, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += s.duration
            row["self"] += selfs[id(s)]
        return out
