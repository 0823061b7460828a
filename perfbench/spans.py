"""Span tracer that wraps the program's public functions from outside.

Installing a Tracer replaces the named module functions and methods
with wrappers that record one span per call: name, start, end, parent
span and thread. Spans stay in memory until the run writes them out.
Nothing in the program is edited; uninstalling restores every original.

Self time is a span's duration minus the part of it that its children
in the same thread cover. A span opened on a worker thread with no open
span of its own takes the innermost span open on the thread that
installed the tracer as its parent, so group runs of a thread pool hang
under the superposed run that started them.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around (owner, attribute) callables.

    targets maps a span name to (owner, attribute); info, when given
    for a name, maps the call's result to a dict stored on the span.
    """

    def __init__(self, targets: dict, info: dict | None = None):
        self.targets = targets
        self.info = info or {}
        self.spans: list[Span] = []
        # Most recent return value per span name.
        self.last: dict[str, object] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        info = self.info.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else None
            span = Span(name, time.perf_counter(), parent=parent, thread=tid)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            tracer.last[name] = result
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (owner, attr) in self.targets.items():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans = []
        self.last = {}
        self._stacks = {}

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like self.spans."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].thread == s.thread:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out

    def ancestors(self, idx: int):
        """Indices of the span's ancestors, innermost first."""
        p = self.spans[idx].parent
        while p is not None:
            yield p
            p = self.spans[p].parent

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "thread": s.thread,
                **({"info": s.info} if s.info else {}),
            }
            for s in self.spans
        ]
