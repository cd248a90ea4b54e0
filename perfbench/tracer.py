"""Outside-in span tracer.

Wraps functions where callers look them up (class attributes and module
globals), records one span per call with its parent, the root span that
caused it, start and end in ``perf_counter_ns`` and a few counters, and keeps
every span in memory until the run ends. Nothing in the traced program
changes: a wrapper calls the original with the same arguments and returns
its result untouched.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs", "child_ns")

    def __init__(self, span_id: int, parent: "Span | None", name: str):
        self.id = span_id
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.name = name
        self.attrs: dict = {}
        self.child_ns = 0
        self.start = time.perf_counter_ns()
        self.end = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus the time its direct children cover (calls are
        sequential, so children never overlap)."""
        return self.ns - self.child_ns

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "root": self.root.id,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.ns

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def patch(self, owners, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` on every owner with one wrapper that records
        a span called ``name``. ``before(args)`` runs ahead of the call and
        its value reaches ``after(args, result, before_value)``, which returns
        counters for the span. Class-, static- and plain functions work."""
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        raw = owners[0].__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span.attrs.update(after(args, result, pre))
            return result

        replacement = kind(wrapper) if kind is not None else wrapper
        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
