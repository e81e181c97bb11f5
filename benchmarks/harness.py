"""Spans, operation counts and correctness bookkeeping for one benchmark run.

A :class:`Tracer` records spans around the benchmark's own calls into the
package's public functions.  Spans stay in memory; run.py writes them
once, at the end of a traced run.  With tracing off, ``span`` hands back one
shared no-op object, so untraced rounds pay for a method call and no more.

A :class:`Checker` counts the operations a round attempted, the ones that
failed (raised, or missed the tolerance the program itself states), and every
output that disagrees with the benchmark's independent computation.
"""
from __future__ import annotations

import statistics
import time
import traceback


class _NullSpan:
    @property
    def counts(self) -> dict:
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Span:
    __slots__ = ("tracer", "name", "label", "start", "end", "parent", "counts", "id")

    def __init__(self, tracer, name, label):
        self.tracer = tracer
        self.name = name
        self.label = label
        self.counts = {}

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr._stack[-1].id if tr._stack else None
        tr.spans.append(self)
        tr._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "label": self.label,
                "start": self.start, "end": self.end, "parent": self.parent,
                "counts": self.counts}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, label: str | None = None):
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, label)

    def find(self, name: str, label: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (label is None or s.label == label)]

    def total(self, name: str, label: str | None = None) -> float:
        return sum(s.seconds for s in self.find(name, label))


class Checker:
    """Operations attempted and failed, plus wrong outputs, for one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """One operation: the result, or None when the program raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a library error is a failed operation, not a crash
            self.fail(f"{name} raised:\n{traceback.format_exc()}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, ok, message: str) -> bool:
        if not ok:
            self.wrong.append(message)
        return bool(ok)

    def close(self, name: str, got: float, want: float, rel: float) -> bool:
        """|got - want| <= rel |want|, reported with both values."""
        got, want = float(got), float(want)
        err = abs(got - want)
        return self.check(err <= rel * abs(want),
                          f"{name}: got {got!r}, want {want!r} (rel tol {rel:g})")


def median(values) -> float:
    return float(statistics.median(values))

