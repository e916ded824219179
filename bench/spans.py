"""In-memory spans recorded around calls into the program under test.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the workload phase it ran in. Spans stay in memory; the
benchmark summarises them when the run ends. Tracing patches attributes
that the calling modules look up at call time, so the program itself is
not edited and the timed (untraced) runs execute the original functions.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, self.phase, self.clock(),
                 attrs=dict(attrs))
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, fn, name: str, describe=None):
        """`fn` inside a span; `describe(args, kwargs, result)` adds
        attributes after the span has closed, so it is not timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if describe is not None:
                s.attrs.update(describe(args, kwargs, result))
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each (owner, attribute, span name, describe) target by a
    traced wrapper for the duration of the block. Classmethods are wrapped
    around their underlying function."""
    saved = []
    try:
        for owner, attr, name, describe in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                inner = tracer.wrap(original.__func__, name, describe)
                setattr(owner, attr, classmethod(inner))
            else:
                setattr(owner, attr, tracer.wrap(original, name, describe))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the covered time.
    """
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}
