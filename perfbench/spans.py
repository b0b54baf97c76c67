"""Spans recorded around the benchmark's own calls into meissner.

A traced pass opens one root span for the workload; every call the jobs
make into the package is a child span tagged with the job it belongs
to.  Spans stay in memory and are written out once the run ends.  The
tracer never reaches inside the package: spans there belong to the
program itself, not to its benchmark.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; calls straight through when not."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.job = ""
        self.spans: list[Span] = []
        self._root: int | None = None

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn(*args, **kwargs); when tracing, as a span named `name`.

        `counts` maps the result to the work done (samples, triangles,
        bytes, ...); it is only evaluated when tracing.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(name, self.job, self._root, time.perf_counter())
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
        if counts is not None:
            span.counts.update(counts(result))
        return result

    @contextmanager
    def root(self, name: str, job: str):
        """A top-level span that the calls made inside it hang from."""
        if not self.enabled:
            yield
            return
        span = Span(name, job, None, time.perf_counter())
        self.spans.append(span)
        self._root = len(self.spans) - 1
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._root = None

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def roots(spans: list[Span], name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent is None and s.name == name]


def children(spans: list[Span], root: int) -> list[Span]:
    return [s for s in spans if s.parent == root]


def self_seconds(spans: list[Span], root: int) -> float:
    """Root duration minus the time its (sequential) children cover."""
    return spans[root].seconds - sum(s.seconds for s in children(spans, root))


def nesting_problems(spans: list[Span]) -> list[str]:
    """Every child lies inside its parent and siblings do not overlap."""
    problems = []
    last_end: dict[int | None, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.parent >= i or p.parent is not None:
            problems.append(f"span {i} {s.name} hangs from span {s.parent}, which is not an earlier root")
        elif not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {i} {s.name} leaves its parent {p.name}")
        if s.start < last_end.get(s.parent, -1.0):
            problems.append(f"span {i} {s.name} overlaps its previous sibling")
        last_end[s.parent] = s.end
    return problems


@dataclass
class CallStats:
    """Totals over the spans of one traced function."""

    spans: int = 0
    busy: float = 0.0
    counts: dict[str, list] = field(default_factory=dict)

    @property
    def calls(self) -> int:
        # a span around a loop of calls states how many it covers
        return sum(self.counts.get("calls", [])) or self.spans

    def total(self, key: str) -> float:
        return sum(self.counts.get(key, []))


def call_stats(spans: list[Span], under: list[int]) -> dict[str, CallStats]:
    """Per-name totals over the children of the given roots."""
    out: dict[str, CallStats] = {}
    wanted = set(under)
    for s in spans:
        if s.parent not in wanted:
            continue
        st = out.setdefault(s.name, CallStats())
        st.spans += 1
        st.busy += s.seconds
        for key, value in s.counts.items():
            st.counts.setdefault(key, []).append(value)
    return out
