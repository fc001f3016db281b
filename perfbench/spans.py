"""In-memory span tracing for the benchmark's traced run.

A span records one call into a layer: its name, start and end (seconds on the
``perf_counter`` clock), the span that was open when it started (its parent),
the id of the benchmark operation it belongs to, optional work counts, and
the exception type when the call raised. Spans are appended to a list and
written out once, when the run ends.

Spans are recorded by wrapping functions in the module namespace where the
caller looks them up: the package binds names with ``from .x import name``,
so ``trainer.k_spectrum`` and ``spectra.k_spectrum`` are separate bindings
and only the one the caller reads sees the wrapper. A patch point that no
longer exists is recorded in ``Tracer.missing`` instead of raising, so a
renamed function never crashes a run and never reads as zero work.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Optional

# counts(args, kwargs, result) -> {counter name: number}
Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: int
    name: str
    start: float
    end: float = 0.0
    counts: Optional[dict] = None
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "run": self.run, "name": self.name,
            "start": self.start, "end": self.end, "counts": self.counts, "error": self.error,
        }


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    run: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    def _open(self, name: str) -> Span:
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id if self._stack else None,
            run=self.run,
            name=name,
            start=perf_counter(),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: Optional[dict] = None,
             counts: Optional[Counter] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    def wrap(self, fn: Callable, name: str, counts: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def patch(self, module_name: str, attr: str, name: str, counts: Optional[Counter] = None) -> bool:
        """Replace ``module.attr`` by a traced wrapper; False when it is gone."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return False
        setattr(module, attr, self.wrap(original, name, counts))
        self._patches.append((module, attr, original))
        return True

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


def self_times(spans: Iterable[Span]) -> dict:
    """Span id -> duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: Iterable[Span]) -> dict:
    """Span name -> NameStats summed over all spans of that name."""
    spans = list(spans)
    selfs = self_times(spans)
    stats = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.self_s += selfs[s.id]
        st.failed += s.error is not None
        for key, value in (s.counts or {}).items():
            st.counts[key] += value
    return stats


def count_with_parent(spans: Iterable[Span], name: str, parents: Iterable[str]) -> int:
    """Number of spans called ``name`` whose parent span is named in ``parents``."""
    spans = list(spans)
    names = {s.id: s.name for s in spans}
    parents = set(parents)
    return sum(1 for s in spans if s.name == name and names.get(s.parent) in parents)


def overhead_frac(traced_wall: float, untraced_wall: float) -> float:
    """Traced wall time over untraced wall time, minus one."""
    return traced_wall / untraced_wall - 1.0
