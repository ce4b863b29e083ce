"""Spans around calls into each cdtleak module, for the traced run.

Wrappers are installed on the names the callers look up. The CLI calls
most layers through the module (``traceio.read_trace_set``), but some are
bound by ``from .x import ...`` into the caller's namespace: the sampler
is called as ``leakage.generate_polynomials`` and
``leakage.sample_coefficient``, and the overlap model as
``recover.gaussian_overlap``. A name that no longer exists is reported as
absent and its layer simply records no spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    count: int = 0


class Tracer:
    """In-memory spans; nesting follows the call stack of one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def finish(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans finished out of order")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: spans, summed count, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, so nested layers are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for s, inside in zip(spans, child_time):
        t = totals[s.layer]
        t["spans"] += 1
        t["count"] += s.count
        t["total_s"] += s.end - s.start
        t["self_s"] += s.end - s.start - inside
    return dict(totals)


def _polys_coefficients(args, kwargs, result) -> int:
    return sum(len(p) for p in result)


def _one(args, kwargs, result) -> int:
    return 1


def _samples(args, kwargs, result) -> int:
    return int(result[0].samples.size)


def _size_of(position: int, keyword: str):
    def count(args, kwargs, result) -> int:
        path = args[position] if len(args) > position else kwargs[keyword]
        return os.path.getsize(path)
    return count


def _cells(args, kwargs, result) -> int:
    traces = args[0] if args else kwargs["traces"]
    return int(traces.shape[0]) * int(traces.shape[1])


def _sites(args, kwargs, result) -> int:
    return int(result.inner_sites_total + result.neg_sites_total)


def _zero(args, kwargs, result) -> int:
    return 0


# (layer, module, attribute, work counter)
TARGETS = (
    ("sampler", "cdtleak.leakage", "generate_polynomials", _polys_coefficients),
    ("sampler", "cdtleak.leakage", "sample_coefficient", _one),
    ("leakage", "cdtleak.leakage", "synthesize_campaign", _samples),
    ("leakage", "cdtleak.leakage", "synthesize_profiling_set", _samples),
    ("traceio.write", "cdtleak.traceio", "write_trace_set", _size_of(1, "path")),
    ("traceio.write", "cdtleak.traceio", "write_label_set", _size_of(1, "path")),
    ("traceio.read", "cdtleak.traceio", "read_trace_set", _size_of(0, "path")),
    ("traceio.read", "cdtleak.traceio", "read_label_set", _size_of(0, "path")),
    ("cpa", "cdtleak.cpa", "correlation_trace", _cells),
    ("cpa", "cdtleak.cpa", "find_poi", _zero),
    ("template.fit", "cdtleak.template", "build_template", _zero),
    ("template.io", "cdtleak.template", "save_template", _zero),
    ("template.io", "cdtleak.template", "load_template", _zero),
    ("template.overlap", "cdtleak.recover", "gaussian_overlap", _zero),
    ("recover", "cdtleak.recover", "recover_key", _sites),
    ("recover", "cdtleak.recover", "save_report", _zero),
)


def _wrap(tracer: Tracer, layer: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        tracer.spans[index].count = counter(args, kwargs, result)
        return result
    return traced


class Installed:
    """Wrappers installed on every target that exists; undo() restores them."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for layer, module_name, attr, counter in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, layer, fn, counter))

    def undo(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
