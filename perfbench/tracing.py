"""Spans around the calls into each cpcodes layer, recorded from outside the package.

Wrappers are installed on every module attribute that holds a wrapped function,
which is where callers look it up (``cpcodes.cli.encode_cpc``,
``cpcodes.design.subcode_distances``, ...). A target that no longer exists is
reported as absent instead of failing, so the trace survives refactors.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory. A span opened on a thread with no open span of
    its own (a worker of a thread pool) takes as parent the innermost span open
    on the thread that created the tracer, which submitted the work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), self.run, 0.0)
        stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, probe=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if probe is not None:
                span.attrs.update(probe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on other threads can overlap each other; the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def tail_percentile(values, pct: float) -> float | None:
    """The ``pct`` percentile of ``values``, or None when fewer than ten samples
    lie beyond it, which is too few for that percentile to mean anything."""
    values = sorted(values)
    if len(values) * (100.0 - pct) / 100.0 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0]) if getattr(args[0], "ndim", 1) > 1 else 1}


def _lloyd(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "empty_cell_events": int(result.empty_cell_events),
        "converged": int(bool(result.converged)),
    }


def _samples(args, kwargs, result):
    return {"samples": int(kwargs["samples"] if "samples" in kwargs else args[1])}


def _reconstruction(args, kwargs, result):
    return {"w": result[1]}


# (defining module, function, span name, probe)
TARGETS = [
    ("cpcodes.codec", "load_code", "codec.load_code", None),
    ("cpcodes.codec", "save_code", "codec.save_code", None),
    ("cpcodes.codec", "encode_cpc", "codec.encode_cpc", _reconstruction),
    ("cpcodes.codec", "rank_codeword", "codec.rank_codeword", None),
    ("cpcodes.codec", "decode", "codec.decode", None),
    ("cpcodes.codec", "write_stream", "codec.write_stream", None),
    ("cpcodes.codec", "read_stream", "codec.read_stream", None),
    ("cpcodes.codec", "sort_by_variant", "codec.sort_by_variant", _rows),
    ("cpcodes.codec", "subcode_distances", "codec.subcode_distances", _rows),
    ("cpcodes.combinatorics", "rate_point_census", "combinatorics.rate_point_census", None),
    ("cpcodes.order_stats", "gaussian_order_stats", "order_stats.table", None),
    ("cpcodes.order_stats", "folded_order_stats", "order_stats.table", None),
    ("cpcodes.order_stats", "grouped_projection", "order_stats.grouped_projection", None),
    ("cpcodes.design", "design_common_composition", "design.design_common_composition", _lloyd),
    ("cpcodes.design", "lloyd_general", "design.lloyd_general", _lloyd),
    ("cpcodes.design", "distortion_decomposition", "design.distortion_decomposition", None),
    ("cpcodes.wsc", "gain_codebook", "wsc.gain_codebook", None),
    ("cpcodes.wsc", "allocate_compositions", "wsc.allocate_compositions", None),
    ("cpcodes.wsc", "design_fixed_rate", "wsc.design_fixed_rate", None),
    ("cpcodes.evaluation", "empirical_distortion", "evaluation.empirical_distortion", _samples),
    ("cpcodes.evaluation", "ecsq_curve", "evaluation.baselines", None),
    ("cpcodes.evaluation", "ecusq_curve", "evaluation.baselines", None),
    ("cpcodes.evaluation", "shannon_bound", "evaluation.baselines", None),
    ("cpcodes.streams", "substream", "streams.substream", None),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cpcodes" or name.startswith("cpcodes."))]


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every binding of each target in the loaded cpcodes modules.

    Returns ``(restore, absent)``: a callable that puts the originals back, and
    the ``module.function`` targets that no longer exist.
    """
    saved = []
    absent = []
    modules = _package_modules()
    for module_name, attr, span_name, probe in targets:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, span_name, probe)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore():
        for module, name, original in reversed(saved):
            setattr(module, name, original)

    return restore, absent


def clear_caches() -> None:
    """Empty the package's memo caches, so every pass starts as cold as a new process."""
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
