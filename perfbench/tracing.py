"""Per-layer spans recorded from outside the library.

A traced solve swaps the library's public entry points for timing
wrappers in every module namespace that binds them, runs, and puts the
originals back. Each wrapper records a span (name, start, end, parent,
instance); a layer's self time is its spans' duration minus the part
covered by their child spans. Value-bound calls are too many to keep as
spans, so the provider handed to ``run_phase2`` is proxied and its call
time is charged to the enclosing span as a child total. ``make_label``
is counted, not timed. A hook whose name no longer exists in the
library is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute, span name); one span name per layer boundary
SPAN_HOOKS = (
    ("graph", "all_tails", "graph.all_tails"),
    ("phase1", "all_tails", "graph.all_tails"),
    ("phase2", "all_tails", "graph.all_tails"),
    ("bounds", "all_tails", "graph.all_tails"),
    ("phase1", "orient_dag", "phase1.orient_dag"),
    ("solver", "orient_dag", "phase1.orient_dag"),
    ("solver", "run_phase1", "phase1.run_phase1"),
    ("solver", "run_phase2", "phase2.run_phase2"),
    ("huc", "build_graph", "huc.build_graph"),
    ("huc", "prune_unreachable", "graph.prune_unreachable"),
)
COUNT_HOOKS = (("phase2", "make_label", "phase2.labels_generated"),)

ROOT = "solve"

# self time of each span name, reported under the layer metric
SELF_METRIC = {
    ROOT: "solver.self_ms",
    "huc.build_graph": "huc.build_graph_ms",
    "graph.prune_unreachable": "graph.prune_ms",
    "graph.all_tails": "graph.sweep_ms",
    "phase1.run_phase1": "phase1.self_ms",
    "phase1.orient_dag": "phase1.orient_ms",
    "phase2.run_phase2": "phase2.self_ms",
}
BOUNDS_METRIC = "bounds.ms"
SELF_METRICS = tuple(SELF_METRIC.values()) + (BOUNDS_METRIC,)

PRUNE_RULES = {"bound": "phase2.pruned_bound", "ub": "phase2.pruned_ub", "dominance": "phase2.pruned_dom"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    instance: str = ""
    bound_s: float = 0.0  # value-bound calls made while this span was innermost
    bound_calls: int = 0


class _TimedProvider:
    """Proxy for a value-bound provider: every method call is timed as a
    bound call, whatever the provider class and method are named."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                span = tracer.spans[tracer.stack[-1]]
                span.bound_s += time.perf_counter() - t0
                span.bound_calls += 1

        return timed


@dataclass
class Tracer:
    """Spans and counters for traced solves; one tracer per run."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    _instance: str = ""

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, instance=self._instance))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "graph.all_tails" and args:
                tracer._bump("graph.sweep_arcs", len(args[0].arcs))
            if name == "phase2.run_phase2":
                args, kwargs = tracer._proxy_provider(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "huc.build_graph":
                tracer._bump("huc.graph_vertices", result[0].n)
                tracer._bump("huc.graph_arcs", len(result[0].arcs))
            return result

        return wrapper

    def _wrap_count(self, fn, key: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._bump(key)
            return fn(*args, **kwargs)

        return wrapper

    def _proxy_provider(self, args, kwargs):
        if len(args) >= 3 and args[2] is not None:
            args = args[:2] + (_TimedProvider(args[2], self),) + args[3:]
        elif kwargs.get("ub") is not None:
            kwargs = dict(kwargs, ub=_TimedProvider(kwargs["ub"], self))
        return args, kwargs

    def on_phase1(self, event) -> None:
        self._bump("phase1.iters")

    def on_phase2(self, event) -> None:
        kind = getattr(event, "kind", None)
        if kind == "pop":
            self._bump("phase2.pops")
            if getattr(event, "feasible", None):
                self._bump("phase2.feasible_pops")
        elif kind == "prune":
            rule = PRUNE_RULES.get(getattr(event, "rule", None))
            if rule is not None:
                self._bump(rule)

    # -- traced call ------------------------------------------------------

    def call(self, instance: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span with every hook installed. The
        counters restart at each call."""
        self.counts = {}
        swapped = []
        for module_name, attr, name in SPAN_HOOKS + COUNT_HOOKS:
            try:
                module = importlib.import_module(f"borwin.{module_name}")
            except ModuleNotFoundError:
                module = None
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_count if (module_name, attr, name) in COUNT_HOOKS else self._wrap_span
            setattr(module, attr, wrap(orig, name))
            swapped.append((module, attr, orig))
        self._instance = instance
        root = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(root)
            for module, attr, orig in swapped:
                setattr(module, attr, orig)


def self_times(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer self time in ms over ``spans[first:]``: span duration
    minus its children's durations and its own value-bound calls."""
    child_s = [0.0] * len(spans)
    for span in spans[first:]:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    out = dict.fromkeys(SELF_METRICS, 0.0)
    for k in range(first, len(spans)):
        span = spans[k]
        own = span.end - span.start - child_s[k] - span.bound_s
        out[SELF_METRIC[span.name]] += own * 1000.0
        out[BOUNDS_METRIC] += span.bound_s * 1000.0
    return out


def span_counts(spans: list[Span], first: int = 0) -> dict[str, int]:
    """Span-derived counters over ``spans[first:]``."""
    out = {"graph.sweeps": 0, "phase1.orient_calls": 0, "bounds.calls": 0}
    for span in spans[first:]:
        if span.name == "graph.all_tails":
            out["graph.sweeps"] += 1
        elif span.name == "phase1.orient_dag":
            out["phase1.orient_calls"] += 1
        out["bounds.calls"] += span.bound_calls
    return out
