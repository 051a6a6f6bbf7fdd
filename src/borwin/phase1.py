"""Bounding phase: dichotomic enumeration of supported solutions.

The sink window plays the role of the structuring side constraint: its
lower bound ``beta`` (after orientation) is what the window-relaxed
optimum misses. The dichotomy walks the upper-right convex hull of the
(value, resource) path images until it holds two consecutive supported
points straddling ``beta``; the line through them yields the tightest
hull-based value bound and the aggregation weight ``delta`` that drives
the enumeration phase.

Instances whose relaxed optimum overshoots the sink's upper bound are
re-oriented first: every arc resource is negated and every window
``[lo, hi]`` becomes ``[-hi, -lo]``, which swaps excess for deficit
without touching values. All quantities stored on a :class:`Pair` are
in these oriented coordinates except the witness paths, which are
re-read on the original instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .graph import (
    Arc,
    Path,
    SinkUnreachable,
    TailMap,
    TimeoutExceeded,
    Window,
    WindowedDag,
    all_tails,
    path_metrics,
)
from .rational import PLUS_INF, floor_rat, is_integral

LID = "lid"  # relaxed optimum falls short of the sink lower bound
LIE = "lie"  # relaxed optimum exceeds the sink upper bound

ZERO = Fraction(0)


class NotAPair(Exception):
    """Operation needs a straddling-pair outcome."""


class GraphInvariantError(Exception):
    """An internal invariant failed: a defect in the solver or the
    generators, not in the input."""


@dataclass(frozen=True)
class SolvedAtSp:
    """The window-relaxed optimum already satisfies the sink window.

    ``tails`` is the ``delta = 0`` sweep of the instance that found it.
    """

    path: Path
    delta: Fraction = ZERO
    tails: Optional[TailMap] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Infeasible:
    """No path can reach the sink lower bound: the instance has no solution."""

    max_resource: Fraction


@dataclass(frozen=True)
class Pair:
    """Consecutive supported solutions straddling the (oriented) sink lower
    bound, with the bounds they induce.

    ``x_a`` is the value-side point (oriented resource below beta) and
    ``x_b`` the resource-side point (oriented resource at least beta);
    both are paths of the original instance. ``ub_mu`` is the common
    aggregated value of the pair and ``ub_v1 = ub_mu - delta * beta``
    bounds the value of every feasible path.

    ``work`` is the instance in the pair's coordinates (the oriented copy
    under LIE, the instance itself under LID) and ``tails`` its sweep at
    the final ``delta``; the enumeration phase reuses both.
    """

    x_a: Path
    x_b: Path
    delta: Fraction
    ub_mu: Fraction
    ub_v1: Fraction
    orientation: str
    beta: Fraction
    alpha: Optional[Fraction]
    iterations: int
    work: Optional[WindowedDag] = field(default=None, compare=False, repr=False)
    tails: Optional[TailMap] = field(default=None, compare=False, repr=False)
    sp_tails: Optional[TailMap] = field(default=None, compare=False, repr=False)


PhaseOneOutcome = Union[SolvedAtSp, Infeasible, Pair]


@dataclass(frozen=True)
class Phase1TraceEvent:
    iteration: int
    x_a: tuple[Fraction, Fraction]  # (value, oriented resource)
    x_b: tuple[Fraction, Fraction]
    x_c: tuple[Fraction, Fraction]
    delta: Fraction


def orient_dag(dag: WindowedDag) -> WindowedDag:
    """Negate every arc resource and flip every window; arc order, vertex
    ids and labels are preserved so paths can be mapped back by arc index.
    The copy's integer arc data is the original's with resources negated;
    its integer windows are built on first use, like any instance's."""
    arcs = [Arc(a.src, a.dst, a.value, -a.resource) for a in dag.arcs]
    windows = [
        Window(
            lo=None if w.hi is None else -w.hi,
            hi=None if w.lo is None else -w.lo,
        )
        for w in dag.windows
    ]
    oriented = WindowedDag(windows, arcs, dag.source, dag.sink, labels=dag.labels, topo_order=dag.topo_order)
    oriented._int_arcs = dag.int_arcs().negated()
    return oriented


def _pareto_eq(x: Path, y: Path) -> bool:
    return x.value == y.value and x.resource == y.resource


def run_phase1(
    dag: WindowedDag,
    trace: Optional[Callable[[Phase1TraceEvent], None]] = None,
    deadline: Optional[float] = None,
) -> PhaseOneOutcome:
    """Dichotomic search for the straddling supported pair.

    Starts from the value optimum and the resource optimum of the
    window-relaxed instance; each round aggregates with the slope of the
    current pair, re-optimizes, and replaces one endpoint until the new
    optimum is Pareto-equal (componentwise equal image) to an endpoint.
    ``deadline`` (a ``time.monotonic`` value) is checked before every
    sweep; past it, :class:`TimeoutExceeded` is raised.
    """

    def sweep(work: WindowedDag, delta) -> TailMap:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceeded("bounding phase hit its deadline")
        return all_tails(work, delta)

    sp_tails = sweep(dag, ZERO)
    if dag.source not in sp_tails:
        raise SinkUnreachable(f"vertex {dag.labels[dag.source]} cannot reach the sink")
    # later sweeps run on the same arcs, so the source reaches the sink there too
    sp_path = sp_tails.path(dag.source)
    sink_window = dag.windows[dag.sink]
    if sink_window.contains(sp_path.resource):
        return SolvedAtSp(path=sp_path, tails=sp_tails)

    if sink_window.hi is not None and sp_path.resource > sink_window.hi:
        orientation = LIE
        work = orient_dag(dag)
    else:
        orientation = LID
        work = dag

    beta = work.windows[work.sink].lo
    alpha = work.windows[work.sink].hi
    if beta is None:
        raise GraphInvariantError("orientation left the sink without a finite lower bound")

    x_a = path_metrics(work, sp_path.arc_ids)
    x_b = sweep(work, PLUS_INF).path(work.source)
    if x_b.resource < beta:
        return Infeasible(max_resource=x_b.resource)

    x_c: Optional[Path] = None
    tails: Optional[TailMap] = None
    delta = ZERO
    iterations = 0
    while x_c is None or (not _pareto_eq(x_c, x_a) and not _pareto_eq(x_c, x_b)):
        if x_c is not None:
            if x_c.resource >= beta:
                x_b = x_c
            else:
                x_a = x_c
        if x_b.resource <= x_a.resource:
            raise GraphInvariantError(
                "straddling pair lost its resource gap; endpoints are Pareto-comparable"
            )
        delta = (x_a.value - x_b.value) / (x_b.resource - x_a.resource)
        tails = sweep(work, delta)
        x_c = tails.path(work.source)
        iterations += 1
        if trace is not None:
            trace(
                Phase1TraceEvent(
                    iteration=iterations,
                    x_a=(x_a.value, x_a.resource),
                    x_b=(x_b.value, x_b.resource),
                    x_c=(x_c.value, x_c.resource),
                    delta=delta,
                )
            )

    ub_mu = x_a.value + delta * x_a.resource
    ub_v1 = ub_mu - delta * beta
    return Pair(
        x_a=_reread(dag, x_a),
        x_b=_reread(dag, x_b),
        delta=delta,
        ub_mu=ub_mu,
        ub_v1=ub_v1,
        orientation=orientation,
        beta=beta,
        alpha=alpha,
        iterations=iterations,
        work=work,
        tails=tails,
        sp_tails=sp_tails,
    )


def _reread(dag: WindowedDag, path: Path) -> Path:
    """Re-read an (possibly re-oriented) path on the original instance."""
    return path_metrics(dag, path.arc_ids, start=path.start)


def oriented_resource(outcome: Pair, path: Path) -> Fraction:
    """Resource of an original-coordinates path, in the pair's coordinates."""
    return -path.resource if outcome.orientation == LIE else path.resource


def integer_round_ub(outcome: PhaseOneOutcome, values_integral: bool) -> Fraction:
    """Round the value bound down when every arc value is an integer, in
    which case every path value is an integer too."""
    if not isinstance(outcome, Pair):
        raise NotAPair("integer rounding needs a straddling-pair outcome")
    if values_integral:
        return floor_rat(outcome.ub_v1)
    return outcome.ub_v1


def dag_values_integral(dag: WindowedDag) -> bool:
    return all(is_integral(a.value) for a in dag.arcs)


@dataclass(frozen=True)
class SearchSpace:
    """Region guaranteed to contain every optimal solution: the sink window
    on (oriented) resource, the value bound, and the aggregate bound."""

    beta: Fraction
    alpha: Optional[Fraction]
    ub_v1: Fraction
    ub_mu: Fraction
    delta: Fraction
    orientation: str

    def contains_values(self, value: Fraction, oriented_resource: Fraction) -> bool:
        if oriented_resource < self.beta:
            return False
        if self.alpha is not None and oriented_resource > self.alpha:
            return False
        if value > self.ub_v1:
            return False
        return value + self.delta * oriented_resource <= self.ub_mu

    def contains(self, path: Path) -> bool:
        r = -path.resource if self.orientation == LIE else path.resource
        return self.contains_values(path.value, r)


def search_space(outcome: PhaseOneOutcome) -> SearchSpace:
    if not isinstance(outcome, Pair):
        raise NotAPair("the search space is defined by a straddling-pair outcome")
    return SearchSpace(
        beta=outcome.beta,
        alpha=outcome.alpha,
        ub_v1=outcome.ub_v1,
        ub_mu=outcome.ub_mu,
        delta=outcome.delta,
        orientation=outcome.orientation,
    )


def lagrangian_theta(dag: WindowedDag, lam: Fraction, beta: Fraction) -> Fraction:
    """Dual bound for the lower-bounded sink constraint, in the coordinates
    of the given instance: best of value + lam * resource over all paths,
    minus lam * beta. Convex in lam; the dichotomy's delta minimizes it and
    theta(delta) equals the pair's value bound.
    """
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    tails = all_tails(dag, lam)
    info = tails.get(dag.source)
    if info is None:
        raise SinkUnreachable("source cannot reach the sink")
    return info.mu - lam * beta
