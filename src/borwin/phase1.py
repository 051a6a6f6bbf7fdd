"""Bounding phase: dichotomic enumeration of supported solutions.

The sink window plays the role of the structuring side constraint: its
lower bound ``beta`` (after orientation) is what the window-relaxed
optimum misses. The dichotomy walks the upper-right convex hull of the
(value, resource) path images until it holds two consecutive supported
points straddling ``beta``; the line through them yields the tightest
hull-based value bound and the aggregation weight ``delta`` that drives
the enumeration phase.

When the relaxed optimum overshoots the sink's upper bound, the phase
works on the negated resource: its sweeps run with ``sign = -1`` and the
sink window ``[lo, hi]`` reads as ``[-hi, -lo]``, which swaps excess for
deficit without touching values. The orientation is this sign alone
(:func:`orientation_sign`); the instance is never copied. ``beta``,
``alpha``, the bounds and the trace images are in oriented coordinates;
every path is a path of the instance itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .graph import (
    Arc,
    GraphError,
    Path,
    SinkUnreachable,
    TailMap,
    WindowedDag,
    all_tails,
    check_deadline,
)
from .rational import PLUS_INF, Weight, floor_rat

LID = "lid"  # relaxed optimum falls short of the sink lower bound
LIE = "lie"  # relaxed optimum exceeds the sink upper bound

ZERO = Fraction(0)


class NotAPair(Exception):
    """Operation needs a straddling-pair outcome."""


class GraphInvariantError(GraphError):
    """An internal invariant failed: a defect in the solver or the
    generators, not in the input."""


@dataclass(frozen=True)
class SolvedAtSp:
    """The window-relaxed optimum already satisfies the sink window.

    ``tails`` is the ``delta = 0`` sweep of the instance that found it;
    :attr:`path`, its tail from the source, is built on first read. When
    a window inside the graph still cuts that path, the enumeration phase
    starts from this outcome as from a :class:`Pair`: it reads ``delta``,
    ``tails``, ``sp_tails`` (``tails`` itself) and ``iterations`` (0).
    """

    tails: TailMap = field(compare=False, repr=False)
    delta: Fraction = ZERO
    iterations = 0
    sp_tails = property(lambda self: self.tails)
    path = cached_property(lambda self: self.tails.path(self.tails.dag.source))


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
    both are paths of the instance, the source tails of the sweeps
    ``a_tails`` and ``b_tails``, each built on first read. ``ub_mu`` is
    the common aggregated value of the pair and ``ub_v1 = ub_mu - delta
    * beta`` bounds the value of every feasible path.

    ``tails`` is the instance's sweep at the final ``delta`` in the
    pair's orientation (``tails.sign``) and ``sp_tails`` its unoriented
    ``delta = 0`` sweep; the enumeration phase reuses both.

    The pair is also the search space: the region that holds every
    optimal path, with oriented resource in ``[beta, alpha]``, value at
    most ``ub_v1`` and aggregated value at most ``ub_mu``
    (:meth:`contains`).
    """

    a_tails: TailMap = field(compare=False, repr=False)
    b_tails: TailMap = field(compare=False, repr=False)
    delta: Fraction
    ub_mu: Fraction
    ub_v1: Fraction
    orientation: str
    beta: Fraction
    alpha: Optional[Fraction]
    iterations: int
    tails: TailMap = field(compare=False, repr=False)
    sp_tails: TailMap = field(compare=False, repr=False)

    x_a = cached_property(lambda self: self.a_tails.path(self.a_tails.dag.source))
    x_b = cached_property(lambda self: self.b_tails.path(self.b_tails.dag.source))

    def contains_values(self, value: Fraction, oriented_resource: Fraction) -> bool:
        if oriented_resource < self.beta:
            return False
        if self.alpha is not None and oriented_resource > self.alpha:
            return False
        if value > self.ub_v1:
            return False
        return value + self.delta * oriented_resource <= self.ub_mu

    def contains(self, path: Path) -> bool:
        return self.contains_values(path.value, oriented_resource(self, path))


PhaseOneOutcome = Union[SolvedAtSp, Infeasible, Pair]


@dataclass(frozen=True)
class Phase1TraceEvent:
    iteration: int
    x_a: tuple[Fraction, Fraction]  # (value, oriented resource)
    x_b: tuple[Fraction, Fraction]
    x_c: tuple[Fraction, Fraction]
    delta: Fraction


def orientation_sign(orientation: str) -> int:
    """The factor taking an instance resource to the oriented one."""
    return -1 if orientation == LIE else 1


def orient_dag(dag: WindowedDag) -> WindowedDag:
    """The instance in LIE coordinates as an explicit copy: every arc
    resource negated and every window flipped to ``[-hi, -lo]``; arc
    order, vertex ids and labels are kept, so paths map across by arc
    index. The solver never builds it, since it sweeps with ``sign = -1``
    instead; the copy is a reference for checking oriented sweeps and
    for reading a LIE pair's dual bound with :func:`lagrangian_theta`."""
    arcs = [Arc(a.src, a.dst, a.value, -a.resource) for a in dag.arcs]
    windows = [w.oriented(-1) for w in dag.windows]
    return WindowedDag(windows, arcs, dag.source, dag.sink, labels=dag.labels, topo_order=dag.topo_order)


class _Point(NamedTuple):
    """A supported point: the image (value, oriented resource) of the
    source tail of ``tails``."""

    value: Fraction
    resource: Fraction
    tails: TailMap


def _pareto_eq(x: _Point, y: _Point) -> bool:
    return x.value == y.value and x.resource == y.resource


def _sweep(dag: WindowedDag, delta: Weight, sign: int, deadline: Optional[float]) -> TailMap:
    check_deadline(deadline, "bounding phase")
    return all_tails(dag, delta, sign)


def relaxed_optimum(dag: WindowedDag, deadline: Optional[float] = None) -> TailMap:
    """The bounding phase's first sweep: the window-relaxed value optimum
    of ``dag`` at ``delta = 0``. :func:`run_phase1` starts from it, and
    ``solver.solve_awclpp`` reads it before its presolve. Raises
    :class:`SinkUnreachable` when the source cannot reach the sink, and
    :class:`TimeoutExceeded` past ``deadline``."""
    tails = _sweep(dag, ZERO, 1, deadline)
    if dag.source not in tails:
        raise SinkUnreachable(f"vertex {dag.labels[dag.source]} cannot reach the sink")
    return tails


def run_phase1(
    dag: WindowedDag,
    trace: Optional[Callable[[Phase1TraceEvent], None]] = None,
    deadline: Optional[float] = None,
) -> PhaseOneOutcome:
    """Dichotomic search for the straddling supported pair.

    Starts from the value optimum (its own :func:`relaxed_optimum`
    sweep) and the resource optimum of the window-relaxed instance; each
    round aggregates with the slope of the current pair, re-optimizes,
    and replaces one endpoint until the new optimum is Pareto-equal
    (componentwise equal image) to an endpoint. Rounds compare the
    sweeps' source images; the outcome keeps the sweeps of its points and
    builds their paths on first read. ``deadline`` (a ``time.monotonic``
    value) is checked before every sweep; past it,
    :class:`TimeoutExceeded` is raised.
    """

    def point(tails: TailMap) -> _Point:
        arcs = dag.int_arcs()
        value = Fraction(tails.val[dag.source], arcs.dv)
        resource = Fraction(tails.sign * tails.res[dag.source], arcs.dr)
        return _Point(value, resource, tails)

    sp_tails = relaxed_optimum(dag, deadline)
    # later sweeps run on the same arcs, so the source reaches the sink there too
    sp = point(sp_tails)
    sink_window = dag.window(dag.sink)
    if sink_window.contains(sp.resource):
        return SolvedAtSp(tails=sp_tails)

    orientation = LIE if sink_window.hi is not None and sp.resource > sink_window.hi else LID
    sign = orientation_sign(orientation)
    oriented_sink = sink_window.oriented(sign)
    beta, alpha = oriented_sink.lo, oriented_sink.hi
    if beta is None:
        raise GraphInvariantError("orientation left the sink without a finite lower bound")

    x_a = _Point(sp.value, sign * sp.resource, sp_tails)
    x_b = point(_sweep(dag, PLUS_INF, sign, deadline))
    if x_b.resource < beta:
        return Infeasible(max_resource=x_b.resource)

    x_c: Optional[_Point] = None
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
        x_c = point(_sweep(dag, delta, sign, deadline))
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
        a_tails=x_a.tails,
        b_tails=x_b.tails,
        delta=delta,
        ub_mu=ub_mu,
        ub_v1=ub_v1,
        orientation=orientation,
        beta=beta,
        alpha=alpha,
        iterations=iterations,
        tails=x_c.tails,
        sp_tails=sp_tails,
    )


def oriented_resource(outcome: Pair, path: Path) -> Fraction:
    """Resource of an instance path, in the pair's coordinates."""
    return orientation_sign(outcome.orientation) * path.resource


def integer_round_ub(outcome: PhaseOneOutcome, values_integral: bool) -> Fraction:
    """Round the value bound down when every arc value is an integer, in
    which case every path value is an integer too."""
    if not isinstance(outcome, Pair):
        raise NotAPair("integer rounding needs a straddling-pair outcome")
    if values_integral:
        return floor_rat(outcome.ub_v1)
    return outcome.ub_v1


def search_space(outcome: PhaseOneOutcome) -> Pair:
    """The region that holds every optimal path: the pair itself."""
    if not isinstance(outcome, Pair):
        raise NotAPair("the search space is defined by a straddling-pair outcome")
    return outcome


def lagrangian_theta(dag: WindowedDag, lam: Fraction, beta: Fraction) -> Fraction:
    """Dual bound for the lower-bounded sink constraint, in the coordinates
    of the given instance: best of value + lam * resource over all paths,
    minus lam * beta. Convex in lam; the dichotomy's delta minimizes it and
    theta(delta) equals the pair's value bound.
    """
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    tails = all_tails(dag, lam)
    if dag.source not in tails:
        raise SinkUnreachable("source cannot reach the sink")
    return Fraction(tails.mu[dag.source], tails.scale) - lam * beta
