"""Enumeration phase: best-first label extension over hybrid paths.

A label is a window-feasible prefix to an anchor vertex glued to the
precomputed window-relaxed best tail from that anchor, under the
aggregation weight delta delivered by the bounding phase. The glued
aggregate over-estimates every feasible completion of the prefix, so
popping labels in decreasing aggregate order makes the first bounds
usable immediately:

* bound rule: once an incumbent with value V exists, any label whose
  aggregate is at most V + delta * beta cannot beat it;
* complementary rule: a pluggable admissible value bound on the prefix
  prunes against the incumbent value directly;
* dominance: among enumerated prefixes reaching the same vertex with the
  exact same resource, only the best value needs to stay extendable.

A candidate child is judged once, on its integers (vertex, resource,
value and aggregate): dominance first, then the first two rules against
the incumbent of that moment. A child that passes waits on the heap as
a tuple of integers and its parent label, and becomes a label only when
it reaches the top (partial expansion), so only pops make labels. A new
incumbent cuts the waiting children on or below its bound floor; the
value bound is asked again about a child made before it when that child
reaches the top. A pop that keeps the incumbent cuts nothing: every
waiting child passed floors at least as strong as the popped path's own.

Extensions are generalized: from a popped label, any prefix obtained by
adopting a window-feasible slice of its tail and then deviating by one
arc becomes a new child. Extensions run on every pop, feasible or not:
a feasible pop's tail maximizes the aggregate, not the value, so a
better-value completion through the same anchor may still be pending.

Labels hold no paths. A label keeps its aggregate, anchor and prefix
totals, and how its prefix was made: a parent label, how many arcs of
the parent's tail it adopted, and the arc it branched on. Prefix arcs
are rebuilt from that chain only for the returned incumbent and for
trace events. Each pop walks its tail once; the walk gives both the
feasibility verdict and the window-feasible slice of the tail that the
extensions branch from.

The loop runs on exact integers: the instance's scaled arc data and
windows and the sweep's own arrays and weight factors
(:class:`~borwin.graph.TailMap`), whose resource weight already carries
the orientation. Every aggregate is the exact Fraction aggregate times
the sweep's positive scale, so pops, prunes and ties are those of the
rational arithmetic. The value bound takes and returns integers on the
instance's scales too, so Fractions appear only where numbers leave the
loop: trace events and the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import floor
from operator import itemgetter
from typing import Callable, Optional, Protocol, Sequence

from .graph import (
    GraphError,
    Path,
    TailMap,
    WindowViolation,
    WindowedDag,
    all_tails,
    check_deadline,
    path_metrics,
)

ZERO = Fraction(0)


class ValueBound(Protocol):
    """Admissible value bound on completions of a prefix, in integers.

    ``bound(vertex, prefix_resource, prefix_value, dr, dv)`` is a cap for
    a prefix reaching ``vertex`` with totals ``prefix_resource / dr`` and
    ``prefix_value / dv`` on the :class:`~borwin.graph.IntArcs` scales:
    every window-feasible extension has value at most ``cap / dv``.
    ``None`` means no completion exists at all.
    """

    def bound(self, vertex: int, prefix_resource: int, prefix_value: int, dr: int, dv: int) -> Optional[int]: ...


class Label:
    """Hybrid path: a window-feasible prefix to ``anchor`` glued to a tail.

    Numbers are scaled integers: ``val`` and ``res`` are the prefix totals
    in the instance's value and resource scales (``IntArcs.dv``/``dr``),
    ``mu`` the hybrid's aggregate in the sweep's scale. Every label of a
    run takes its tail from the same sweep, so the label does not store
    it: the prefix readers take the sweep's next-arc array, whose entry
    ``next_arc[u]`` is the arc a tail takes out of vertex ``u``. The
    prefix is ``parent``'s prefix, then the first ``cut`` arcs of
    ``parent``'s tail, then arc ``arc``; the root has no parent.
    """

    __slots__ = ("mu", "anchor", "val", "res", "parent", "cut", "arc")

    def __init__(
        self,
        mu: int,
        anchor: int,
        val: int,
        res: int,
        parent: Optional["Label"],
        cut: int,
        arc: Optional[int],
    ):
        self.mu = mu
        self.anchor = anchor
        self.val = val
        self.res = res
        self.parent = parent
        self.cut = cut
        self.arc = arc

    def prefix_arc_ids(self, dag: WindowedDag, next_arc: Sequence[Optional[int]]) -> list[int]:
        dst = dag.int_arcs().dst
        chain = []
        label = self
        while label.parent is not None:
            chain.append(label)
            label = label.parent
        ids: list[int] = []
        for label in reversed(chain):
            u = label.parent.anchor
            for _ in range(label.cut):
                aid = next_arc[u]
                ids.append(aid)
                u = dst[aid]
            ids.append(label.arc)
        return ids

    def prefix_vertices(self, dag: WindowedDag, next_arc: Sequence[Optional[int]]) -> tuple[int, ...]:
        dst = dag.int_arcs().dst
        return (dag.source, *[dst[aid] for aid in self.prefix_arc_ids(dag, next_arc)])


@dataclass
class SolveStats:
    phase1_iterations: int = 0
    phase2_iterations: int = 0  # label pops
    labels_created: int = 0
    labels_pruned_bound: int = 0
    labels_pruned_dominance: int = 0
    labels_pruned_ub: int = 0
    arcs_cut: int = 0  # arcs the presolve removed; all of them when it proved infeasibility


class NoFeasiblePath(GraphError):
    """The waiting labels ran out without any window-feasible path.

    ``stats`` holds the work the enumeration did before it gave up.
    """

    def __init__(self, message: str, stats: Optional[SolveStats] = None):
        super().__init__(message)
        self.stats = stats if stats is not None else SolveStats()


@dataclass
class SolveResult:
    best: Path
    value: Fraction
    stats: SolveStats


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "pop" | "prune"
    mu: Fraction
    anchor: int
    feasible: Optional[bool] = None  # pops only
    action: Optional[str] = None  # pops: "incumbent" | "extended"
    rule: Optional[str] = None  # prunes: "bound" | "ub" | "dominance"
    prefix: tuple[int, ...] = ()


Trace = Callable[[TraceEvent], None]


def make_label(
    mu: int,
    anchor: int,
    val: int,
    res: int,
    parent: Optional[Label],
    cut: int,
    arc: Optional[int],
) -> Label:
    """A new label: the root, or an accepted child of ``parent`` that has
    reached the top of the heap. Every label is made here once, when it
    pops, so the calls equal ``SolveStats.phase2_iterations``."""
    return Label(mu, anchor, val, res, parent, cut, arc)


def _walk(u: int, r: int, next_arc, lo, hi, dst, res, sink: int):
    """One pass along the tail from ``u`` (``next_arc`` from it),
    continuing the cumulative resource from the prefix total ``r``.
    Returns the first window violation as ``(vertex, side)`` or None, and
    the arcs of the tail adopted before it (window-feasible at their
    heads)."""
    if r < lo[u]:
        return (u, "lo"), []
    if r > hi[u]:
        return (u, "hi"), []
    adopted = []
    while u != sink:
        aid = next_arc[u]
        r += res[aid]
        u = dst[aid]
        if r < lo[u]:
            return (u, "lo"), adopted
        if r > hi[u]:
            return (u, "hi"), adopted
        adopted.append(aid)
    return None, adopted


def feasible_hybrid(
    dag: WindowedDag, label: Label, next_arc: Sequence[Optional[int]]
) -> Optional[WindowViolation]:
    """Window check of the anchor and along the tail that ``next_arc``
    takes from it; the prefix is feasible by construction. Cumulative
    resource continues from the prefix total."""
    return _tail_violation(dag, label.anchor, label.res, next_arc)


def relaxed_violation(dag: WindowedDag, tails: TailMap) -> Optional[WindowViolation]:
    """Window check of the tail ``tails`` takes from the source: the
    enumeration's own integer walk from the empty prefix, with no label
    made. Agrees with :func:`~borwin.graph.check_windows` on that path."""
    return _tail_violation(dag, dag.source, 0, tails.next_arc)


def _tail_violation(dag: WindowedDag, u: int, r: int, next_arc) -> Optional[WindowViolation]:
    lo, hi = dag.int_windows()
    arcs = dag.int_arcs()
    violation, _ = _walk(u, r, next_arc, lo, hi, arcs.dst, arcs.res, dag.sink)
    return None if violation is None else WindowViolation(*violation)


def lower_bound_mu(incumbent_value: Fraction, delta: Fraction, beta: Optional[Fraction]) -> Fraction:
    """Aggregate that every strictly better feasible path must exceed:
    the incumbent's value plus delta times the sink lower bound."""
    if delta == 0:
        return incumbent_value
    if beta is None:
        raise ValueError("a positive delta requires a finite sink lower bound")
    return incumbent_value + delta * beta


def run_phase2(
    dag: WindowedDag,
    delta: Fraction,
    value_bound: Optional[ValueBound] = None,
    *,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    trace: Optional[Trace] = None,
    deadline: Optional[float] = None,
    tails: Optional[TailMap] = None,
) -> SolveResult:
    """Exact enumeration of ``dag`` for the aggregation weight ``delta``
    from the bounding phase. ``tails`` may pass in the sweep of ``dag``
    at ``delta`` when the bounding phase already made it. Its ``sign``
    orients the resource: the sweep's weight ``wr`` carries it into every
    aggregate, and with ``sign = -1`` the bound rule's sink lower bound
    is minus the window's upper bound. Labels, windows, dominance and
    calls to ``value_bound``, the complementary rule's bound (None: no
    rule), stay in the instance's own resource. Raises
    :class:`NoFeasiblePath` when no window-feasible path exists, and
    ValueError for a positive ``delta`` on a sink without a lower bound
    in that orientation.
    """
    if not isinstance(delta, Fraction) or delta < 0:
        raise ValueError("delta must be a nonnegative rational")
    if tails is None:
        tails = all_tails(dag, delta)
    elif tails.dag is not dag or tails.delta != delta:
        raise ValueError("tails were swept on another instance or weight")
    tmu, nxt, tval = tails.mu, tails.next_arc, tails.val
    wv, wr, scale = tails.wv, tails.wr, tails.scale
    arcs = dag.int_arcs()
    dst, val, res, dv, dr = arcs.dst, arcs.val, arcs.res, arcs.dv, arcs.dr
    lo, hi = dag.int_windows()
    out_arcs = dag.out_arcs
    source, sink = dag.source, dag.sink
    # the bound rule's floor for incumbent value V (scaled) is wv * V + beta_floor
    beta_floor = floor(scale * lower_bound_mu(ZERO, delta, dag.window(sink).oriented(tails.sign).lo))
    stats = SolveStats()
    if tmu[source] is None:
        raise NoFeasiblePath("sink unreachable from source", stats)
    if not lo[source] <= 0 <= hi[source]:
        raise NoFeasiblePath("source window excludes the empty prefix", stats)

    def prune_event(mu: int, anchor: int, rule: str, prefix: tuple[int, ...]) -> TraceEvent:
        return TraceEvent(kind="prune", mu=Fraction(mu, scale), anchor=anchor, rule=rule, prefix=prefix)

    def floor_rule(mu: int, v: int, r: int, value: int) -> Optional[str]:
        # the rule that prunes a prefix against the incumbent's floors, or None
        if use_bound_prune and mu <= mu_floor:
            return "bound"
        if value_bound is not None:
            cap = value_bound.bound(v, r, value, dr, dv)
            if cap is None or cap <= incumbent_val:
                return "ub"
        return None

    def child_prefix(kid: tuple) -> tuple[int, ...]:
        return Label(-kid[0], *kid[2:]).prefix_vertices(dag, nxt)

    # waiting children as (-mu, creation number, v, val, res, parent, cut,
    # arc): largest aggregate first, creation order on ties
    heap = [(-tmu[source], 0, source, 0, 0, None, 0, None)]
    frontier: dict[tuple[int, int], int] = {}
    incumbent: Optional[Label] = None
    incumbent_val = 0
    mu_floor: Optional[int] = None  # set with the incumbent
    pruned = {"bound": 0, "ub": 0}
    pops = pruned_dom = 0
    created = 1
    fresh = 0  # children numbered from here on met the value bound against the incumbent

    while heap:
        check_deadline(deadline, "enumeration phase")
        neg_mu, made, anchor, prefix_v, prefix_r, parent, cut, arc = kid = heappop(heap)
        # an older child is above the floor (the cut kept it) but meets the value bound again
        if made < fresh and (rule := floor_rule(-neg_mu, anchor, prefix_r, prefix_v)) is not None:
            pruned[rule] += 1
            if trace is not None:
                trace(prune_event(-neg_mu, anchor, rule, child_prefix(kid)))
            continue
        label = make_label(-neg_mu, anchor, prefix_v, prefix_r, parent, cut, arc)
        pops += 1
        violation, adopted = _walk(anchor, prefix_r, nxt, lo, hi, dst, res, sink)
        feasible = violation is None
        if feasible:
            value = prefix_v + tval[anchor]
            if incumbent is None or value > incumbent_val:
                incumbent, incumbent_val = label, value
                mu_floor = wv * value + beta_floor
                if value_bound is not None:
                    fresh = created
                if use_bound_prune:
                    # cut the waiting children on or below the new floor,
                    # with their events in creation order
                    kept = [waiting for waiting in heap if waiting[0] < -mu_floor]
                    pruned["bound"] += len(heap) - len(kept)
                    if trace is not None:
                        for waiting in sorted((w for w in heap if w[0] >= -mu_floor), key=itemgetter(1)):
                            trace(prune_event(-waiting[0], waiting[2], "bound", child_prefix(waiting)))
                    heapify(kept)
                    heap = kept
        if trace is not None:
            action = "incumbent" if incumbent is label else "kept" if feasible else "extended"
            mu = Fraction(label.mu, scale)
            trace(TraceEvent(kind="pop", mu=mu, anchor=anchor, feasible=feasible, action=action))

        # Generalized extension: from the anchor and every adopted tail
        # vertex (the sink excluded), branch on every non-tail arc. A
        # candidate child is judged on its integers, dominance first, and
        # waits on the heap as integers when it passes.
        u, cum_v, cum_r = anchor, prefix_v, prefix_r
        if trace is not None:
            stop_prefix = list(label.prefix_vertices(dag, nxt))  # vertices up to u, for events
        for cut in range(len(adopted) + 1):
            if cut:
                aid = adopted[cut - 1]
                u = dst[aid]
                cum_v += val[aid]
                cum_r += res[aid]
                if trace is not None:
                    stop_prefix.append(u)
            if u == sink:
                break
            skip = nxt[u]
            for aid in out_arcs[u]:
                if aid == skip:
                    continue
                v = dst[aid]
                tail_mu = tmu[v]
                if tail_mu is None:
                    continue  # cannot complete to the sink
                new_r = cum_r + res[aid]
                if new_r < lo[v] or new_r > hi[v]:
                    continue
                new_v = cum_v + val[aid]
                child_mu = wv * new_v + wr * new_r + tail_mu
                if use_dominance:
                    key = (v, new_r)
                    best_v = frontier.get(key)
                    if best_v is not None and best_v >= new_v:
                        pruned_dom += 1
                        if trace is not None:
                            trace(prune_event(child_mu, v, "dominance", (*stop_prefix, v)))
                        continue
                if incumbent is not None:
                    rule = floor_rule(child_mu, v, new_r, new_v)
                    if rule is not None:
                        pruned[rule] += 1
                        if trace is not None:
                            trace(prune_event(child_mu, v, rule, (*stop_prefix, v)))
                        continue
                heappush(heap, (-child_mu, created, v, new_v, new_r, label, cut, aid))
                created += 1
                if use_dominance:
                    frontier[key] = new_v

    stats.phase2_iterations = pops
    stats.labels_created = created
    stats.labels_pruned_bound = pruned["bound"]
    stats.labels_pruned_dominance = pruned_dom
    stats.labels_pruned_ub = pruned["ub"]
    if incumbent is None:
        raise NoFeasiblePath("no window-feasible path", stats)
    best = path_metrics(dag, incumbent.prefix_arc_ids(dag, nxt) + list(tails.arc_ids(incumbent.anchor)), start=source)
    return SolveResult(best=best, value=best.value, stats=stats)
