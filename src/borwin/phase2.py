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

Extensions are generalized: from a popped label, any prefix obtained by
adopting a window-feasible slice of its tail and then deviating by one
arc becomes a new label. Extensions run on every pop, feasible or not:
a feasible pop's tail maximizes the aggregate, not the value, so a
better-value completion through the same anchor may still be pending.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Protocol

from .graph import (
    GraphError,
    Path,
    TailMap,
    TimeoutExceeded,
    WindowViolation,
    WindowedDag,
    all_tails,
    path_metrics,
)

ZERO = Fraction(0)


class UbProvider(Protocol):
    """Admissible value bound on completions of a prefix.

    ``bound(vertex, prefix_resource, prefix_value)`` returns an upper
    bound on the total value of any window-feasible path extending a
    prefix that reaches ``vertex`` with the given totals, or ``None``
    when no completion exists at all.
    """

    def bound(
        self, vertex: int, prefix_resource: Fraction, prefix_value: Fraction
    ) -> Optional[Fraction]: ...


@dataclass
class Label:
    """Hybrid path: feasible prefix plus window-relaxed tail."""

    prefix_arc_ids: tuple[int, ...]
    anchor: int
    prefix_value: Fraction
    prefix_resource: Fraction
    tail_arc_ids: tuple[int, ...]
    value: Fraction  # prefix + tail
    resource: Fraction
    mu: Fraction
    seq: int = 0
    alive: bool = True

    def prefix_vertices(self, dag: WindowedDag) -> tuple[int, ...]:
        verts = [dag.source]
        for aid in self.prefix_arc_ids:
            verts.append(dag.arcs[aid].dst)
        return tuple(verts)

    def full_arc_ids(self) -> tuple[int, ...]:
        return self.prefix_arc_ids + self.tail_arc_ids


class LabelStore:
    """Max-aggregate priority queue with lazy deletion.

    Pops are deterministic: largest aggregate first, insertion order on
    ties. Bulk removal marks entries dead; pop skips them.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[Fraction, int, Label]] = []
        self._entries: list[Label] = []
        self._next_seq = 0

    def push(self, label: Label) -> None:
        label.seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (-label.mu, label.seq, label))
        self._entries.append(label)

    def pop(self) -> Optional[Label]:
        while self._heap:
            _, _, label = heapq.heappop(self._heap)
            if label.alive:
                label.alive = False
                return label
        return None

    def live(self) -> list[Label]:
        # compact dead entries while answering; purges scan this list
        self._entries = [lab for lab in self._entries if lab.alive]
        return list(self._entries)

    def __len__(self) -> int:
        return sum(1 for lab in self._entries if lab.alive)


@dataclass
class SolveStats:
    phase1_iterations: int = 0
    phase2_iterations: int = 0  # label pops
    labels_created: int = 0
    labels_pruned_bound: int = 0
    labels_pruned_dominance: int = 0
    labels_pruned_ub: int = 0


class NoFeasiblePath(GraphError):
    """The label store emptied without any window-feasible path.

    ``stats`` holds the work the enumeration did before it gave up.
    """

    def __init__(self, message: str, stats: Optional[SolveStats] = None):
        super().__init__(message)
        self.stats = stats if stats is not None else SolveStats()


@dataclass
class SolveResult:
    best: Optional[Path]
    value: Optional[Fraction]
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
    dag: WindowedDag,
    delta: Fraction,
    tails,
    prefix_arc_ids: tuple[int, ...],
    anchor: int,
    prefix_value: Fraction,
    prefix_resource: Fraction,
) -> Label:
    info = tails[anchor]
    value = prefix_value + info.value
    resource = prefix_resource + info.resource
    return Label(
        prefix_arc_ids=prefix_arc_ids,
        anchor=anchor,
        prefix_value=prefix_value,
        prefix_resource=prefix_resource,
        tail_arc_ids=tails.arc_ids(anchor),
        value=value,
        resource=resource,
        mu=value + delta * resource,
    )


def feasible_hybrid(dag: WindowedDag, label: Label) -> Optional[WindowViolation]:
    """Window check along the tail only; the prefix is feasible by
    construction. Cumulative resource continues from the prefix total."""
    cum = label.prefix_resource
    side = dag.windows[label.anchor].violated_side(cum)
    if side is not None:
        return WindowViolation(label.anchor, side)
    for aid in label.tail_arc_ids:
        a = dag.arcs[aid]
        cum += a.resource
        side = dag.windows[a.dst].violated_side(cum)
        if side is not None:
            return WindowViolation(a.dst, side)
    return None


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
    ub: Optional[UbProvider] = None,
    *,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    use_ub_prune: bool = True,
    trace: Optional[Trace] = None,
    deadline: Optional[float] = None,
    tails: Optional[TailMap] = None,
) -> SolveResult:
    """Exact enumeration under the coordinates of ``dag`` (already oriented
    if need be) for the aggregation weight ``delta`` from the bounding
    phase. ``tails`` may pass in the sweep of ``dag`` at ``delta`` when
    the bounding phase already made it. Raises :class:`NoFeasiblePath`
    when no window-feasible path exists.
    """
    if not isinstance(delta, Fraction) or delta < 0:
        raise ValueError("delta must be a nonnegative rational")
    if ub is None and use_ub_prune:
        from .bounds import ValueTailBound

        ub = ValueTailBound(dag)
    if tails is None:
        tails = all_tails(dag, delta)
    elif tails.dag is not dag or tails.delta != delta:
        raise ValueError("tails were swept on another instance or weight")
    beta = dag.windows[dag.sink].lo
    stats = SolveStats()
    if dag.source not in tails:
        raise NoFeasiblePath("sink unreachable from source", stats)

    if not dag.windows[dag.source].contains(ZERO):
        raise NoFeasiblePath("source window excludes the empty prefix", stats)

    store = LabelStore()
    frontier: dict[int, dict[Fraction, Fraction]] = {}
    incumbent: Optional[Label] = None

    def emit(event: TraceEvent) -> None:
        if trace is not None:
            trace(event)

    root = make_label(dag, delta, tails, (), dag.source, ZERO, ZERO)
    store.push(root)
    stats.labels_created += 1

    def incumbent_bounds() -> tuple[Optional[Fraction], Optional[Fraction]]:
        if incumbent is None:
            return None, None
        return lower_bound_mu(incumbent.value, delta, beta), incumbent.value

    while True:
        if deadline is not None:
            if time.monotonic() > deadline:
                raise TimeoutExceeded("enumeration phase hit its deadline")
        label = store.pop()
        if label is None:
            break
        stats.phase2_iterations += 1
        violation = feasible_hybrid(dag, label)
        if violation is None:
            if incumbent is None or label.value > incumbent.value:
                incumbent = label
            # Purge against the popped hybrid's own bounds (the incumbent
            # is at least as good, so this is the weaker, faithful purge).
            mu_floor = lower_bound_mu(label.value, delta, beta)
            for entry in store.live():
                if use_bound_prune and entry.mu <= mu_floor:
                    entry.alive = False
                    stats.labels_pruned_bound += 1
                    emit(
                        TraceEvent(
                            kind="prune",
                            mu=entry.mu,
                            anchor=entry.anchor,
                            rule="bound",
                            prefix=entry.prefix_vertices(dag),
                        )
                    )
                elif use_ub_prune and ub is not None:
                    cap = ub.bound(entry.anchor, entry.prefix_resource, entry.prefix_value)
                    if cap is None or cap <= label.value:
                        entry.alive = False
                        stats.labels_pruned_ub += 1
                        emit(
                            TraceEvent(
                                kind="prune",
                                mu=entry.mu,
                                anchor=entry.anchor,
                                rule="ub",
                                prefix=entry.prefix_vertices(dag),
                            )
                        )
            emit(
                TraceEvent(
                    kind="pop",
                    mu=label.mu,
                    anchor=label.anchor,
                    feasible=True,
                    action="incumbent" if incumbent is label else "kept",
                )
            )
        else:
            emit(TraceEvent(kind="pop", mu=label.mu, anchor=label.anchor, feasible=False, action="extended"))

        _extend(
            dag,
            delta,
            tails,
            label,
            store,
            frontier,
            stats,
            incumbent_bounds,
            ub,
            use_dominance,
            use_bound_prune,
            use_ub_prune,
            emit,
        )

    if incumbent is None:
        raise NoFeasiblePath("no window-feasible path", stats)
    best = path_metrics(dag, incumbent.full_arc_ids(), start=dag.source)
    return SolveResult(best=best, value=incumbent.value, stats=stats)


def _extend(
    dag: WindowedDag,
    delta: Fraction,
    tails,
    label: Label,
    store: LabelStore,
    frontier: dict[int, dict[Fraction, Fraction]],
    stats: SolveStats,
    incumbent_bounds,
    ub: Optional[UbProvider],
    use_dominance: bool,
    use_bound_prune: bool,
    use_ub_prune: bool,
    emit: Trace,
) -> None:
    """Generalized extension: for each tail vertex u (sink excluded) whose
    adopted tail slice stays window-feasible, branch on every non-tail arc
    out of u."""
    mu_floor, value_floor = incumbent_bounds()
    tail_vertices = [label.anchor] + [dag.arcs[aid].dst for aid in label.tail_arc_ids]
    adopted: list[int] = []
    cum_v = label.prefix_value
    cum_r = label.prefix_resource
    for pos, u in enumerate(tail_vertices):
        if pos > 0:
            # adopt the next tail arc; slices are nested, so the first
            # window failure ends every deeper extension too
            aid = label.tail_arc_ids[pos - 1]
            a = dag.arcs[aid]
            cum_v += a.value
            cum_r += a.resource
            if not dag.windows[u].contains(cum_r):
                break
            adopted.append(aid)
        if u == dag.sink:
            break
        skip = tails[u].next_arc
        for aid in dag.out_arcs[u]:
            if aid == skip:
                continue
            a = dag.arcs[aid]
            v = a.dst
            if v not in tails:
                continue  # cannot complete to the sink
            new_r = cum_r + a.resource
            if not dag.windows[v].contains(new_r):
                continue
            new_v = cum_v + a.value
            child = make_label(
                dag,
                delta,
                tails,
                label.prefix_arc_ids + tuple(adopted) + (aid,),
                v,
                new_v,
                new_r,
            )
            if use_dominance:
                best_v = frontier.get(v, {}).get(new_r)
                if best_v is not None and best_v >= new_v:
                    stats.labels_pruned_dominance += 1
                    emit(
                        TraceEvent(
                            kind="prune",
                            mu=child.mu,
                            anchor=v,
                            rule="dominance",
                            prefix=child.prefix_vertices(dag),
                        )
                    )
                    continue
            if mu_floor is not None:
                if use_bound_prune and child.mu <= mu_floor:
                    stats.labels_pruned_bound += 1
                    emit(
                        TraceEvent(
                            kind="prune",
                            mu=child.mu,
                            anchor=v,
                            rule="bound",
                            prefix=child.prefix_vertices(dag),
                        )
                    )
                    continue
                if use_ub_prune and ub is not None:
                    cap = ub.bound(v, new_r, new_v)
                    if cap is None or cap <= value_floor:
                        stats.labels_pruned_ub += 1
                        emit(
                            TraceEvent(
                                kind="prune",
                                mu=child.mu,
                                anchor=v,
                                rule="ub",
                                prefix=child.prefix_vertices(dag),
                            )
                        )
                        continue
            store.push(child)
            stats.labels_created += 1
            if use_dominance:
                bucket = frontier.setdefault(v, {})
                prev = bucket.get(new_r)
                if prev is None or new_v > prev:
                    bucket[new_r] = new_v
