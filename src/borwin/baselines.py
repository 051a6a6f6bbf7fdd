"""Independent oracles and comparison algorithms.

``brute_force`` is the trusted reference: in strict mode it enumerates
every source-sink path with no shortcuts, so its counts and optimum are
ground truth for everything else. ``rcsp_label_setting`` is the classic
label-setting solver with the window-safe gated dominance rule, kept as
a baseline rather than an engine. ``relaxed_longest`` is the sanity
upper bound that ignores all windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import (
    GraphError,
    Path,
    TimeoutExceeded,
    WindowedDag,
    longest_path,
    path_metrics,
)

ZERO = Fraction(0)


class TooLarge(GraphError):
    """Strict enumeration exceeded its path-count guard."""


@dataclass
class OracleResult:
    status: str  # "optimal" | "infeasible"
    value: Optional[Fraction]
    witness: Optional[Path]
    feasible_count: Optional[int]
    total_count: Optional[int]


def brute_force(
    dag: WindowedDag,
    *,
    strict: bool = True,
    cap: int = 10_000_000,
    deadline: Optional[float] = None,
) -> OracleResult:
    """Depth-first enumeration of all source-sink paths.

    Strict mode walks every path in full (total and feasible counts are
    exact); fast mode cuts a branch at its first window violation, which
    is sound because a prefix's cumulative resource at a visited vertex
    can never be repaired downstream. The walk keeps an explicit stack
    and takes out-arcs in order; the first path of the highest value is
    the witness. Raises :class:`TooLarge` past ``cap`` enumerated
    paths and :class:`GraphError` on a cyclic instance.
    """
    if dag.topo_order is None:
        raise GraphError("instance is not acyclic")
    total = 0
    feasible = 0
    best_value: Optional[Fraction] = None
    best_ids: Optional[tuple[int, ...]] = None
    ids: list[int] = []  # arcs of the current path

    src_ok = dag.windows[dag.source].contains(ZERO)
    # one frame per vertex on the current path: vertex, resource, value,
    # window-feasible so far, position of the next out-arc to try
    stack = [[dag.source, ZERO, ZERO, src_ok, 0]] if strict or src_ok else []
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceeded("oracle enumeration hit its deadline")
        frame = stack[-1]
        u, resource, value, ok, k = frame
        if u == dag.sink:
            total += 1
            if total > cap:
                raise TooLarge(f"more than {cap} paths")
            if ok:
                feasible += 1
                if best_value is None or value > best_value:
                    best_value = value
                    best_ids = tuple(ids)
        if u == dag.sink or k == len(dag.out_arcs[u]):
            stack.pop()
            if stack:
                ids.pop()
            continue
        frame[4] = k + 1
        aid = dag.out_arcs[u][k]
        a = dag.arcs[aid]
        r = resource + a.resource
        good = ok and dag.windows[a.dst].contains(r)
        if strict or good:
            ids.append(aid)
            stack.append([a.dst, r, value + a.value, good, 0])

    if best_value is None:
        return OracleResult(
            status="infeasible",
            value=None,
            witness=None,
            feasible_count=feasible,
            total_count=total if strict else None,
        )
    witness = path_metrics(dag, best_ids, start=dag.source)
    return OracleResult(
        status="optimal",
        value=best_value,
        witness=witness,
        feasible_count=feasible,
        total_count=total if strict else None,
    )


@dataclass
class _RcspLabel:
    resource: Fraction
    value: Fraction
    vertex: int
    parent: Optional["_RcspLabel"]
    arc_id: Optional[int]


def rcsp_label_setting(dag: WindowedDag, deadline: Optional[float] = None) -> OracleResult:
    """Topological label extension with per-vertex frontiers.

    A label may discard another (higher resource, lower value) only when
    its own resource already meets every lower bound reachable ahead;
    lower-bounded windows make the unconditional rule unsound. The gate
    additionally needs nonnegative arc resources, so dominance is turned
    off entirely when any arc resource is negative.
    """
    if dag.topo_order is None:
        raise GraphError("instance is not acyclic")
    dominance_ok = all(a.resource >= 0 for a in dag.arcs)

    # max lower bound among vertices reachable from u (u included)
    max_lb: list[Optional[Fraction]] = [None] * dag.n
    for u in reversed(dag.topo_order):
        cur = dag.windows[u].lo
        for aid in dag.out_arcs[u]:
            sub = max_lb[dag.arcs[aid].dst]
            if sub is not None and (cur is None or sub > cur):
                cur = sub
        max_lb[u] = cur

    labels: list[list[_RcspLabel]] = [[] for _ in range(dag.n)]
    if dag.windows[dag.source].contains(ZERO):
        labels[dag.source].append(_RcspLabel(ZERO, ZERO, dag.source, None, None))

    def insert(v: int, cand: _RcspLabel) -> None:
        if dominance_ok:
            gate = max_lb[v]
            for kept in labels[v]:
                if (
                    kept.value >= cand.value
                    and kept.resource <= cand.resource
                    and (gate is None or kept.resource >= gate)
                ):
                    return
            labels[v] = [
                kept
                for kept in labels[v]
                if not (
                    cand.value >= kept.value
                    and cand.resource <= kept.resource
                    and (gate is None or cand.resource >= gate)
                )
            ]
        labels[v].append(cand)

    for u in dag.topo_order:
        for lab in labels[u]:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutExceeded("label setting hit its deadline")
            for aid in dag.out_arcs[u]:
                a = dag.arcs[aid]
                r = lab.resource + a.resource
                if not dag.windows[a.dst].contains(r):
                    continue
                insert(a.dst, _RcspLabel(r, lab.value + a.value, a.dst, lab, aid))

    sink_labels = labels[dag.sink]
    if not sink_labels:
        return OracleResult("infeasible", None, None, None, None)
    best = max(sink_labels, key=lambda l: l.value)
    ids: list[int] = []
    cur: Optional[_RcspLabel] = best
    while cur is not None and cur.arc_id is not None:
        ids.append(cur.arc_id)
        cur = cur.parent
    witness = path_metrics(dag, list(reversed(ids)), start=dag.source)
    return OracleResult("optimal", best.value, witness, None, None)


def relaxed_longest(dag: WindowedDag) -> Fraction:
    """Best path value with every window ignored; a valid upper bound on
    the windowed optimum."""
    path, _ = longest_path(dag, ZERO, dag.source)
    return path.value
