"""Independent oracles and comparison algorithms.

``brute_force`` is the trusted reference: in strict mode it enumerates
every source-sink path with no shortcuts, so its counts and optimum are
ground truth for everything else. ``rcsp_label_setting`` is the second
exact method: a forward DP that keeps one best value per (vertex,
cumulative resource) state and reads nothing of the solver's phases.
``relaxed_longest`` is the sanity upper bound that ignores all windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import (
    GraphError,
    Path,
    WindowedDag,
    check_deadline,
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
        check_deadline(deadline, "oracle enumeration")
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


def rcsp_label_setting(dag: WindowedDag, deadline: Optional[float] = None) -> OracleResult:
    """Forward topological DP over (vertex, cumulative resource) states.

    The completions of a prefix depend only on its last vertex and its
    cumulative resource, so each vertex keeps one best value per
    resource: the resource-indexed labels of Desrochers & Soumis (1988).
    The DP runs on the instance's :class:`IntArcs` and integer windows,
    with any sign of arc resource; a candidate replaces a state only
    when its value is strictly larger. The witness is walked back from
    the first best sink state.
    """
    if dag.topo_order is None:
        raise GraphError("instance is not acyclic")
    ints = dag.int_arcs()
    dst, val, res = ints.dst, ints.val, ints.res
    lo, hi = dag.int_windows()
    # per vertex: cumulative resource -> (value, predecessor's resource, arc)
    states: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(dag.n)]
    if lo[dag.source] <= 0 <= hi[dag.source]:
        states[dag.source][0] = (0, 0, -1)
    out_arcs = dag.out_arcs
    for u in dag.topo_order:
        for r, (value, _, _) in states[u].items():
            check_deadline(deadline, "label setting")
            for aid in out_arcs[u]:
                v = dst[aid]
                r_v = r + res[aid]
                if lo[v] <= r_v <= hi[v]:
                    cand = value + val[aid]
                    kept = states[v].get(r_v)
                    if kept is None or cand > kept[0]:
                        states[v][r_v] = (cand, r, aid)

    at_sink = states[dag.sink]
    if not at_sink:
        return OracleResult("infeasible", None, None, None, None)
    best, r, aid = at_sink[max(at_sink, key=lambda k: at_sink[k][0])]
    ids: list[int] = []
    while aid >= 0:
        ids.append(aid)
        _, r, aid = states[ints.src[aid]][r]
    witness = path_metrics(dag, ids[::-1], start=dag.source)
    return OracleResult("optimal", Fraction(best, ints.dv), witness, None, None)


def relaxed_longest(dag: WindowedDag) -> Fraction:
    """Best path value with every window ignored; a valid upper bound on
    the windowed optimum."""
    path, _ = longest_path(dag, ZERO, dag.source)
    return path.value
