"""Windowed DAG instances, path arithmetic and the weighted longest-path kernel.

An instance is a directed acyclic graph with a designated source ``s``
and sink ``p``. Every arc carries an exact value and an exact resource
amount. Every vertex carries a window: a closed interval that the
cumulative resource of a source-anchored path must hit whenever the
path visits the vertex. The solved problem is to find a maximum-value
s-p path whose cumulative resource respects every visited window.

Both solver phases and all baselines are built on the two primitives in
this module: window checking of explicit paths, and a single dynamic
program over the reverse topological order that computes, for every
vertex, a best path to the sink under a parametric arc weight.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Optional, Sequence, Union

from .rational import Ratio, Weight, _PlusInfinity

ZERO = Fraction(0)


class GraphError(Exception):
    """Base class for instance and solver errors."""


class NonContiguous(GraphError):
    """Arc list does not form a contiguous walk."""


class SinkUnreachable(GraphError):
    """Requested a path to the sink from a vertex that cannot reach it."""


class TimeoutExceeded(GraphError, TimeoutError):
    """Cooperative deadline hit inside a solver loop or an oracle."""


def check_deadline(deadline: Optional[float], layer: str) -> None:
    """Raise :class:`TimeoutExceeded` naming ``layer`` once the
    ``time.monotonic`` clock has passed ``deadline``; None never expires."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceeded(f"{layer} hit its deadline")


class InvalidGraph(GraphError):
    """An input DAG fails :func:`validate`; the message is ``code: detail``."""


@dataclass(frozen=True)
class Window:
    """Closed interval on cumulative resource; ``None`` means unbounded."""

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def contains(self, r: Fraction) -> bool:
        if self.lo is not None and r < self.lo:
            return False
        if self.hi is not None and r > self.hi:
            return False
        return True

    def oriented(self, sign: int) -> "Window":
        """The window on ``sign`` times the cumulative resource: itself
        for ``sign = 1``, ``[-hi, -lo]`` for ``sign = -1``."""
        if sign == 1:
            return self
        return Window(lo=None if self.hi is None else -self.hi, hi=None if self.lo is None else -self.lo)

    def violated_side(self, r: Fraction) -> Optional[str]:
        if self.lo is not None and r < self.lo:
            return "lo"
        if self.hi is not None and r > self.hi:
            return "hi"
        return None


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    value: Fraction
    resource: Fraction


@dataclass(frozen=True)
class WindowViolation:
    vertex: int
    side: str  # "lo" | "hi"


class LazyTuple(Sequence):
    """A read-only sequence of ``size`` items whose item ``k`` is
    ``item(k)``. The first read through the sequence interface builds the
    tuple of all items and keeps it; :meth:`one` reads a single item
    without building the rest, and the length needs no item at all. It
    compares equal to the tuple of its items."""

    __slots__ = ("_size", "_item", "_items")

    def __init__(self, size: int, item: Callable[[int], Any]):
        self._size = size
        self._item = item
        self._items: Optional[tuple] = None

    def __len__(self) -> int:
        return self._size

    def one(self, k: int) -> Any:
        return self._item(k) if self._items is None else self._items[k]

    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple(map(self._item, range(self._size)))
        return self._items

    def __getitem__(self, k):
        return self.items()[k]

    def __iter__(self):
        return iter(self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTuple):
            other = other.items()
        return isinstance(other, tuple) and self.items() == other

    __hash__ = None  # type: ignore[assignment]


class WindowedDag:
    """Immutable problem instance.

    Vertices are dense integers ``0..n-1``; ``labels`` keeps the external
    names for display. ``topo_order`` is derived when the graph is acyclic
    and not supplied; an unusable order is kept as ``None`` so that
    :func:`validate` can report the defect instead of construction failing.

    Every instance is its :class:`IntArcs` and integer windows, set up
    by one initializer. The constructor scales Fraction windows and arcs
    (tests, fixtures, :func:`prune_unreachable`); :meth:`of_ints` takes
    the integer arrays (the HUC compiles, :func:`presolve`) and
    :meth:`of_ratios` exact ``(num, den)`` data (the JSON loader, the DAG
    generator). ``arcs`` is a :class:`LazyTuple` view of the
    :class:`IntArcs`, built in full on first read and then kept.
    ``windows`` stay exact, since rounded integers cannot give them back:
    the constructor's tuple, or the view of :meth:`of_ints`. :meth:`arc`
    and :meth:`window` read one item without building the rest.
    """

    __slots__ = (
        "n",
        "windows",
        "arcs",
        "source",
        "sink",
        "labels",
        "topo_order",
        "out_arcs",
        "_int_arcs",
        "_int_windows",
    )

    def __init__(
        self,
        windows: Sequence[Window],
        arcs: Sequence[Arc],
        source: int,
        sink: int,
        labels: Optional[Sequence[str]] = None,
        topo_order: Optional[Sequence[int]] = None,
    ):
        windows = tuple(windows)
        ints = IntArcs.of(arcs)
        int_windows = _scaled_windows([(_ratio(w.lo), _ratio(w.hi)) for w in windows], ints.dr, _beyond(ints))
        labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(len(windows)))
        self._init(ints, int_windows, windows, source, sink, labels, None, topo_order)

    def _init(
        self,
        ints: "IntArcs",
        int_windows: tuple[list[int], list[int]],
        windows: Sequence[Window],
        source: int,
        sink: int,
        labels: Sequence[str],
        out_arcs: Optional[Sequence[Sequence[int]]],
        topo_order: Optional[Sequence[int]],
    ) -> None:
        # the arc view holds ``ints``, not the instance: no reference cycle
        self.n = n = len(windows)
        self.windows = windows
        self.arcs = LazyTuple(len(ints.dst), ints.arc)
        self.source, self.sink = source, sink
        self.labels = labels
        if out_arcs is None:
            # an arc with an end out of range is left out, for validate
            out: list[list[int]] = [[] for _ in range(n)]
            for aid, (u, w) in enumerate(zip(ints.src, ints.dst)):
                if 0 <= u < n and 0 <= w < n:
                    out[u].append(aid)
            out_arcs = map(tuple, out)
        self.out_arcs = tuple(out_arcs)
        self._int_arcs = ints
        self._int_windows = int_windows
        self.topo_order = _kahn(self) if topo_order is None else tuple(topo_order)

    @classmethod
    def of_ints(
        cls,
        ints: "IntArcs",
        windows: tuple[list[int], list[int]],
        source: int,
        sink: int,
        window: Callable[[int], Window],
        labels: Sequence[str],
        out_arcs: Optional[Sequence[Sequence[int]]] = None,
        topo_order: Optional[Sequence[int]] = None,
    ) -> "WindowedDag":
        """An instance on integer arrays: its :class:`IntArcs`, whose ends
        are vertex ids, and its integer windows on their resource scale,
        one per vertex. ``window`` makes the exact Fraction window of one
        vertex, which the ``windows`` view calls on first read. Without
        ``out_arcs`` each vertex's out-arcs are its arc ids in id order,
        and without ``topo_order`` the order is :func:`_kahn`'s, None on
        a cycle, as in the constructor."""
        dag = cls.__new__(cls)
        dag._init(ints, windows, LazyTuple(len(windows[0]), window), source, sink, labels, out_arcs, topo_order)
        return dag

    @classmethod
    def of_ratios(
        cls,
        src: list[int],
        dst: list[int],
        values: list[Ratio],
        resources: list[Ratio],
        bounds: Sequence[tuple[Optional[Ratio], Optional[Ratio]]],
        source: int,
        sink: int,
        labels: Sequence[str],
    ) -> "WindowedDag":
        """The instance with arcs ``src[k] -> dst[k]`` of value
        ``values[k]`` and resource ``resources[k]`` and with the windows
        ``bounds[v]``, (lo, hi) pairs with None for an unbounded side, all
        given as :data:`Ratio`. It equals the constructor's instance; its
        Fraction windows are a view made from the ratios."""
        ints = IntArcs.of_ratios(src, dst, values, resources)

        def window(v: int) -> Window:
            lo, hi = bounds[v]
            return Window(None if lo is None else Fraction(*lo), None if hi is None else Fraction(*hi))

        return cls.of_ints(ints, _scaled_windows(bounds, ints.dr, _beyond(ints)), source, sink, window, labels)

    def int_arcs(self) -> "IntArcs":
        """Integer-scaled arc data; ``arcs`` is a view of it."""
        return self._int_arcs

    def int_windows(self) -> tuple[list[int], list[int]]:
        """Per-vertex windows on the resource scale of :meth:`int_arcs`."""
        return self._int_windows

    # -- lookups -----------------------------------------------------------

    def arc(self, aid: int) -> Arc:
        return _one(self.arcs, aid)

    def window(self, v: int) -> Window:
        return _one(self.windows, v)

    def vertex(self, label: str) -> int:
        return self.labels.index(label)

    def find_arc(self, src: int, dst: int) -> int:
        """Index of the first src->dst arc (fixtures and tests)."""
        for idx in self.out_arcs[src]:
            if self.arc(idx).dst == dst:
                return idx
        raise KeyError(f"no arc {src}->{dst}")


def _one(items: Sequence, k: int):
    """Item ``k`` of a tuple, or of a :class:`LazyTuple` without building it."""
    return items.one(k) if isinstance(items, LazyTuple) else items[k]


def _kahn(dag: WindowedDag) -> Optional[tuple[int, ...]]:
    """Smallest-id-first topological order from the instance's out-arcs
    and integer arc heads, or None when the graph has a cycle."""
    dst = dag.int_arcs().dst
    out_arcs = dag.out_arcs
    indeg = [0] * dag.n
    for out in out_arcs:
        for aidx in out:
            indeg[dst[aidx]] += 1
    queue = [v for v in range(dag.n) if indeg[v] == 0]  # sorted, so a heap
    order: list[int] = []
    while queue:
        u = heapq.heappop(queue)
        order.append(u)
        for aidx in out_arcs[u]:
            w = dst[aidx]
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(queue, w)
    if len(order) != dag.n:
        return None
    return tuple(order)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    code: Optional[str] = None  # CycleDetected | BadTopoOrder | InvertedWindow | DanglingArc | BadSourceWindow
    detail: Optional[str] = None
    warnings: tuple[str, ...] = ()


def validate(dag: WindowedDag) -> ValidationReport:
    """Check the structural invariants; the report names the first violation.

    Windows on vertices that cannot lie on any s-p path are legal but
    pointless, so they are surfaced as warnings rather than errors. Arc
    ends are read from :meth:`~WindowedDag.int_arcs`, so no :class:`Arc`
    is made; windows are compared as Fractions, since the integer windows
    are rounded.
    """
    ints = dag.int_arcs()
    ends = list(zip(ints.src, ints.dst))
    for idx, (u, w) in enumerate(ends):
        if not (0 <= u < dag.n and 0 <= w < dag.n):
            return ValidationReport(False, "DanglingArc", f"arc {idx} endpoints out of range")
        if u == w:
            return ValidationReport(False, "CycleDetected", f"arc {idx} is a self-loop")
    if not (0 <= dag.source < dag.n and 0 <= dag.sink < dag.n):
        return ValidationReport(False, "DanglingArc", "source or sink out of range")
    if _kahn(dag) is None:
        return ValidationReport(False, "CycleDetected", "graph contains a directed cycle")
    if dag.topo_order is None or sorted(dag.topo_order) != list(range(dag.n)):
        return ValidationReport(False, "BadTopoOrder", "stored order is not a permutation of the vertices")
    pos = {u: i for i, u in enumerate(dag.topo_order)}
    for idx, (u, w) in enumerate(ends):
        if pos[u] >= pos[w]:
            return ValidationReport(False, "BadTopoOrder", f"arc {idx} goes backwards in the stored order")
    for v, w in enumerate(dag.windows):
        if w.lo is not None and w.hi is not None and w.lo > w.hi:
            return ValidationReport(False, "InvertedWindow", f"vertex {dag.labels[v]} has lo > hi")
    if not dag.windows[dag.source].contains(ZERO):
        return ValidationReport(False, "BadSourceWindow", "source window does not contain resource 0")
    warnings = []
    on_path = reachable_from(dag, dag.source) & reaching(dag, dag.sink)
    for v in range(dag.n):
        w = dag.windows[v]
        if v not in on_path and (w.lo is not None or w.hi is not None):
            warnings.append(f"window on vertex {dag.labels[v]} is off every s-p path and is ignored")
    return ValidationReport(True, warnings=tuple(warnings))


def reachable_from(dag: WindowedDag, v: int) -> set[int]:
    return _closure(v, dag.out_arcs, dag.int_arcs().dst)


def reaching(dag: WindowedDag, v: int) -> set[int]:
    ints = dag.int_arcs()
    in_arcs: list[list[int]] = [[] for _ in range(dag.n)]
    for out in dag.out_arcs:
        for aidx in out:
            in_arcs[ints.dst[aidx]].append(aidx)
    return _closure(v, in_arcs, ints.src)


def _closure(v: int, adjacency: Sequence[Sequence[int]], end: Sequence[int]) -> set[int]:
    """Vertices reached from ``v`` along ``adjacency``; arc ``i`` leads to ``end[i]``."""
    seen = {v}
    stack = [v]
    while stack:
        for idx in adjacency[stack.pop()]:
            w = end[idx]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# -- paths ----------------------------------------------------------------


class Path:
    """A contiguous walk with cached totals.

    ``prefix_resources[k]`` is the cumulative resource after the first k
    arcs, so it aligns with ``vertices()`` and starts at 0 at the path's
    own start vertex. A path keeps its ``arc_ids``, its vertices and the
    instance (:func:`path_metrics` reads the vertices off the instance's
    integer arcs); its ``arcs``, the :class:`Arc` objects, are read from
    the instance on first use and kept.
    """

    __slots__ = ("start", "value", "resource", "prefix_resources", "arc_ids", "_arcs", "_vertices", "_dag")

    def __init__(
        self,
        start: int,
        value: Fraction,
        resource: Fraction,
        prefix_resources: tuple[Fraction, ...],
        arc_ids: tuple[int, ...],
        dag: WindowedDag,
        vertices: tuple[int, ...],
    ):
        self.start = start
        self.value = value
        self.resource = resource
        self.prefix_resources = prefix_resources
        self.arc_ids = arc_ids
        self._arcs: Optional[tuple[Arc, ...]] = None
        self._dag = dag
        self._vertices = vertices

    @property
    def arcs(self) -> tuple[Arc, ...]:
        if self._arcs is None:
            self._arcs = tuple(map(self._dag.arc, self.arc_ids))
        return self._arcs

    def vertices(self) -> list[int]:
        return list(self._vertices)

    @property
    def end(self) -> int:
        return self._vertices[-1]

    def labelled(self, dag: WindowedDag) -> list[str]:
        return [_one(dag.labels, v) for v in self._vertices]


def path_metrics(dag: WindowedDag, arc_ids: Sequence[int], start: Optional[int] = None) -> Path:
    """Build a :class:`Path` from arc indices, with cached value, resource
    and prefixes; an empty list needs ``start`` (defaulting to the
    source). The walk reads only the instance's :class:`IntArcs`: it
    checks contiguity on ``src`` and sums on integers, so the only
    Fractions made are one per prefix and the value, and no :class:`Arc`.
    """
    ints = dag.int_arcs()
    src, dst, val, res = ints.src, ints.dst, ints.val, ints.res
    arc_ids = tuple(arc_ids)
    if arc_ids:
        first = src[arc_ids[0]]
        at = first if start is None else start
        if at != first:
            raise NonContiguous(f"path starts at {at} but first arc leaves {first}")
    else:
        at = dag.source if start is None else start
    vertices = [at]
    prefixes = [0]
    value = resource = 0
    for aid in arc_ids:
        if src[aid] != vertices[-1]:
            raise NonContiguous(f"arc {src[aid]}->{dst[aid]} does not continue from {vertices[-1]}")
        value += val[aid]
        resource += res[aid]
        prefixes.append(resource)
        vertices.append(dst[aid])
    prefixes = tuple(Fraction(r, ints.dr) for r in prefixes)
    return Path(at, Fraction(value, ints.dv), prefixes[-1], prefixes, arc_ids, dag, tuple(vertices))


def path_by_vertices(dag: WindowedDag, vertices: Sequence[Union[int, str]]) -> Path:
    """Convenience: resolve a vertex sequence (ids or labels) to a Path."""
    ids = [dag.vertex(v) if isinstance(v, str) else v for v in vertices]
    arc_ids = [dag.find_arc(u, w) for u, w in zip(ids, ids[1:])]
    return path_metrics(dag, arc_ids, start=ids[0])


def check_windows(dag: WindowedDag, path: Path) -> Optional[WindowViolation]:
    """Feasibility of a source-anchored path: every visited vertex's
    cumulative resource must lie in its window. Returns the earliest
    violation, or None when feasible."""
    if path.start != dag.source:
        raise ValueError("check_windows expects a source-anchored path")
    for v, r in zip(path.vertices(), path.prefix_resources):
        side = dag.window(v).violated_side(r)
        if side is not None:
            return WindowViolation(v, side)
    return None


# -- parametric longest paths to the sink ---------------------------------


@dataclass(slots=True)
class IntArcs:
    """Arc data scaled to integers for the sweep kernel.

    ``src[i]`` and ``dst[i]`` are the ends of arc ``i``, ``val[i] = dv *
    arcs[i].value`` and ``res[i] = dr * arcs[i].resource``, where ``dv``
    and ``dr`` are the lcms of the value and resource denominators, so
    every entry is an exact integer.
    """

    src: list[int]
    dst: list[int]
    val: list[int]
    res: list[int]
    dv: int
    dr: int

    def arc(self, k: int) -> Arc:
        """The exact :class:`Arc` of id ``k``."""
        return Arc(self.src[k], self.dst[k], Fraction(self.val[k], self.dv), Fraction(self.res[k], self.dr))

    @classmethod
    def of(cls, arcs: Sequence[Arc]) -> "IntArcs":
        return cls.of_ratios(
            [a.src for a in arcs],
            [a.dst for a in arcs],
            [_ratio(a.value) for a in arcs],
            [_ratio(a.resource) for a in arcs],
        )

    @classmethod
    def of_ratios(cls, src: list[int], dst: list[int], values: list[Ratio], resources: list[Ratio]) -> "IntArcs":
        """The arcs from ``src[k]`` to ``dst[k]`` with value ``values[k]``
        and resource ``resources[k]``, each a :data:`Ratio`."""
        dv = lcm(*{d for _, d in values})
        dr = lcm(*{d for _, d in resources})
        return cls(
            src,
            dst,
            [n * (dv // d) for n, d in values],
            [n * (dr // d) for n, d in resources],
            dv,
            dr,
        )


def _ratio(q: Optional[Fraction]) -> Optional[Ratio]:
    return None if q is None else (q.numerator, q.denominator)


def _scaled_windows(
    bounds: Sequence[tuple[Optional[Ratio], Optional[Ratio]]], scale: int, beyond: int
) -> tuple[list[int], list[int]]:
    """Windows given as (lo, hi) :data:`Ratio` pairs, a side None when
    unbounded, on the integer resource ``scale``: ``ceil(scale * lo)``
    and ``floor(scale * hi)``, so an integer ``r`` lies in the pair
    exactly when ``r / scale`` lies in the window. An unbounded side gets
    ``-beyond`` or ``beyond``."""
    return (
        [-beyond if lo is None else -(-lo[0] * scale // lo[1]) for lo, _ in bounds],
        [beyond if hi is None else hi[0] * scale // hi[1] for _, hi in bounds],
    )


def _beyond(arcs: IntArcs) -> int:
    """A resource bound that no path's cumulative resource reaches."""
    return sum(map(abs, arcs.res)) + 1


class TailMap:
    """Best window-relaxed tails to the sink for one aggregation weight.

    One reverse-topological sweep over the instance's :class:`IntArcs`;
    vertices that cannot reach the sink are absent. ``sign`` (1 or -1)
    orients the resource: the sweep maximizes ``wv * val + wr * res``
    with ``wr`` carrying the sign, and its tie-breaks are deterministic:
    among equal aggregate steps prefer the larger arc value, then the
    larger oriented arc resource ``sign * res``, then the smaller
    successor index, then the smaller arc index.

    The integer arrays are indexed by vertex and read only: ``mu`` is the
    scaled aggregate (``None`` off the sink's reach), ``next_arc`` the
    arc the tail takes, and ``val`` and ``res`` the tail's value and
    unoriented resource on the :class:`IntArcs` scales ``dv`` and ``dr``;
    ``scale`` is the factor from the aggregate in exact Fractions to
    ``mu``. :meth:`path` is a path of ``dag`` itself.
    """

    __slots__ = ("dag", "delta", "sign", "wv", "wr", "scale", "mu", "next_arc", "val", "res")

    def __init__(self, dag: WindowedDag, delta: Weight, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be 1 or -1")
        arcs = dag.int_arcs()
        if isinstance(delta, _PlusInfinity):
            wv, wr, scale = 0, sign, arcs.dr
        else:
            # q*dv*dr * (value + p/q * sign * resource) = q*dr * val + sign*p*dv * res
            p, q = delta.numerator, delta.denominator
            wv, wr, scale = q * arcs.dr, sign * p * arcs.dv, q * arcs.dv * arcs.dr
        self.dag = dag
        self.delta = delta
        self.sign = sign
        self.wv, self.wr, self.scale = wv, wr, scale
        self.mu, self.next_arc, self.val, self.res = _sweep(dag, wv, wr, sign)

    def __contains__(self, u: int) -> bool:
        try:
            return u >= 0 and self.mu[u] is not None
        except (IndexError, TypeError):
            return False

    def arc_ids(self, u: int) -> tuple[int, ...]:
        if u not in self:
            raise KeyError(u)
        nxt = self.next_arc
        dst = self.dag.int_arcs().dst
        ids = []
        aidx = nxt[u]
        while aidx is not None:
            ids.append(aidx)
            aidx = nxt[dst[aidx]]
        return tuple(ids)

    def path(self, u: int) -> Path:
        return path_metrics(self.dag, self.arc_ids(u), start=u)


def _sweep(dag: WindowedDag, wv: int, wr: int, sign: int):
    """Reverse-topological DP maximizing ``wv * val + wr * res`` to the
    sink over the instance's :class:`IntArcs`, weighing only the arcs in
    ``out_arcs`` whose head reaches the sink; ties prefer the larger
    ``sign * res``. Returns per-vertex lists of the aggregate, the chosen
    arc and the scaled tail value and resource; ``None`` aggregate means
    the vertex cannot reach the sink."""
    if dag.topo_order is None:
        raise GraphError("instance is not acyclic")
    arcs = dag.int_arcs()
    dst, val, res = arcs.dst, arcs.val, arcs.res
    n = dag.n
    mu: list[Optional[int]] = [None] * n
    nxt: list[Optional[int]] = [None] * n
    tval = [0] * n
    tres = [0] * n
    mu[dag.sink] = 0
    out_arcs = dag.out_arcs
    for u in reversed(dag.topo_order):
        best = -1
        best_mu = 0
        for aidx in out_arcs[u]:
            m = mu[dst[aidx]]
            if m is None:
                continue
            cand = wv * val[aidx] + wr * res[aidx] + m
            if best < 0 or cand > best_mu:
                best, best_mu = aidx, cand
            elif cand == best_mu and (val[aidx], sign * res[aidx], dst[best]) > (val[best], sign * res[best], dst[aidx]):
                # out-arcs come in increasing index order, so a full tie
                # keeps the earlier, smaller arc index
                best = aidx
        if best >= 0:
            v = dst[best]
            mu[u] = best_mu
            nxt[u] = best
            tval[u] = val[best] + tval[v]
            tres[u] = res[best] + tres[v]
    return mu, nxt, tval, tres


def all_tails(dag: WindowedDag, delta: Weight, sign: int = 1) -> TailMap:
    """For every vertex that reaches the sink, a tail maximizing the
    aggregated weight value + delta * sign * resource (sign * resource
    alone for the +infinity sentinel), windows ignored."""
    return TailMap(dag, delta, sign)


def longest_path(dag: WindowedDag, delta: Weight, start: Optional[int] = None) -> tuple[Path, Fraction]:
    """Window-relaxed best path from ``start`` (default: source) to the sink
    under the aggregated weight, with its aggregate value."""
    at = dag.source if start is None else start
    tails = all_tails(dag, delta)
    if at not in tails:
        raise SinkUnreachable(f"vertex {dag.labels[at]} cannot reach the sink")
    return tails.path(at), Fraction(tails.mu[at], tails.scale)


def presolve(dag: WindowedDag, deadline: Optional[float] = None) -> Optional[WindowedDag]:
    """Exact resource-window reduction of ``dag`` (Desrochers and Soumis,
    1988): two passes over :meth:`~WindowedDag.int_arcs` and
    :meth:`~WindowedDag.int_windows`, O(n + m) integer work each.

    Forward, in topological order, each vertex gets ``F_v``: the hull,
    over its in-arcs, of ``F_u + r`` cut to its window; the source starts
    at ``[0, 0]`` cut to its window. Backward from the sink, each vertex
    gets ``B_v``: within ``F_v``, the hull of the points from which some
    out-arc ``v -> w`` reaches a non-empty ``B_w``. Every window-feasible s-p path visits
    each of its vertices with a cumulative resource in ``B_v``, so an arc
    ``u -> w`` can carry such a path only when ``B_u + r`` meets ``B_w``.

    Returns None when the source or the sink ends with an empty interval:
    then no window-feasible path exists. Otherwise a view with the same
    vertex and arc ids, made by :meth:`WindowedDag.of_ints` on the
    :class:`IntArcs`, labels and ``topo_order`` of ``dag``, without
    building any view of ``dag``; its ``out_arcs`` keep the arcs that
    can carry a feasible path, and each vertex with a non-empty ``B_v``
    has it as its integer window and as its Fraction window, which a
    :class:`LazyTuple` makes on first read. The view has the
    same window-feasible s-p paths as ``dag``, so paths, values and
    value bounds carry over unchanged.
    ``deadline`` (a ``time.monotonic`` value) is checked before each
    pass; past it, :class:`TimeoutExceeded` is raised."""
    if dag.topo_order is None:
        raise GraphError("instance is not acyclic")
    check_deadline(deadline, "presolve")
    arcs = dag.int_arcs()
    dst, res = arcs.dst, arcs.res
    lo, hi = dag.int_windows()
    order, out_arcs, source, sink = dag.topo_order, dag.out_arcs, dag.source, dag.sink
    # forward: [flo[v], fhi[v]] is the hull of F_v; None is empty
    flo: list[Optional[int]] = [None] * dag.n
    fhi = [0] * dag.n
    if lo[source] > 0 or hi[source] < 0:
        return None
    flo[source] = 0
    for u in order:
        a = flo[u]
        if a is None:
            continue
        b = fhi[u]
        for aid in out_arcs[u]:
            w, r = dst[aid], res[aid]
            # the part of [a + r, b + r] inside w's window
            x, y = a + r, b + r
            x, y = x if x > lo[w] else lo[w], y if y < hi[w] else hi[w]
            if x > y:
                continue
            c = flo[w]
            if c is None:
                flo[w], fhi[w] = x, y
                continue
            if x < c:
                flo[w] = x
            if y > fhi[w]:
                fhi[w] = y
    if flo[sink] is None:
        return None
    check_deadline(deadline, "presolve")
    # backward: B_v within F_v, and the arcs that reach a non-empty B_w
    blo: list[Optional[int]] = [None] * dag.n
    bhi = [0] * dag.n
    blo[sink], bhi[sink] = flo[sink], fhi[sink]
    kept: list[tuple[int, ...]] = [()] * dag.n
    for u in reversed(order):
        a = flo[u]
        if a is None or u == sink:
            continue
        b = fhi[u]
        out = []
        for aid in out_arcs[u]:
            w, r = dst[aid], res[aid]
            c = blo[w]
            if c is None:
                continue
            x, y = c - r, bhi[w] - r
            x, y = x if x > a else a, y if y < b else b
            if x <= y:
                if not out or x < x0:
                    x0 = x
                if not out or y > y0:
                    y0 = y
                out.append(aid)
        if out:
            blo[u], bhi[u], kept[u] = x0, y0, tuple(out)
    if blo[source] is None:
        return None
    ilo, ihi = list(lo), list(hi)
    for v, x in enumerate(blo):
        if x is not None:
            ilo[v], ihi[v] = x, bhi[v]

    def window(v: int) -> Window:
        x = blo[v]
        return dag.window(v) if x is None else Window(Fraction(x, arcs.dr), Fraction(bhi[v], arcs.dr))

    return WindowedDag.of_ints(arcs, (ilo, ihi), source, sink, window, dag.labels, out_arcs=kept, topo_order=order)


def prune_unreachable(dag: WindowedDag) -> tuple[WindowedDag, tuple[int, ...]]:
    """Drop vertices off every s-p path. Returns the reduced instance and,
    per new vertex id, the old id it came from. Source and sink are always
    kept so the reduced instance stays well formed."""
    keep_set = (reachable_from(dag, dag.source) & reaching(dag, dag.sink)) | {dag.source, dag.sink}
    keep = sorted(keep_set)
    new_of_old = {old: new for new, old in enumerate(keep)}
    windows = [dag.windows[old] for old in keep]
    labels = [dag.labels[old] for old in keep]
    arcs = [
        Arc(new_of_old[a.src], new_of_old[a.dst], a.value, a.resource)
        for a in dag.arcs
        if a.src in keep_set and a.dst in keep_set
    ]
    reduced = WindowedDag(
        windows, arcs, new_of_old[dag.source], new_of_old[dag.sink], labels=labels
    )
    return reduced, tuple(keep)
