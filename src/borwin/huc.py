"""Single-plant hydro unit commitment: model, graph compilation, MILP export.

A plant runs at one of a fixed ladder of operating levels per period.
Level i means points 1..i are active, so the period flow and revenue are
cumulative sums over the ladder. Moves up/down the ladder are limited by
ramp bounds, and after a move the level must hold for a minimum number
of periods before moving the other way. Cumulative water flow since the
start must stay inside per-period windows; the last period's window is
the target-volume constraint that makes instances hard.

Compilation produces a windowed DAG whose vertices are (period, level,
hold) triples: ``hold`` counts the periods still to wait before a
reversal (positive after a move up, negative after a move down). Two
compiles share one lazily filled moves table, one per-period numbering
and one arc emitter, so neither grows with ``min_updown`` past the
horizon. :func:`reached_graph` is the instance's s-p graph, which the
reference algorithms read; :func:`build_graph`, the model view gate c07
pins, appends the unreached grid states to it. :func:`solve_huc`
compiles only the window-feasible states: exact integer hulls of the
cumulative flow, propagated forward from the initial state and backward
from the last period, drop every state and move no window-feasible
schedule uses and prove some instances infeasible before any ``Arc``
exists. :func:`solve_awclpp` then solves that graph as it is, with the
same default value bound as any windowed DAG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, TextIO

from .bounds import MckpItem, NestedMckp
from .graph import (
    Arc,
    IntArcs,
    Path,
    TimeoutExceeded,
    Window,
    WindowedDag,
    prune_unreachable,  # noqa: F401  unused here; kept so lookups of huc.prune_unreachable still resolve
)
from .phase1 import GraphInvariantError
from .phase2 import SolveStats
from .rational import decimal_str
from .solver import INFEASIBLE, OPTIMAL, AwclppSolution, solve_awclpp

ZERO = Fraction(0)


class InvalidInstance(Exception):
    pass


@dataclass(frozen=True)
class OperatingPoint:
    flow: Fraction
    power: Fraction


@dataclass(frozen=True)
class HucInstance:
    """Problem data. ``points`` starts with the idle point (0, 0); prices
    are per period; ``water_value_up/downstream`` price the stock left in
    each reservoir at the end of the horizon. ``win_lo/win_hi`` bound the
    cumulative flow through each period. ``initial_point``/``initial_hold``
    carry the state inherited from the previous day."""

    periods: int
    points: tuple[OperatingPoint, ...]
    ramp_up: Fraction
    ramp_down: Fraction
    min_updown: int
    prices: tuple[Fraction, ...]
    water_value_upstream: Fraction
    water_value_downstream: Fraction
    win_lo: tuple[Fraction, ...]
    win_hi: tuple[Fraction, ...]
    initial_point: int = 0
    initial_hold: int = 0
    _cum_values: Optional[tuple[tuple[Fraction, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def check(self) -> None:
        if self.periods < 1:
            raise InvalidInstance("need at least one period")
        if not self.points or self.points[0] != OperatingPoint(ZERO, ZERO):
            raise InvalidInstance("points must start with the idle point (0, 0)")
        if any(p.flow <= 0 for p in self.points[1:]):
            raise InvalidInstance("non-idle points need positive flow")
        if self.min_updown < 1:
            raise InvalidInstance("minimum hold must be at least one period")
        if len(self.prices) != self.periods:
            raise InvalidInstance("one price per period required")
        if len(self.win_lo) != self.periods or len(self.win_hi) != self.periods:
            raise InvalidInstance("one window per period required")
        for t, (lo, hi) in enumerate(zip(self.win_lo, self.win_hi), start=1):
            if lo > hi:
                raise InvalidInstance(f"window at period {t} is inverted")
        if not 0 <= self.initial_point < len(self.points):
            raise InvalidInstance("initial point out of range")
        if abs(self.initial_hold) > self.min_updown - 1:
            raise InvalidInstance("initial hold out of range")

    @property
    def levels(self) -> int:
        return len(self.points)


def value_table(inst: HucInstance) -> list[list[Fraction]]:
    """Per-point revenue: price * power plus the water value transferred
    downstream by the point's flow. Indexed [t-1][i]."""
    shift = inst.water_value_downstream - inst.water_value_upstream
    return [
        [price * p.power + shift * p.flow for p in inst.points]
        for price in inst.prices
    ]


def cumulative_values(inst: HucInstance) -> tuple[tuple[Fraction, ...], ...]:
    """Revenue of running at level i in period t (points 1..i active).
    Computed on the first call and kept on the instance."""
    if inst._cum_values is None:
        object.__setattr__(inst, "_cum_values", tuple(tuple(accumulate(row)) for row in value_table(inst)))
    return inst._cum_values


def cumulative_flows(inst: HucInstance) -> list[Fraction]:
    return list(accumulate(p.flow for p in inst.points))


def legal_moves(inst: HucInstance, flows: Sequence[Fraction], level: int, hold: int) -> list[tuple[int, int]]:
    """Successor (level, hold) states for one period step, given the
    instance's ``cumulative_flows``."""
    span = inst.min_updown - 1
    out = [(level, hold - 1 if hold > 0 else hold + 1 if hold < 0 else 0)]
    if hold >= 0:
        for lvl in range(level + 1, inst.levels):
            if flows[lvl] - flows[level] <= inst.ramp_up:
                out.append((lvl, span))
    if hold <= 0:
        for lvl in range(level - 1, -1, -1):
            if flows[level] - flows[lvl] <= inst.ramp_down:
                out.append((lvl, -span))
    return out


class VertexMap:
    """A compiled graph's vertices by id: ``states[v]`` is the
    (period, level, hold) state of vertex ``v``. The source is the
    inherited state at period 0 and the sink is ``(T + 1, 0, 0)``;
    :meth:`id_of` maps every period-0 state to the source and every
    period-``T + 1`` state to the sink, from a dict built on first use."""

    __slots__ = ("periods", "states", "_ids")

    def __init__(self, periods: int, states: Sequence[tuple[int, int, int]]):
        self.periods = periods
        self.states = tuple(states)
        self._ids: Optional[dict[tuple[int, int, int], int]] = None

    @property
    def count(self) -> int:
        return len(self.states)

    def id_of(self, t: int, i: int, l: int) -> int:
        if t == 0:
            return 0
        if self._ids is None:
            self._ids = {s: v for v, s in enumerate(self.states)}
        return self._ids[(t, 0, 0) if t == self.periods + 1 else (t, i, l)]

    def state_of(self, vid: int) -> tuple[int, int, int]:
        return self.states[vid]


State = tuple[int, int]  # (level, hold)


class _Moves(dict):
    """:func:`legal_moves` by (level, hold), filled on first lookup: moves
    do not depend on the period, and schedules reach few of the holds."""

    def __init__(self, inst: HucInstance, flows: Sequence[Fraction]):
        self.args = inst, flows

    def __missing__(self, s: State) -> list[State]:
        out = self[s] = legal_moves(*self.args, *s)
        return out


def _emit(
    inst: HucInstance,
    layers: Sequence[Sequence[State]],
    moves: Sequence[dict[State, list[State]]],
) -> tuple[list[Arc], list[tuple[int, int, int]], IntArcs]:
    """Number the states of ``layers`` (period 0 to T, each in (i, l)
    order) consecutively, then the sink, and emit an arc for each move
    ``m`` in ``moves[t][s]`` from a period-``t`` state ``s`` (every such
    ``m`` lies in the next period's layer), plus an arc from every
    period-T state to the sink. Returns the arcs, the (period, level,
    hold) state of each id and the arcs' :class:`IntArcs`, filled in the
    same pass from integer tables of the cumulative values and flows."""
    cum_v = cumulative_values(inst)
    cum_f = cumulative_flows(inst)
    T = inst.periods
    ids: list[dict[State, int]] = []
    sink = 0
    for layer in layers:
        ids.append({s: sink + k for k, s in enumerate(layer)})
        sink += len(layer)
    # integers on common multiples of all cumulative values (sums of
    # price * power + shift * flow, see value_table) and flows; _lowest
    # brings them to the lcms over the arcs
    shift = inst.water_value_downstream - inst.water_value_upstream
    dv = lcm(*(q.denominator for q in inst.prices)) * lcm(*(p.power.denominator for p in inst.points))
    dv = lcm(dv, shift.denominator * lcm(*(p.flow.denominator for p in inst.points)))
    df = lcm(*(f.denominator for f in cum_f))
    flow = [f.numerator * (df // f.denominator) for f in cum_f]
    arcs: list[Arc] = []
    dst, val, res = [], [], []  # the IntArcs lists
    for t in range(T):
        nxt = ids[t + 1]
        succ = moves[t]
        values = cum_v[t]  # period t + 1
        for s, u in ids[t].items():
            for m in succ[s]:
                v = nxt[m]
                i = m[0]
                q = values[i]
                arcs.append(Arc(u, v, q, cum_f[i]))
                dst.append(v)
                val.append(q.numerator * (dv // q.denominator))
                res.append(flow[i])
    for u in ids[T].values():
        arcs.append(Arc(u, sink, ZERO, ZERO))
        dst.append(sink)
        val.append(0)
        res.append(0)
    states = [(t, i, l) for t, layer in enumerate(layers) for i, l in layer]
    states.append((T + 1, 0, 0))
    val, dv = _lowest(val, dv)
    res, dr = _lowest(res, df)
    return arcs, states, IntArcs(dst, val, res, dv, dr)


def _lowest(ints: list[int], scale: int) -> tuple[list[int], int]:
    """Integers ``q * scale`` on the lcm of the denominators of the ``q``:
    for ``q = n/d`` in lowest terms ``gcd(scale, n * scale/d) = scale/d``,
    and the gcd of those is ``scale`` over that lcm."""
    g = gcd(scale, *ints)
    return (ints if g == 1 else [x // g for x in ints]), scale // g


def _labels(states: Iterable[tuple[int, int, int]], periods: int) -> list[str]:
    return ["s" if t == 0 else "p" if t > periods else f"t{t}i{i}l{l}" for t, i, l in states]


def reached_graph(inst: HucInstance) -> tuple[WindowedDag, VertexMap]:
    """The instance's s-p graph: the source, the (t, i, l) states the
    initial state reaches in that order, then the sink, with an arc for
    every legal move; each vertex has its period's window, and reaches
    the sink by staying put. The CLI's reference algorithms, ``validate``
    and the benchmark baselines read it; it is independent of
    :func:`_solve_graph`'s hulls, so they cross-check the solve."""
    return _reach(inst, grid=False)


def build_graph(inst: HucInstance) -> tuple[WindowedDag, VertexMap]:
    """The full (period, level, hold) grid, the model view that gate c07
    pins: :func:`reached_graph`, then every grid state it does not
    reach, in (t, i, l) order and with no arcs."""
    return _reach(inst, grid=True)


def _reach(inst: HucInstance, grid: bool) -> tuple[WindowedDag, VertexMap]:
    # reached_graph, plus the unreached grid states when ``grid``; every
    # arc goes from a smaller id to a larger one, so ids are the topo order
    inst.check()
    T = inst.periods
    moves = _Moves(inst, cumulative_flows(inst))
    layers = [[(inst.initial_point, inst.initial_hold)]]
    for _ in range(T):
        layers.append(sorted({m for s in layers[-1] for m in moves[s]}))
    arcs, states, ints = _emit(inst, layers, [moves] * T)
    sink = len(states) - 1
    if grid:
        cells = [(i, l) for i in range(inst.levels) for l in range(1 - inst.min_updown, inst.min_updown)]
        reached = [set(layer) for layer in layers]
        states += [(t, i, l) for t in range(1, T + 1) for i, l in cells if (i, l) not in reached[t]]
    # one shared window per period; the sink's is the last period's
    period = [Window(ZERO, None)] + [Window(lo, hi) for lo, hi in zip(inst.win_lo, inst.win_hi)]
    windows = [period[min(t, T)] for t, _, _ in states]
    dag = WindowedDag(windows, arcs, 0, sink, labels=_labels(states, T), topo_order=range(len(states)))
    dag._int_arcs = ints
    return dag, VertexMap(T, states)


def _solve_graph(inst: HucInstance, deadline: Optional[float] = None) -> Optional[tuple[WindowedDag, VertexMap]]:
    """Compile only the window-feasible part of the grid, or return None
    when no schedule can meet the windows.

    Cumulative flows are scaled to integers by the lcm ``scale`` of their
    denominators, and each period's window to the integers it admits. A
    forward pass gives each state the hull of the scaled cumulative flow
    that window-feasible prefixes reach; a backward pass from the last
    period keeps, within it, the hull from which the last period is still
    reached inside the windows. The graph keeps the states with a
    non-empty hull, numbered as in :func:`reached_graph`, and the moves
    ``(s, m)`` along which ``hull(s) + flow`` meets ``hull(m)``; each
    vertex's window is its hull, one shared :class:`Window` per distinct
    hull. Every window-feasible schedule stays inside the hulls, and the
    hulls lie inside the windows, so the graph has the same feasible
    schedules, values and optimum as the full grid. The integer arcs and
    windows the solver reads come from the same integers."""
    inst.check()
    T = inst.periods
    cum_f = cumulative_flows(inst)
    scale = lcm(*(f.denominator for f in cum_f))
    flow = [f.numerator * (scale // f.denominator) for f in cum_f]
    moves = _Moves(inst, cum_f)

    def on_time() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceeded("HUC compile hit its deadline")

    # forward: [lo[t][s], hi[t][s]] is what window-feasible prefixes reach
    start = (inst.initial_point, inst.initial_hold)
    lo: list[dict[State, int]] = [{start: 0}]
    hi: list[dict[State, int]] = [{start: 0}]
    for t in range(T):
        on_time()
        w_lo = -(-inst.win_lo[t].numerator * scale // inst.win_lo[t].denominator)
        w_hi = inst.win_hi[t].numerator * scale // inst.win_hi[t].denominator
        nlo: dict[State, int] = {}
        nhi: dict[State, int] = {}
        his = hi[t]
        for s, a in lo[t].items():
            b = his[s]
            for m in moves[s]:
                f = flow[m[0]]
                x, y = a + f, b + f
                x, y = x if x > w_lo else w_lo, y if y < w_hi else w_hi
                if x <= y:
                    c = nlo.get(m)
                    if c is None or x < c:
                        nlo[m] = x
                    if c is None or y > nhi[m]:
                        nhi[m] = y
        if not nlo:
            return None
        lo.append(nlo)
        hi.append(nhi)
    # backward: within each forward hull, what still reaches period T
    # inside the windows (period T's hulls already lie in the sink window).
    # A move (s, m) keeps a piece of hull(s) exactly when hull(s) + flow
    # meets hull(m), so the moves that do are the arcs.
    kept: list[dict[State, list[State]]] = [{} for _ in range(T)]
    for t in range(T - 1, -1, -1):
        on_time()
        nlo, nhi = lo[t + 1], hi[t + 1]
        klo: dict[State, int] = {}
        khi: dict[State, int] = {}
        his = hi[t]
        arcs_out = kept[t]
        for s, a in lo[t].items():
            b = his[s]
            out = []
            for m in moves[s]:
                c = nlo.get(m)
                if c is not None:
                    f = flow[m[0]]
                    x, y = c - f, nhi[m] - f
                    x, y = x if x > a else a, y if y < b else b
                    if x <= y:
                        if not out or x < x0:
                            x0 = x
                        if not out or y > y0:
                            y0 = y
                        out.append(m)
            if out:
                klo[s], khi[s], arcs_out[s] = x0, y0, out
        if not klo:
            return None
        lo[t] = klo
        hi[t] = khi

    layers = [sorted(layer) for layer in lo]
    arcs, states, ints = _emit(inst, layers, kept)
    hulls = [(lo[t][s], hi[t][s]) for t, layer in enumerate(layers) for s in layer]
    hulls.append((min(lo[T].values()), max(hi[T].values())))  # the sink's
    # one Window per distinct hull, one Fraction per distinct end
    distinct = set(hulls)
    ends = {x: Fraction(x, scale) for x in {x for hull in distinct for x in hull}}
    shared = {hull: Window(ends[hull[0]], ends[hull[1]]) for hull in distinct}
    windows = [shared[hull] for hull in hulls]
    dag = WindowedDag(windows, arcs, 0, len(states) - 1, labels=_labels(states, T), topo_order=range(len(states)))
    dag._int_arcs = ints
    # the arcs' resource scale dr divides ``scale``
    k = scale // ints.dr
    dag._int_windows = ([-(-a // k) for a, _ in hulls], [b // k for _, b in hulls])
    return dag, VertexMap(T, states)


def _hold_clock(inst: HucInstance) -> tuple[int, int]:
    """Periods of the last move up and down inherited from the previous
    day, placed so that a reversal is allowed from period
    ``abs(initial_hold) + 1`` on. A direction with no inherited move is
    dated at period ``-min_updown``, so from period 1 on a move the other
    way is free, however long the hold."""
    never = -inst.min_updown
    if inst.initial_hold > 0:
        return inst.initial_hold - inst.min_updown + 1, never
    if inst.initial_hold < 0:
        return never, 1 - inst.min_updown - inst.initial_hold
    return never, never


def _step(
    inst: HucInstance, flows: Sequence[Fraction], t: int, level: int, lvl: int, last_up: int, last_down: int
) -> tuple[Optional[str], int, int]:
    """Ramp and hold rules of moving from ``level`` to ``lvl`` in period
    ``t``, given the periods of the last moves up and down. Returns the
    violated rule name (or None) and the updated move periods. Reads
    instance data only, never the compiled graph."""
    if not 0 <= lvl < inst.levels:
        return "order", last_up, last_down
    if lvl > level:
        if flows[lvl] - flows[level] > inst.ramp_up:
            return "ramp_up", last_up, last_down
        if t - last_down < inst.min_updown:
            return "min_up", last_up, last_down
        return None, t, last_down
    if lvl < level:
        if flows[level] - flows[lvl] > inst.ramp_down:
            return "ramp_down", last_up, last_down
        if t - last_up < inst.min_updown:
            return "min_down", last_up, last_down
        return None, last_up, t
    return None, last_up, last_down


def _broken_rule(inst: HucInstance, steps: Iterable[tuple[int, int]]) -> Optional[str]:
    """First ramp or hold rule a sequence of (period, level) steps breaks,
    walked from the inherited state; None when it keeps them all."""
    flows = cumulative_flows(inst)
    last_up, last_down = _hold_clock(inst)
    level = inst.initial_point
    for t, lvl in steps:
        rule, last_up, last_down = _step(inst, flows, t, level, lvl, last_up, last_down)
        if rule is not None:
            return rule
        level = lvl
    return None


def check_path_legality(inst: HucInstance, path: Path, vmap: VertexMap) -> Optional[str]:
    """Re-derive the (period, level) sequence and verify ramp and hold
    rules from periods alone, never reading the hold coordinate. Returns
    the violated rule name, or None."""
    states = [vmap.state_of(v) for v in path.vertices()]
    for (t1, _, _), (t2, _, _) in zip(states, states[1:]):
        if t2 != t1 + 1:
            return "order"
    return _broken_rule(inst, ((t, lvl) for t, lvl, _ in states[1:] if t <= inst.periods))


def schedule_is_legal(inst: HucInstance, schedule: Sequence[int]) -> bool:
    """Ramp, hold and window legality of a level-per-period schedule,
    checked directly on the instance data."""
    if len(schedule) != inst.periods or _broken_rule(inst, enumerate(schedule, start=1)) is not None:
        return False
    flows = cumulative_flows(inst)
    cum = ZERO
    for t, lvl in enumerate(schedule):
        cum += flows[lvl]
        if not inst.win_lo[t] <= cum <= inst.win_hi[t]:
            return False
    return True


def _read_schedule(path: Path, vmap: VertexMap) -> tuple[list[int], list[Fraction]]:
    """Level and cumulative flow per period along ``path``, a path of the
    graph that ``vmap`` numbers."""
    schedule: list[int] = []
    volumes: list[Fraction] = []
    for v, r in zip(path.vertices(), path.prefix_resources):
        t, level, _ = vmap.state_of(v)
        if 1 <= t <= vmap.periods:
            schedule.append(level)
            volumes.append(r)
    return schedule, volumes


@dataclass
class HucSolution:
    """Result of :func:`solve_huc`. ``graph_solution`` is the graph solve
    behind the schedule: its path is a path of the solve graph, which
    holds the window-feasible states only, not of :func:`build_graph`'s
    grid. It is None when the window hulls prove the instance infeasible
    before any solve."""

    status: str
    schedule: Optional[list[int]]
    revenue: Optional[Fraction]
    volumes: Optional[list[Fraction]]
    stats: SolveStats
    graph_solution: Optional[AwclppSolution] = None


def nmckp_of_instance(inst: HucInstance) -> NestedMckp:
    """Per-period stage: one item per level with the level's cumulative
    revenue and flow; windows are the cumulative-flow windows."""
    cum_v = cumulative_values(inst)
    cum_f = cumulative_flows(inst)
    stages = tuple(
        tuple(MckpItem(value=cum_v[t][i], weight=cum_f[i]) for i in range(inst.levels))
        for t in range(inst.periods)
    )
    return NestedMckp(stages=stages, lo=tuple(inst.win_lo), hi=tuple(inst.win_hi))


def solve_huc(
    inst: HucInstance,
    *,
    deadline: Optional[float] = None,
    trace_phase1=None,
    trace_phase2=None,
) -> HucSolution:
    """Compile the window-feasible states (see :func:`_solve_graph`) and
    solve the graph with :func:`solve_awclpp` and its default value
    bound; returns the best commitment. The compile checks ``deadline``
    once per period of each hull pass and raises
    :class:`TimeoutExceeded` past it."""
    compiled = _solve_graph(inst, deadline)
    if compiled is None:
        return HucSolution(INFEASIBLE, None, None, None, SolveStats())
    dag, vmap = compiled
    sol = solve_awclpp(dag, deadline=deadline, trace_phase1=trace_phase1, trace_phase2=trace_phase2)
    if sol.status != OPTIMAL:
        return HucSolution(INFEASIBLE, None, None, None, sol.stats, sol)

    path = sol.path
    if path is None:
        raise GraphInvariantError("an optimal solve returned no path")
    schedule, volumes = _read_schedule(path, vmap)
    return HucSolution(OPTIMAL, schedule, path.value, volumes, sol.stats, sol)


def best_schedule_bruteforce(
    inst: HucInstance, deadline: Optional[float] = None
) -> Optional[tuple[Fraction, list[int]]]:
    """Exhaustive enumeration of legal schedules; independent of the graph
    compilation (levels, ramp sums and hold gaps are checked directly).
    Depth-first on an explicit stack, levels in increasing order; the
    first schedule of the highest revenue wins."""
    inst.check()
    cum_v = cumulative_values(inst)
    flows = cumulative_flows(inst)
    best: Optional[tuple[Fraction, list[int]]] = None
    last_up, last_down = _hold_clock(inst)
    # one frame per decided period: level, last moves up and down,
    # cumulative flow, revenue, next level to try after it
    stack = [[inst.initial_point, last_up, last_down, ZERO, ZERO, 0]]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceeded("schedule oracle hit its deadline")
        frame = stack[-1]
        level, last_up, last_down, cum, value, lvl = frame
        t = len(stack) - 1  # periods decided
        if t == inst.periods or lvl == inst.levels:
            if t == inst.periods and (best is None or value > best[0]):
                best = (value, [f[0] for f in stack[1:]])
            stack.pop()
            continue
        frame[5] = lvl + 1
        rule, up, down = _step(inst, flows, t + 1, level, lvl, last_up, last_down)
        if rule is not None:
            continue
        ncum = cum + flows[lvl]
        if inst.win_lo[t] <= ncum <= inst.win_hi[t]:
            stack.append([lvl, up, down, ncum, value + cum_v[t][lvl], 0])
    return best


# -- MILP export -----------------------------------------------------------


def export_milp(inst: HucInstance, out: TextIO) -> None:
    """Write the commitment model as lp_solve-style LP text.

    Level activation is incremental: x_t_i = 1 when the level in period t
    is at least i, so per-point values appear in the objective and the
    point flows in every flow expression. Cumulative-flow windows are
    ranged rows; ramps are split into one row per side; hold rules use
    change indicators v_t_i (defined from period 2 on, with period-1
    terms folded away against the initial state).
    """
    inst.check()
    table = value_table(inst)
    T = inst.periods
    reach = inst.levels - 1  # non-idle points
    L = inst.min_updown

    def x(t: int, i: int) -> str:
        return f"x_{t}_{i}"

    def v(t: int, i: int) -> str:
        return f"v_{t}_{i}"

    def coef(q: Fraction) -> str:
        return decimal_str(q)

    def combine(terms: Iterable[tuple[Fraction, str]]) -> str:
        parts: list[str] = []
        for q, name in terms:
            if q == 0:
                continue
            sign = "-" if q < 0 else "+"
            mag = coef(abs(q))
            if not parts:
                lead = "-" if q < 0 else ""
                parts.append(f"{lead}{mag} {name}")
            else:
                parts.append(f"{sign} {mag} {name}")
        return " ".join(parts) if parts else "0"

    out.write("/* single-plant hydro commitment, incremental level encoding */\n")
    obj = combine(
        (table[t - 1][i], x(t, i)) for t in range(1, T + 1) for i in range(1, reach + 1)
    )
    out.write(f"max: {obj};\n\n")

    for t in range(1, T + 1):
        expr = combine(
            (inst.points[i].flow, x(tp, i))
            for tp in range(1, t + 1)
            for i in range(1, reach + 1)
        )
        out.write(f"flow_{t}: {coef(inst.win_lo[t - 1])} <= {expr} <= {coef(inst.win_hi[t - 1])};\n")

    for t in range(1, T + 1):
        for i in range(1, reach):
            out.write(f"prec_{t}_{i}: {x(t, i)} - {x(t, i + 1)} >= 0;\n")

    for t in range(2, T + 1):
        step = [(inst.points[i].flow, x(t, i)) for i in range(1, reach + 1)] + [
            (-inst.points[i].flow, x(t - 1, i)) for i in range(1, reach + 1)
        ]
        out.write(f"rampup_{t}: {combine(step)} <= {coef(inst.ramp_up)};\n")
        out.write(f"rampdn_{t}: {combine(step)} >= {coef(-inst.ramp_down)};\n")

    for t in range(max(L, 2), T + 1):
        for i in range(1, reach + 1):
            vsum = [(Fraction(1), v(tp, i)) for tp in range(max(t - L + 1, 2), t + 1)]
            out.write(f"minup_{t}_{i}: {combine(vsum + [(Fraction(-1), x(t, i))])} <= 0;\n")
            past = t - L
            if past >= 1:
                rhs = "1"
                lhs = combine(vsum + [(Fraction(1), x(past, i))])
            else:
                # x at period 0 is the initial state, a constant
                base = 1 if inst.initial_point >= i else 0
                rhs = str(1 - base)
                lhs = combine(vsum)
            out.write(f"mindn_{t}_{i}: {lhs} <= {rhs};\n")

    for t in range(2, T + 1):
        for i in range(1, reach + 1):
            expr = combine(
                [(Fraction(1), v(t, i)), (Fraction(-1), x(t, i)), (Fraction(1), x(t - 1, i))]
            )
            out.write(f"vlink_{t}_{i}: {expr} >= 0;\n")

    names = [x(t, i) for t in range(1, T + 1) for i in range(1, reach + 1)]
    names += [v(t, i) for t in range(2, T + 1) for i in range(1, reach + 1)]
    out.write("\nbin " + ", ".join(names) + ";\n")
