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
reversal (positive after a move up, negative after a move down). The
solve pipeline then runs both solver phases on the compiled graph with
a nested multiple-choice knapsack bound plugged in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, TextIO

from .bounds import NMCKP, MckpItem, NestedMckp, UbProvider
from .graph import Arc, Path, TimeoutExceeded, Window, WindowedDag, prune_unreachable
from .phase1 import GraphInvariantError
from .phase2 import SolveStats
from .rational import decimal_str
from .solver import INFEASIBLE, OPTIMAL, AwclppSolution, solve_awclpp

ZERO = Fraction(0)
NEVER = -(10**9)  # "no previous move" sentinel period


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
        out = []
        for row in value_table(inst):
            acc = ZERO
            cum = []
            for w in row:
                acc += w
                cum.append(acc)
            out.append(tuple(cum))
        object.__setattr__(inst, "_cum_values", tuple(out))
    return inst._cum_values


def cumulative_flows(inst: HucInstance) -> list[Fraction]:
    acc = ZERO
    out = []
    for p in inst.points:
        acc += p.flow
        out.append(acc)
    return out


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


@dataclass(frozen=True)
class VertexMap:
    """Dense ids for the compiled graph: source, then (t, i, l) in
    lexicographic order for t in 1..T, then sink."""

    periods: int
    levels: int
    min_updown: int
    initial_point: int
    initial_hold: int

    @property
    def holds(self) -> int:
        return 2 * self.min_updown - 1

    @property
    def count(self) -> int:
        return self.periods * self.levels * self.holds + 2

    def id_of(self, t: int, i: int, l: int) -> int:
        if t == 0:
            return 0
        if t == self.periods + 1:
            return self.count - 1
        span = self.min_updown - 1
        return 1 + (t - 1) * self.levels * self.holds + i * self.holds + (l + span)

    def state_of(self, vid: int) -> tuple[int, int, int]:
        if vid == 0:
            return (0, self.initial_point, self.initial_hold)
        if vid == self.count - 1:
            return (self.periods + 1, 0, 0)
        span = self.min_updown - 1
        k = vid - 1
        t, k = divmod(k, self.levels * self.holds)
        i, l = divmod(k, self.holds)
        return (t + 1, i, l - span)


def build_graph(inst: HucInstance) -> tuple[WindowedDag, VertexMap]:
    """Compile to a windowed DAG. Every (t, i, l) combination is
    materialized, reachable or not; callers prune before solving."""
    inst.check()
    vmap = VertexMap(
        periods=inst.periods,
        levels=inst.levels,
        min_updown=inst.min_updown,
        initial_point=inst.initial_point,
        initial_hold=inst.initial_hold,
    )
    cum_v = cumulative_values(inst)
    cum_f = cumulative_flows(inst)
    span = inst.min_updown - 1
    holds = range(-span, span + 1)
    # successors depend on (level, hold) alone, not on the period: keep
    # each as its level and its id offset within the next period's block
    first = vmap.id_of(1, 0, -span)
    moves = {
        (i, l): [(i2, vmap.id_of(1, i2, l2) - first) for i2, l2 in legal_moves(inst, cum_f, i, l)]
        for i in range(inst.levels)
        for l in holds
    }

    windows: list[Window] = [Window(ZERO, None)]
    labels: list[str] = ["s"]
    for t in range(1, inst.periods + 1):
        for i in range(inst.levels):
            for l in holds:
                windows.append(Window(inst.win_lo[t - 1], inst.win_hi[t - 1]))
                labels.append(f"t{t}i{i}l{l}")
    windows.append(Window(inst.win_lo[-1], inst.win_hi[-1]))
    labels.append("p")

    arcs: list[Arc] = []

    def link(t: int, i: int, l: int) -> None:
        src = vmap.id_of(t, i, l)
        block = vmap.id_of(t + 1, 0, -span)
        values = cum_v[t]  # period t + 1
        for i2, offset in moves[(i, l)]:
            arcs.append(Arc(src, block + offset, values[i2], cum_f[i2]))

    link(0, inst.initial_point, inst.initial_hold)
    for t in range(1, inst.periods):
        for i in range(inst.levels):
            for l in holds:
                link(t, i, l)
    sink = vmap.id_of(inst.periods + 1, 0, 0)
    for i in range(inst.levels):
        for l in holds:
            arcs.append(Arc(vmap.id_of(inst.periods, i, l), sink, ZERO, ZERO))

    dag = WindowedDag(windows, arcs, 0, sink, labels=labels)
    return dag, vmap


def _hold_clock(inst: HucInstance) -> tuple[int, int]:
    """Periods of the last move up and down inherited from the previous
    day (``NEVER`` for none), placed so that a reversal is allowed from
    period ``abs(initial_hold) + 1`` on."""
    if inst.initial_hold > 0:
        return inst.initial_hold - inst.min_updown + 1, NEVER
    if inst.initial_hold < 0:
        return NEVER, 1 - inst.min_updown - inst.initial_hold
    return NEVER, NEVER


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


def _read_schedule(
    path: Path, vmap: VertexMap, old_of_new: Sequence[int]
) -> tuple[list[int], list[Fraction]]:
    """Level and cumulative flow per period along ``path``, a path of the
    pruned graph whose vertex ``v`` is ``old_of_new[v]`` in ``vmap``."""
    schedule: list[int] = []
    volumes: list[Fraction] = []
    for v, r in zip(path.vertices(), path.prefix_resources):
        t, level, _ = vmap.state_of(old_of_new[v])
        if 1 <= t <= vmap.periods:
            schedule.append(level)
            volumes.append(r)
    return schedule, volumes


@dataclass
class HucSolution:
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
    """Compile, prune, and solve with the NMCKP value bound; returns the
    best commitment."""
    full, vmap = build_graph(inst)
    dag, old_of_new = prune_unreachable(full)
    stage_of_vertex = {v: min(vmap.state_of(old)[0], inst.periods) for v, old in enumerate(old_of_new)}
    provider = UbProvider(mode=NMCKP, mckp=nmckp_of_instance(inst), stage_of_vertex=stage_of_vertex)

    sol = solve_awclpp(
        dag,
        ub_provider=provider,
        deadline=deadline,
        trace_phase1=trace_phase1,
        trace_phase2=trace_phase2,
    )
    if sol.status != OPTIMAL:
        return HucSolution(INFEASIBLE, None, None, None, sol.stats, sol)

    path = sol.path
    if path is None:
        raise GraphInvariantError("an optimal solve returned no path")
    schedule, volumes = _read_schedule(path, vmap, old_of_new)
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
