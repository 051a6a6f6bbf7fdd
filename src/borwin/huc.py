"""Single-plant hydro unit commitment: model, graph compilation, MILP export.

A plant runs at one of a fixed ladder of operating levels per period.
Level i means points 1..i are active, so the period flow and revenue are
cumulative sums over the ladder. Moves up/down the ladder are limited by
ramp bounds, and after a move the level must hold for a minimum number
of periods before moving the other way. Cumulative water flow since the
start must stay inside per-period windows; the last period's window is
the target-volume constraint that makes instances hard.

An instance is one integer model, :class:`HucTables`: flows, powers,
ramps, prices, water values and windows, each field on the lcm of its
denominators, checked once at construction. The loader and the
generator build it from ``(num, den)`` pairs
(:meth:`HucInstance.of_ratios`), the writer reads it, and the price and
window lists' Fractions are views made only when read. The legality
oracle (:func:`schedule_is_legal`, :func:`best_schedule_bruteforce`)
reads the tables too, comparing cross-multiplied integers, so it rounds
nothing and stays independent of the compiles' rounded caps.

Compilation produces a windowed DAG whose vertices are (period, level,
hold) triples: ``hold`` counts the periods still to wait before a
reversal (positive after a move up, negative after a move down). Two
compiles share one numbering-and-arc emitter and one integer rule
table, :class:`_Moves`: the cumulative flows and ramp caps on the flow
scale, and the moves by integer state code, filled lazily so that no
compile grows with ``min_updown`` past the horizon; the generator walks
the same table. The emitter writes the arcs'
:class:`~borwin.graph.IntArcs` from the tables' prices, powers and water
values and the rule table's flows, the graph's Fraction arcs are a view
of them, and a ``Window`` or label is made only when one is read (see
:meth:`WindowedDag.of_ints <borwin.graph.WindowedDag.of_ints>`).
:func:`reached_graph` is the instance's s-p graph, which the reference
algorithms read; :func:`build_graph`, the model view gate c07 pins,
appends the unreached grid states to it. :func:`solve_huc` compiles only
the window-feasible states: one exact integer hull record of the
cumulative flow per state, propagated forward from the initial state and
narrowed backward from the last period, drops every state and move no
window-feasible schedule uses and proves some instances infeasible before
any arc is emitted.
:func:`~borwin.solver.solve_tight` solves that graph with the same
default value bound as any windowed DAG and without the presolve, which
would still cut a few arcs but costs more than it saves there; a solve
makes no ``Arc``, reads only the sink's ``Window`` and no Fraction field
of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import gt
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TextIO

from .bounds import MckpItem, NestedMckp
from .graph import (
    IntArcs,
    LazyTuple,
    Path,
    Window,
    WindowedDag,
    check_deadline,
    prune_unreachable,  # noqa: F401  perfbench hooks huc.prune_unreachable; see test_layer_self_times_sum_to_the_traced_solve_span
)
from .phase1 import GraphInvariantError
from .phase2 import SolveStats
from .rational import Ratio, decimal_str
from .solver import INFEASIBLE, OPTIMAL, AwclppSolution, solve_tight

ZERO = Fraction(0)


class InvalidInstance(Exception):
    pass


@dataclass(frozen=True)
class OperatingPoint:
    flow: Fraction
    power: Fraction


class HucTables(NamedTuple):
    """A commitment instance's rationals as integers, each field on its own
    scale, the lcm of its values' reduced denominators, so that equal
    instances have equal tables: point ``i`` has flow ``flow[i] / df``
    and power ``power[i] / dw``; the ramp bounds up and down are
    ``ramp[0] / dramp`` and ``ramp[1] / dramp``; period ``t + 1`` has price
    ``price[t] / dp`` and window ``[lo[t] / dwin, hi[t] / dwin]``; the
    water values upstream and downstream are ``water[0] / dwater`` and
    ``water[1] / dwater``."""

    flow: tuple[int, ...]
    df: int
    power: tuple[int, ...]
    dw: int
    ramp: tuple[int, ...]
    dramp: int
    price: tuple[int, ...]
    dp: int
    water: tuple[int, ...]
    dwater: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    dwin: int


def _on_scale(ratios: Sequence[Ratio]) -> tuple[tuple[int, ...], int]:
    """Rationals given as ``(num, den)`` pairs, ``den > 0`` and not
    necessarily in lowest terms, as integers on the lcm of their reduced
    denominators, and that lcm (see :func:`_lowest`)."""
    scale = lcm(*{d for _, d in ratios})
    ints, scale = _lowest([n * (scale // d) for n, d in ratios], scale)
    return tuple(ints), scale


def _view(ints: Sequence[int], scale: int) -> tuple[Fraction, ...]:
    """The Fractions ``x / scale`` of ``ints``, one per distinct value: the
    one place an instance's Fraction lists are made."""
    made = {x: Fraction(x, scale) for x in set(ints)}
    return tuple(map(made.__getitem__, ints))


class _Fractions(LazyTuple):
    """The Fractions ``ints[k] / scale`` as a view: an instance's
    ``prices``, ``win_lo`` or ``win_hi``, made by :func:`_view` on first
    read and then kept."""

    __slots__ = ("ints", "scale")

    def __init__(self, ints: tuple[int, ...], scale: int):
        super().__init__(len(ints), lambda k: Fraction(ints[k], scale))
        self.ints, self.scale = ints, scale

    def items(self) -> tuple:
        if self._items is None:
            self._items = _view(self.ints, self.scale)
        return self._items

    def __repr__(self) -> str:
        return repr(self.items())

    def __reduce__(self):
        return _Fractions, (self.ints, self.scale)


def _ratio(q: Fraction) -> Ratio:
    return q.numerator, q.denominator


def _checked(
    periods: int,
    points: Sequence[tuple[Ratio, Ratio]],
    ramp_up: Ratio,
    ramp_down: Ratio,
    min_updown: int,
    prices: Sequence[Ratio],
    water_value_upstream: Ratio,
    water_value_downstream: Ratio,
    win_lo: Sequence[Ratio],
    win_hi: Sequence[Ratio],
    initial_point: int = 0,
    initial_hold: int = 0,
) -> tuple[dict, HucTables]:
    """A :class:`HucInstance`'s fields and tables from its rationals as
    ``(num, den)`` pairs, checked on the tables: the one route both the
    constructor and :meth:`HucInstance.of_ratios` store."""
    flow, df = _on_scale([f for f, _ in points])
    power, dw = _on_scale([w for _, w in points])
    price, dp = _on_scale(prices)
    windows, dwin = _on_scale([*win_lo, *win_hi])
    lo, hi = windows[: len(win_lo)], windows[len(win_lo) :]
    if periods < 1:
        raise InvalidInstance("need at least one period")
    if not flow or flow[0] or power[0]:
        raise InvalidInstance("points must start with the idle point (0, 0)")
    if min(flow[1:], default=1) <= 0:
        raise InvalidInstance("non-idle points need positive flow")
    if min_updown < 1:
        raise InvalidInstance("minimum hold must be at least one period")
    if len(price) != periods:
        raise InvalidInstance("one price per period required")
    if len(lo) != periods or len(hi) != periods:
        raise InvalidInstance("one window per period required")
    if any(map(gt, lo, hi)):
        t = next(t for t, (a, b) in enumerate(zip(lo, hi), start=1) if a > b)
        raise InvalidInstance(f"window at period {t} is inverted")
    if not 0 <= initial_point < len(flow):
        raise InvalidInstance("initial point out of range")
    if abs(initial_hold) > min_updown - 1:
        raise InvalidInstance("initial hold out of range")
    ramp, dramp = _on_scale([ramp_up, ramp_down])
    water, dwater = _on_scale([water_value_upstream, water_value_downstream])
    # exactly the constructor's arguments, so HucInstance(**inst.__dict__) rebuilds it
    fields = dict(
        periods=periods,
        points=tuple(OperatingPoint(Fraction(f, df), Fraction(w, dw)) for f, w in zip(flow, power)),
        ramp_up=Fraction(ramp[0], dramp),
        ramp_down=Fraction(ramp[1], dramp),
        min_updown=min_updown,
        prices=_Fractions(price, dp),
        water_value_upstream=Fraction(water[0], dwater),
        water_value_downstream=Fraction(water[1], dwater),
        win_lo=_Fractions(lo, dwin),
        win_hi=_Fractions(hi, dwin),
        initial_point=initial_point,
        initial_hold=initial_hold,
    )
    return fields, HucTables(flow, df, power, dw, ramp, dramp, price, dp, water, dwater, lo, hi, dwin)


@dataclass(frozen=True, eq=False)
class HucInstance:
    """Problem data. ``points`` starts with the idle point (0, 0); prices
    are per period; ``water_value_up/downstream`` price the stock left in
    each reservoir at the end of the horizon. ``win_lo/win_hi`` bound the
    cumulative flow through each period. ``initial_point``/``initial_hold``
    carry the state inherited from the previous day.

    An instance holds its rationals as integer :class:`HucTables`,
    ``tables``, and is checked once on them: construction, through
    ``dataclasses.replace`` too, raises :class:`InvalidInstance` on
    inconsistent data, so no function that takes an instance checks it.
    The constructor takes Fractions (or ints), :meth:`of_ratios` takes
    ``(num, den)`` pairs; both give equal instances with equal hashes.
    ``prices``, ``win_lo`` and ``win_hi`` are views of the tables whose
    Fractions are made on first read; the other fields are made at
    construction."""

    __slots__ = ("tables", "__dict__")

    periods: int
    points: tuple[OperatingPoint, ...]
    ramp_up: Fraction
    ramp_down: Fraction
    min_updown: int
    prices: Sequence[Fraction]
    water_value_upstream: Fraction
    water_value_downstream: Fraction
    win_lo: Sequence[Fraction]
    win_hi: Sequence[Fraction]
    initial_point: int = 0
    initial_hold: int = 0

    def __post_init__(self) -> None:
        self._store(
            *_checked(
                self.periods,
                [(_ratio(p.flow), _ratio(p.power)) for p in self.points],
                _ratio(self.ramp_up),
                _ratio(self.ramp_down),
                self.min_updown,
                list(map(_ratio, self.prices)),
                _ratio(self.water_value_upstream),
                _ratio(self.water_value_downstream),
                list(map(_ratio, self.win_lo)),
                list(map(_ratio, self.win_hi)),
                self.initial_point,
                self.initial_hold,
            )
        )

    @classmethod
    def of_ratios(cls, *args, **kwargs) -> "HucInstance":
        """The instance whose rationals are ``(num, den)`` pairs with
        positive denominators, each point a (flow, power) pair, the
        arguments named and ordered as the constructor's: the
        constructor's instance of the same values, built with no
        Fraction list (the JSON loader, the generator)."""
        inst = cls.__new__(cls)
        inst._store(*_checked(*args, **kwargs))
        return inst

    def _store(self, fields: dict, tables: HucTables) -> None:
        # past the frozen __setattr__; pickle and copy restore through here too
        self.__dict__.update(fields)
        object.__setattr__(self, "tables", tables)

    def __setstate__(self, state: tuple[dict, dict]) -> None:
        fields, slots = state
        self._store(fields, slots["tables"])

    def _key(self) -> tuple:
        return self.periods, self.min_updown, self.initial_point, self.initial_hold, self.tables

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def levels(self) -> int:
        return len(self.tables.flow)


def value_table(inst: HucInstance) -> list[list[Fraction]]:
    """Per-point revenue: price * power plus the water value transferred
    downstream by the point's flow. Indexed [t-1][i]."""
    shift = inst.water_value_downstream - inst.water_value_upstream
    return [
        [price * p.power + shift * p.flow for p in inst.points]
        for price in inst.prices
    ]


def cumulative_values(inst: HucInstance) -> tuple[tuple[Fraction, ...], ...]:
    """Revenue of running at level i in period t (points 1..i active)."""
    return tuple(tuple(accumulate(row)) for row in value_table(inst))


def cumulative_flows(inst: HucInstance) -> list[Fraction]:
    return list(accumulate(p.flow for p in inst.points))


class VertexMap:
    """A compiled graph's vertices by id: :meth:`state_of` gives the
    (period, level, hold) state of a vertex, from the period and state
    code (see :class:`_Moves`) that the compile keeps per vertex, and
    ``states`` holds them all, built on first read. The source is the
    inherited state at period 0 and the sink is ``(T + 1, 0, 0)``;
    :meth:`id_of` maps every period-0 state to the source and every
    period-``T + 1`` state to the sink, from a dict built on first use."""

    __slots__ = ("periods", "states", "_period", "_code", "_span", "_ids")

    def __init__(self, inst: HucInstance, period: list[int], code: list[int]):
        self.periods = inst.periods
        self._period, self._code = period, code
        self._span = inst.min_updown - 1
        self.states = LazyTuple(len(code), self.state_of)
        self._ids: Optional[dict[tuple[int, int, int], int]] = None

    @property
    def count(self) -> int:
        return len(self._code)

    def id_of(self, t: int, i: int, l: int) -> int:
        if t == 0:
            return 0
        if self._ids is None:
            self._ids = {s: v for v, s in enumerate(self.states)}
        return self._ids[(t, 0, 0) if t == self.periods + 1 else (t, i, l)]

    def state_of(self, vid: int) -> tuple[int, int, int]:
        return (self._period[vid], *_state(self._code[vid], self._span))


class _Moves(dict):
    """The ramp and hold rules on integers, with no Fraction arithmetic:
    ``flow`` holds the points' cumulative flows (points 1..i active) on
    the flow scale ``df``, and ``up`` and ``down`` the ramp caps on it,
    the largest cumulative-flow step up and down a ramp allows.
    :meth:`of` reads an instance's tables, once per compile; the
    generator builds the table from its integer draws. As a dict it maps
    a state code to its successors, filled on first lookup: moves do not
    depend on the period, and schedules reach few of the holds. State
    ``(level, hold)`` has code ``level * (2L - 1) + hold + L - 1`` for
    ``L = min_updown``, so codes sort as the states do. An entry lists
    ``(code, level)`` pairs: the level held, then the levels up in
    ascending order, then the levels down in descending order."""

    def __init__(self, flow: list[int], df: int, up: int, down: int, min_updown: int):
        self.flow, self.df, self.up, self.down, self.span = flow, df, up, down, min_updown - 1

    @classmethod
    def of(cls, inst: HucInstance) -> "_Moves":
        """The rules of ``inst``: its cumulative flows on its flow scale, and
        the caps ``floor(ramp * df)``, exact since the flows are integers
        on ``df``."""
        t = inst.tables
        up, down = (r * t.df // t.dramp for r in t.ramp)
        return cls(list(accumulate(t.flow)), t.df, up, down, inst.min_updown)

    def code(self, level: int, hold: int) -> int:
        return level * (2 * self.span + 1) + hold + self.span

    def __missing__(self, s: int) -> list[tuple[int, int]]:
        flow, span = self.flow, self.span
        level, hold = _state(s, span)
        # the entry itself, extended in place by the moves up and down
        out = self[s] = [(self.code(level, hold - 1 if hold > 0 else hold + 1 if hold < 0 else 0), level)]
        if hold >= 0:
            cap = flow[level] + self.up
            out += [(self.code(lvl, span), lvl) for lvl in range(level + 1, len(flow)) if flow[lvl] <= cap]
        if hold <= 0:
            low = flow[level] - self.down
            out += [(self.code(lvl, -span), lvl) for lvl in range(level - 1, -1, -1) if flow[lvl] >= low]
        return out


def _state(code: int, span: int) -> tuple[int, int]:
    """The (level, hold) state of a state code, for ``span = L - 1``."""
    level, h = divmod(code, 2 * span + 1)
    return level, h - span


def _value_ints(inst: HucInstance, moves: _Moves) -> tuple[list[tuple[int, ...]], int]:
    """:func:`cumulative_values` on a common multiple ``dv`` of their
    denominators, and ``dv``, read from the instance's tables: the value
    of level ``i`` in period ``t`` is price ``t`` times the cumulative
    power of points 1..i plus the water-value shift times their
    cumulative flow (see :func:`value_table`), the flow read from
    ``moves``."""
    t, flow, df = inst.tables, moves.flow, moves.df
    shift = t.water[1] - t.water[0]
    dv = lcm(t.dp * t.dw, t.dwater * df)
    a, b = dv // (t.dp * t.dw), dv // (t.dwater * df) * shift
    levels = [[q * a * w + b * f for q in t.price] for w, f in zip(accumulate(t.power), flow)]
    return list(zip(*levels)), dv


def _emit(
    inst: HucInstance,
    table: _Moves,
    layers: Sequence[Iterable[int]],
    moves: Sequence[dict[int, list[tuple[int, int]]]],
    deadline: Optional[float] = None,
) -> tuple[IntArcs, list[range], list[int], list[int]]:
    """Number the states of ``layers`` (period 0 to T, each a collection
    of state codes) consecutively in period and code order, then the
    sink, and emit in the same pass an arc for each move ``(m, i)`` in
    ``moves[t][s]`` from a period-``t`` state ``s`` (every such ``m``
    lies in the next period's layer), plus an arc from every period-T
    state to the sink. Returns the arcs' :class:`IntArcs`, grouped by
    source in id order, with values from :func:`_value_ints` and
    resources from ``table``'s cumulative flows, the compile's own
    :class:`_Moves`; each vertex's range of out-arc ids; and each
    vertex's period and state code. All per-vertex work runs inside the
    per-period deadline checks."""
    T = inst.periods
    values, dv = _value_ints(inst, table)
    flow, df = table.flow, table.df
    src: list[int] = []
    dst: list[int] = []
    val: list[int] = []
    res: list[int] = []
    out: list[range] = []
    period: list[int] = []
    code: list[int] = []
    base = 0
    layer = sorted(layers[0])
    for t in range(T):
        check_deadline(deadline, "HUC compile")
        period += [t] * len(layer)
        code += layer
        following = sorted(layers[t + 1])
        ids = {m: v for v, m in enumerate(following, base + len(layer))}
        succ, row = moves[t], values[t]
        for u, s in enumerate(layer, base):
            start = len(dst)
            for m, i in succ[s]:
                src.append(u)
                dst.append(ids[m])
                val.append(row[i])
                res.append(flow[i])
            out.append(range(start, len(dst)))
        base += len(layer)
        layer = following
    sink = base + len(layer)
    m = len(dst)
    period += [T] * len(layer) + [T + 1]
    code += [*layer, table.code(0, 0)]  # the sink
    out += [range(k, k + 1) for k in range(m, m + len(layer))]
    out.append(range(0))  # the sink's
    src += range(base, sink)
    dst += [sink] * len(layer)
    val += [0] * len(layer)
    res += [0] * len(layer)
    val, dv = _lowest(val, dv)
    res, dr = _lowest(res, df)
    return IntArcs(src, dst, val, res, dv, dr), out, period, code


def _lowest(ints: list[int], scale: int) -> tuple[list[int], int]:
    """Integers ``q * scale`` on the lcm of the denominators of the ``q``:
    for ``q = n/d`` in lowest terms ``gcd(scale, n * scale/d) = scale/d``,
    and the gcd of those is ``scale`` over that lcm."""
    g = gcd(scale, *ints)
    return (ints if g == 1 else [x // g for x in ints]), scale // g


def _rescaled(lo: Sequence[int], hi: Sequence[int], to: int, scale: int) -> tuple[Sequence[int], Sequence[int]]:
    """Integer windows on ``scale``, on the scale ``to`` instead:
    ``ceil(lo * to / scale)`` and ``floor(hi * to / scale)``. Exact for
    windows that are exact on ``scale``, and for windows rounded onto it
    when ``to`` divides ``scale``, as ``ceil(ceil(x * scale) / k) = ceil(x
    * to)`` (and likewise floor) for ``k = scale / to``."""
    if to == scale:
        return lo, hi
    return [-(-a * to // scale) for a in lo], [b * to // scale for b in hi]


def _graph(
    inst: HucInstance,
    ints: IntArcs,
    windows: tuple[list[int], list[int]],
    out: list[range],
    sink: int,
    period: list[int],
    code: list[int],
    window: Callable[[int], Window],
) -> tuple[WindowedDag, VertexMap]:
    """The compiled instance on the integer arrays of :func:`_emit`, and its
    vertex map. Its Fraction arcs are a view of ``ints``: an arc into a
    period-t state at level i has value ``cumulative_values(inst)[t - 1][i]``
    and resource ``cumulative_flows(inst)[i]``, one into the sink zero.
    ``window(v)`` is vertex ``v``'s exact window."""
    T = inst.periods
    vmap = VertexMap(inst, period, code)

    def label(v: int) -> str:
        t, i, l = vmap.state_of(v)
        return "s" if t == 0 else "p" if t > T else f"t{t}i{i}l{l}"

    n = len(out)
    dag = WindowedDag.of_ints(ints, windows, 0, sink, window, LazyTuple(n, label), out, range(n))
    return dag, vmap


def reached_graph(inst: HucInstance, deadline: Optional[float] = None) -> tuple[WindowedDag, VertexMap]:
    """The instance's s-p graph: the source, the (t, i, l) states the
    initial state reaches in that order, then the sink, with an arc for
    every legal move; each vertex has its period's window, and reaches
    the sink by staying put. The CLI's reference algorithms, ``validate``
    and the benchmark baselines read it; it is independent of
    :func:`_solve_graph`'s hulls, so they cross-check the solve. Its
    passes check ``deadline`` once per period and between its last
    steps, as :func:`solve_huc`'s do."""
    return _reach(inst, grid=False, deadline=deadline)


def build_graph(inst: HucInstance) -> tuple[WindowedDag, VertexMap]:
    """The full (period, level, hold) grid, the model view that gate c07
    pins: :func:`reached_graph`, then every grid state it does not
    reach, in (t, i, l) order and with no arcs."""
    return _reach(inst, grid=True)


def _reach(inst: HucInstance, grid: bool, deadline: Optional[float] = None) -> tuple[WindowedDag, VertexMap]:
    """:func:`reached_graph`, plus the unreached grid states when ``grid``,
    on one :class:`_Moves` table; every arc goes from a smaller id to a
    larger one, so ids are the topo order."""
    T = inst.periods
    moves = _Moves.of(inst)
    layers = [{moves.code(inst.initial_point, inst.initial_hold)}]
    for _ in range(T):
        check_deadline(deadline, "HUC compile")
        layers.append({m for s in layers[-1] for m, _ in moves[s]})
    ints, out, period, code = _emit(inst, moves, layers, [moves] * T, deadline)
    check_deadline(deadline, "HUC compile")
    sink = len(code) - 1
    if grid:
        for t in range(1, T + 1):
            extra = [c for c in range(inst.levels * (2 * inst.min_updown - 1)) if c not in layers[t]]
            period += [t] * len(extra)
            code += extra
        out += [range(0)] * (len(code) - sink - 1)
    # each period's window on the arcs' resource scale; the source's is
    # [0, inf), with a bound past the total of the (nonnegative) resources
    # for inf, and the sink's the last period's
    wlo, whi = _rescaled(inst.tables.lo, inst.tables.hi, ints.dr, inst.tables.dwin)
    plo, phi = [0, *wlo, wlo[-1]], [sum(ints.res) + 1, *whi, whi[-1]]
    ilo = list(map(plo.__getitem__, period))
    check_deadline(deadline, "HUC compile")
    ihi = list(map(phi.__getitem__, period))
    check_deadline(deadline, "HUC compile")

    def period_window(t: int) -> Window:
        return Window(ZERO, None) if t == 0 else Window(inst.win_lo[t - 1], inst.win_hi[t - 1])

    # one Window per period, shared by its states once read
    shared = LazyTuple(T + 1, period_window)
    return _graph(inst, ints, (ilo, ihi), out, sink, period, code, lambda v: shared[min(period[v], T)])


def _solve_graph(inst: HucInstance, deadline: Optional[float] = None) -> Optional[tuple[WindowedDag, VertexMap]]:
    """Compile only the window-feasible part of the grid, or return None
    when no schedule can meet the windows.

    The compile's :class:`_Moves` table gives the moves and the cumulative
    flows on their scale ``df``; each period's window is the instance's,
    rounded inwards onto ``df``. Each period keeps one dict from a state's
    code to its hull record ``[lo, hi]`` of the scaled cumulative flow: a
    forward pass records what window-feasible prefixes reach, joining
    each further move into the state in place, and a backward pass from
    the last period replaces each record with the part of it from which
    the last period is still reached inside the windows. The graph keeps the states with a record,
    numbered as in :func:`reached_graph`, and the moves ``(s, m)`` along
    which ``hull(s) + flow`` meets ``hull(m)``; each vertex's window is
    its record, rescaled to the arcs' integer scale for the solver and as
    a Fraction :class:`Window` made when read. Every window-feasible
    schedule stays inside the hulls, and the hulls lie inside the
    windows, so the graph has the same feasible schedules, values and
    optimum as the full grid."""
    T = inst.periods
    moves = _Moves.of(inst)
    flow, scale = moves.flow, moves.df
    # forward: hull[t][s] is what window-feasible prefixes reach
    hull: list[dict[int, list[int]]] = [{moves.code(inst.initial_point, inst.initial_hold): [0, 0]}]
    for w_lo, w_hi in zip(*_rescaled(inst.tables.lo, inst.tables.hi, scale, inst.tables.dwin)):
        check_deadline(deadline, "HUC compile")
        reached: dict[int, list[int]] = {}
        for s, (a, b) in hull[-1].items():
            for m, i in moves[s]:
                f = flow[i]
                x, y = a + f, b + f
                x, y = x if x > w_lo else w_lo, y if y < w_hi else w_hi
                if x <= y:
                    r = reached.get(m)
                    if r is None:
                        reached[m] = [x, y]
                    else:
                        if x < r[0]:
                            r[0] = x
                        if y > r[1]:
                            r[1] = y
        if not reached:
            return None
        hull.append(reached)
    # backward: within each record, what still reaches period T inside the
    # windows (period T's records lie in the sink window); a move (s, m)
    # keeps a piece of hull(s) exactly when hull(s) + flow meets hull(m)
    kept: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(T)]
    for t in range(T - 1, -1, -1):
        check_deadline(deadline, "HUC compile")
        after, arcs_out, keep = hull[t + 1], kept[t], {}
        for s, (a, b) in hull[t].items():
            out = []
            for move in moves[s]:
                r = after.get(move[0])
                if r is not None:
                    f = flow[move[1]]
                    x, y = r[0] - f, r[1] - f
                    x, y = x if x > a else a, y if y < b else b
                    if x <= y:
                        if not out or x < x0:
                            x0 = x
                        if not out or y > y0:
                            y0 = y
                        out.append(move)
            if out:
                keep[s], arcs_out[s] = (x0, y0), out
        if not keep:
            return None
        hull[t] = keep

    ints, out, period, code = _emit(inst, moves, hull, kept, deadline)
    check_deadline(deadline, "HUC compile")
    sink = len(code) - 1
    last = hull[T].values()
    records = [hull[t][s] for t, s in zip(period, code[:sink])]
    records.append((min(r[0] for r in last), max(r[1] for r in last)))  # the sink's hull
    windows = _rescaled([r[0] for r in records], [r[1] for r in records], ints.dr, scale)
    check_deadline(deadline, "HUC compile")

    def window(v: int) -> Window:
        return Window(*(Fraction(x, scale) for x in records[v]))

    sink_window = window(sink)
    return _graph(inst, ints, windows, out, sink, period, code, lambda v: sink_window if v == sink else window(v))


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
    inst: HucInstance, flows: Sequence[int], t: int, level: int, lvl: int, last_up: int, last_down: int
) -> tuple[Optional[str], int, int]:
    """Ramp and hold rules of moving from ``level`` to ``lvl`` in period
    ``t``, given the periods of the last moves up and down and ``flows``,
    the cumulative flows on the instance's flow scale ``df``. Returns the
    violated rule name (or None) and the updated move periods. Reads
    instance data only, never the compiled graph: a step of ``s / df``
    breaks the ramp ``r / dramp`` exactly when ``s * dramp > r * df``, with
    no rounding, so the rules are independent of :class:`_Moves`' caps."""
    if not 0 <= lvl < inst.levels:
        return "order", last_up, last_down
    tables = inst.tables
    if lvl > level:
        if (flows[lvl] - flows[level]) * tables.dramp > tables.ramp[0] * tables.df:
            return "ramp_up", last_up, last_down
        if t - last_down < inst.min_updown:
            return "min_up", last_up, last_down
        return None, t, last_down
    if lvl < level:
        if (flows[level] - flows[lvl]) * tables.dramp > tables.ramp[1] * tables.df:
            return "ramp_down", last_up, last_down
        if t - last_up < inst.min_updown:
            return "min_down", last_up, last_down
        return None, last_up, t
    return None, last_up, last_down


def _broken_rule(inst: HucInstance, steps: Iterable[tuple[int, int]]) -> Optional[str]:
    """First ramp or hold rule a sequence of (period, level) steps breaks,
    walked from the inherited state; None when it keeps them all."""
    flows = list(accumulate(inst.tables.flow))
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
    checked directly on the instance's integer tables: a cumulative flow
    ``c / df`` lies in the window ``[lo / dwin, hi / dwin]`` exactly when
    ``lo * df <= c * dwin <= hi * df``."""
    if len(schedule) != inst.periods or _broken_rule(inst, enumerate(schedule, start=1)) is not None:
        return False
    tables = inst.tables
    df, dwin = tables.df, tables.dwin
    flows = list(accumulate(tables.flow))
    cum = 0
    for lo, hi, lvl in zip(tables.lo, tables.hi, schedule):
        cum += flows[lvl]
        if not lo * df <= cum * dwin <= hi * df:
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
    solve the graph with :func:`~borwin.solver.solve_tight` and its
    default value bound; returns the best commitment. The compile checks
    ``deadline`` once per period of each pass and between its last
    steps, and raises :class:`TimeoutExceeded` past it."""
    compiled = _solve_graph(inst, deadline)
    if compiled is None:
        return HucSolution(INFEASIBLE, None, None, None, SolveStats())
    dag, vmap = compiled
    sol = solve_tight(dag, deadline=deadline, trace_phase1=trace_phase1, trace_phase2=trace_phase2)
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
    cum_v = cumulative_values(inst)
    tables = inst.tables
    df, dwin = tables.df, tables.dwin
    flows = list(accumulate(tables.flow))
    best: Optional[tuple[Fraction, list[int]]] = None
    last_up, last_down = _hold_clock(inst)
    # one frame per decided period: level, last moves up and down,
    # cumulative flow on the flow scale, revenue, next level to try after it
    stack = [[inst.initial_point, last_up, last_down, 0, ZERO, 0]]
    while stack:
        check_deadline(deadline, "schedule oracle")
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
        if tables.lo[t] * df <= ncum * dwin <= tables.hi[t] * df:
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
