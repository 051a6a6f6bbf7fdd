import copy
import dataclasses
import hashlib
import io
import json
import pickle
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borwin import bench, graph, huc, solver
from borwin.baselines import brute_force, rcsp_label_setting
from borwin.generate import random_huc
from borwin.graph import (
    IntArcs,
    TimeoutExceeded,
    WindowedDag,
    check_windows,
    path_metrics,
    prune_unreachable,
    reaching,
    validate,
)
from borwin.huc import (
    HucInstance,
    InvalidInstance,
    OperatingPoint,
    best_schedule_bruteforce,
    build_graph,
    check_path_legality,
    cumulative_flows,
    cumulative_values,
    export_milp,
    reached_graph,
    schedule_is_legal,
    solve_huc,
    value_table,
)
from borwin.io import dump_json, huc_from_dict, huc_to_dict
from borwin.phase1 import Pair, SolvedAtSp
from borwin.rational import NotDecimal, rat

F = Fraction

ARC_VALUE_TABLE = {
    (1, 0): "0", (1, 1): "2.8", (1, 2): "3.8",
    (2, 0): "0", (2, 1): "-6.8", (2, 2): "-13.0",
    (3, 0): "0", (3, 1): "0.4", (3, 2): "-0.4",
    (4, 0): "0", (4, 1): "-11.6", (4, 2): "-21.4",
    (5, 0): "0", (5, 1): "2.0", (5, 2): "2.4",
}


def test_value_table(huc5):
    table = value_table(huc5)
    assert table[0] == [F(0), rat("2.8"), F(1)]
    assert table[1] == [F(0), rat("-6.8"), rat("-6.2")]
    assert table[2] == [F(0), rat("0.4"), rat("-0.8")]
    assert table[3] == [F(0), rat("-11.6"), rat("-9.8")]
    assert table[4] == [F(0), rat("2.0"), rat("0.4")]


def test_cumulative_arc_values(huc5):
    cum = cumulative_values(huc5)
    for (t, i), text in ARC_VALUE_TABLE.items():
        assert cum[t - 1][i] == rat(text), (t, i)


def test_a_solve_computes_no_cumulative_values(monkeypatch):
    """A solve runs on integers and computes no value table; the knapsack
    bound and the schedule oracle, its only readers, compute one per call
    and agree with the solve's Fraction arcs and revenue."""
    inst = random_huc(random.Random(2), 24, 3, 2)
    calls = []
    monkeypatch.setattr(huc, "value_table", lambda i: calls.append(i) or value_table(i))
    sol = solve_huc(inst)
    assert calls == []
    huc.nmckp_of_instance(inst)
    assert best_schedule_bruteforce(inst)[0] == sol.revenue
    assert sol.graph_solution.path.arcs[0].value in cumulative_values(inst)[0]
    assert len(calls) == 3


def test_each_compile_builds_one_integer_rule_table(monkeypatch):
    """A compile builds its instance's flows, ramp caps and windows once,
    as one :class:`huc._Moves`, and no Fraction flow table: one table
    per :func:`solve_huc` and one per :func:`reached_graph`."""
    inst = random_huc(random.Random(2), 24, 3, 2)
    tables, flows = [], []

    class Counted(huc._Moves):
        def __init__(self, *args):
            tables.append(args)
            super().__init__(*args)

    monkeypatch.setattr(huc, "_Moves", Counted)
    monkeypatch.setattr(huc, "cumulative_flows", lambda i: flows.append(i) or cumulative_flows(i))
    assert solve_huc(inst).status == "optimal"
    assert (len(tables), len(flows)) == (1, 0)
    reached_graph(inst)
    assert (len(tables), len(flows)) == (2, 0)


def test_cumulative_flows(huc5):
    assert cumulative_flows(huc5) == [F(0), F(6), F(11)]


# one field change per rule that the constructor checks, with its message
INVALID_CHANGES = [
    (dict(periods=0), "need at least one period"),
    (dict(points=(OperatingPoint(F(1), F(0)), OperatingPoint(F(6), F(8)))), "points must start with the idle point"),
    (dict(points=(OperatingPoint(F(0), F(0)), OperatingPoint(F(0), F(8)))), "non-idle points need positive flow"),
    (dict(min_updown=0), "minimum hold must be at least one period"),
    (dict(prices=(F(2),) * 4), "one price per period required"),
    (dict(win_hi=(F(18),) * 6), "one window per period required"),
    (dict(win_lo=(F(12), F(0), F(7), F(18), F(18))), "window at period 1 is inverted"),
    (dict(initial_point=3), "initial point out of range"),
    (dict(initial_hold=-3), "initial hold out of range"),
]


@pytest.mark.parametrize("changes,message", INVALID_CHANGES, ids=[m for _, m in INVALID_CHANGES])
def test_an_invalid_instance_cannot_be_built(huc5, changes, message):
    """The constructor checks every rule, and ``dataclasses.replace``
    goes through it, so no function that takes an instance needs to."""
    fields = {f.name: getattr(huc5, f.name) for f in dataclasses.fields(huc5) if f.init}
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        HucInstance(**{**fields, **changes})
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        replace(huc5, **changes)


def test_vertex_count_formula(huc5):
    dag, vmap = build_graph(huc5)
    assert dag.n == 5 * 3 * 5 + 2 == 77
    assert vmap.count == dag.n
    assert validate(dag).ok


def test_reachable_states_are_numbered_first():
    """The full grid numbers the source, the states the initial state
    reaches and the sink first, and gives arcs to those alone: pruning
    it changes nothing, the unreachable tail has no arcs, and the part
    up to the sink is the reached graph, integer arcs included."""
    from dataclasses import replace

    rng = random.Random(4242)
    for k in range(60):
        periods, points, hold = 1 + rng.randrange(8), 2 + rng.randrange(3), 1 + rng.randrange(3)
        inst = random_huc(random.Random(k), periods, points, hold)
        inst = replace(
            inst,
            initial_point=rng.randrange(inst.levels),
            initial_hold=rng.randint(-(inst.min_updown - 1), inst.min_updown - 1),
        )
        dag, vmap = build_graph(inst)
        pruned, old_of_new = prune_unreachable(dag)
        assert old_of_new == tuple(range(dag.sink + 1)), f"instance {k}"
        assert pruned.windows == dag.windows[: dag.sink + 1]
        assert pruned.labels == dag.labels[: dag.sink + 1]
        assert pruned.arcs == dag.arcs
        assert all(a.src < dag.sink for a in dag.arcs)
        assert all(vmap.id_of(*vmap.state_of(v)) == v for v in range(dag.n))
        reached, rmap = reached_graph(inst)
        assert (reached.n, reached.sink) == (dag.sink + 1, dag.sink)
        assert reached.windows == dag.windows[: dag.sink + 1]
        assert reached.labels == dag.labels[: dag.sink + 1]
        assert reached.arcs == dag.arcs
        assert rmap.states == vmap.states[: dag.sink + 1]
        ints, full = reached.int_arcs(), dag.int_arcs()
        assert (ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (full.dst, full.val, full.res, full.dv, full.dr)


def test_graph_arc_data(huc5):
    dag, vmap = build_graph(huc5)
    flows = cumulative_flows(huc5)
    for a in dag.arcs:
        t, i, _ = vmap.state_of(a.dst)
        if t == huc5.periods + 1:
            assert a.value == 0 and a.resource == 0
        else:
            assert a.value == rat(ARC_VALUE_TABLE[(t, i)])
            assert a.resource == flows[i]
    # per-level resources 0 / 6 / 11
    levels_seen = {vmap.state_of(a.dst)[1] for a in dag.arcs if a.resource == 6}
    assert levels_seen == {1}
    levels_seen = {vmap.state_of(a.dst)[1] for a in dag.arcs if a.resource == 11}
    assert levels_seen == {2}


def test_windows_on_graph(huc5):
    dag, vmap = build_graph(huc5)
    assert dag.windows[dag.source].lo == 0 and dag.windows[dag.source].hi is None
    assert dag.windows[dag.sink].lo == 18 and dag.windows[dag.sink].hi == 18
    for v in range(dag.n):
        t, _, _ = vmap.state_of(v)
        if 1 <= t <= huc5.periods:
            assert dag.windows[v].lo == huc5.win_lo[t - 1]
            assert dag.windows[v].hi == huc5.win_hi[t - 1]


def test_up_moves_respect_ramp(huc5):
    # 0 -> 2 needs flow 11 > ramp 6, so no direct arc may exist
    dag, vmap = build_graph(huc5)
    for a in dag.arcs:
        t1, i1, _ = vmap.state_of(a.src)
        t2, i2, _ = vmap.state_of(a.dst)
        if t2 <= huc5.periods and i2 > i1:
            assert (i1, i2) != (0, 2)


def sample_path(dag, rng):
    reach = reaching(dag, dag.sink)
    ids = []
    u = dag.source
    while u != dag.sink:
        options = [k for k in dag.out_arcs[u] if dag.arcs[k].dst in reach]
        k = rng.choice(options)
        ids.append(k)
        u = dag.arcs[k].dst
    return path_metrics(dag, ids, start=dag.source)


def test_sampled_paths_are_legal(huc5):
    dag, vmap = build_graph(huc5)
    rng = random.Random(7)
    for _ in range(200):
        path = sample_path(dag, rng)
        assert check_path_legality(huc5, path, vmap) is None


def test_legality_rejects_fast_reversal():
    inst = HucInstance(
        periods=3,
        points=(
            OperatingPoint(F(0), F(0)),
            OperatingPoint(F(2), F(3)),
            OperatingPoint(F(3), F(4)),
        ),
        ramp_up=F(11),
        ramp_down=F(11),
        min_updown=3,
        prices=(F(1), F(1), F(1)),
        water_value_upstream=F(0),
        water_value_downstream=F(0),
        win_lo=(F(0), F(0), F(0)),
        win_hi=(F(100), F(100), F(100)),
    )
    assert not schedule_is_legal(inst, [2, 0, 0])  # down one period after up
    assert schedule_is_legal(inst, [2, 2, 2])
    dag, vmap = reached_graph(inst)
    # no graph path can realize the illegal reversal either
    res = brute_force(dag)
    assert res.status == "optimal"


def test_legality_rejects_ramp_jump(huc5):
    assert not schedule_is_legal(huc5, [2, 2, 2, 0, 0])  # 0 -> 2 jumps flow 11 > 6
    dag, vmap = build_graph(huc5)
    # craft the matching path by hand: it cannot exist in the graph
    with pytest.raises(KeyError):
        dag.find_arc(vmap.id_of(0, 0, 0), vmap.id_of(1, 2, 2))


def test_legality_checker_names_rules(huc5):
    dag, vmap = build_graph(huc5)
    # fabricate vertex sequences and check the reported rule names; the
    # checker reads only the vertices
    from borwin.graph import Path

    def fake_path(states):
        verts = tuple(vmap.id_of(*s) for s in states)
        return Path(start=verts[0], value=F(0), resource=F(0), prefix_resources=tuple(F(0) for _ in verts),
                    arc_ids=(), dag=dag, vertices=verts)

    up_then_down = fake_path([(0, 0, 0), (1, 1, 2), (2, 0, -2)])
    assert check_path_legality(huc5, up_then_down, vmap) == "min_down"
    jump = fake_path([(0, 0, 0), (1, 2, 2)])
    assert check_path_legality(huc5, jump, vmap) == "ramp_up"


def test_fixture_solution(huc5):
    oracle = best_schedule_bruteforce(huc5)
    assert oracle is not None
    value, schedule = oracle
    assert schedule == [1, 1, 1, 0, 0]
    assert value == rat("-3.6")
    sol = solve_huc(huc5)
    assert sol.status == "optimal"
    assert sol.revenue == rat("-3.6")
    assert sol.schedule == [1, 1, 1, 0, 0]
    assert sol.volumes == [F(6), F(12), F(18), F(18), F(18)]


def test_all_idle_when_windows_allow():
    inst = random_huc(random.Random(3), 4, 3, 2)
    inst = HucInstance(
        periods=inst.periods,
        points=inst.points,
        ramp_up=inst.ramp_up,
        ramp_down=inst.ramp_down,
        min_updown=inst.min_updown,
        prices=tuple(-abs(p) - 1 for p in inst.prices),
        water_value_upstream=inst.water_value_downstream + 1,
        water_value_downstream=inst.water_value_downstream,
        win_lo=tuple(F(0) for _ in range(inst.periods)),
        win_hi=tuple(F(10**6) for _ in range(inst.periods)),
    )
    sol = solve_huc(inst)
    assert sol.status == "optimal"
    assert sol.schedule == [0] * inst.periods
    assert sol.revenue == 0


def test_windows_pin_schedule():
    # every period must run the single non-idle point: lower bound t * flow
    flow = F(4)
    inst = HucInstance(
        periods=3,
        points=(
            OperatingPoint(F(0), F(0)),
            OperatingPoint(flow, F(2)),
        ),
        ramp_up=F(4),
        ramp_down=F(4),
        min_updown=1,
        prices=(F(-1), F(-2), F(-3)),
        water_value_upstream=F(0),
        water_value_downstream=F(0),
        win_lo=(flow, 2 * flow, 3 * flow),
        win_hi=(flow, 2 * flow, 3 * flow),
    )
    sol = solve_huc(inst)
    assert sol.status == "optimal"
    assert sol.schedule == [1, 1, 1]


def test_schedules_embed_as_paths(huc5):
    """Every legal schedule corresponds to a graph path with matching value
    and volume trajectory."""
    insts = [huc5] + [random_huc(random.Random(s), 4, 3, 2) for s in range(6)]
    for inst in insts:
        dag, vmap = build_graph(inst)
        cum_v = cumulative_values(inst)
        flows = cumulative_flows(inst)
        span = inst.min_updown - 1

        def embed(schedule):
            verts = [(0, inst.initial_point, inst.initial_hold)]
            level, hold = inst.initial_point, inst.initial_hold
            for lvl in schedule:
                if lvl > level:
                    hold = span
                elif lvl < level:
                    hold = -span
                else:
                    hold = hold - 1 if hold > 0 else hold + 1 if hold < 0 else 0
                level = lvl
                verts.append((len(verts) and verts[-1][0] + 1, lvl, hold))
            verts.append((inst.periods + 1, 0, 0))
            ids = [vmap.id_of(*s) for s in verts]
            arc_ids = [dag.find_arc(u, v) for u, v in zip(ids, ids[1:])]
            return path_metrics(dag, arc_ids, start=ids[0])

        count = 0
        for schedule in _all_schedules(inst):
            if not schedule_is_legal(inst, schedule):
                continue
            count += 1
            path = embed(schedule)
            assert check_windows(dag, path) is None
            assert path.value == sum(cum_v[t][lvl] for t, lvl in enumerate(schedule))
            vols = [r for v, r in zip(path.vertices(), path.prefix_resources)
                    if 1 <= vmap.state_of(v)[0] <= inst.periods]
            acc = F(0)
            expect = []
            for lvl in schedule:
                acc += flows[lvl]
                expect.append(acc)
            assert vols == expect
        assert count >= 1


def _all_schedules(inst):
    import itertools

    return itertools.product(range(inst.levels), repeat=inst.periods)


def test_solve_matches_schedule_oracle_random():
    for seed in range(30):
        rng = random.Random(seed)
        inst = random_huc(rng, 3 + seed % 4, 2 + seed % 2, 1 + seed % 3)
        oracle = best_schedule_bruteforce(inst)
        sol = solve_huc(inst)
        assert oracle is not None  # generator guarantees a feasible schedule
        assert sol.status == "optimal", f"seed {seed}"
        assert sol.revenue == oracle[0], f"seed {seed}"
        assert schedule_is_legal(inst, sol.schedule), f"seed {seed}"


def test_schedule_oracle_long_horizon():
    # 1,200 periods: deeper than Python's default recursion limit
    inst = random_huc(random.Random(0), 1200, 3, 2)
    value, schedule = best_schedule_bruteforce(inst, deadline=time.monotonic() + 60)
    assert value == F(512321, 10)  # the solver's revenue on this instance
    assert schedule_is_legal(inst, schedule)


def test_holds_longer_than_the_horizon_forbid_reversals_only():
    # a hold of T + 1 already forbids every reversal within T periods, so
    # raising it by 2e9 changes no answer; the solve expands only the
    # (level, hold) states it reaches, never the O(min_updown) grid
    for seed in range(200):
        inst = random_huc(random.Random(seed), 1 + seed % 6, 2 + seed % 3, 1 + seed % 3)
        raised = replace(inst, min_updown=inst.min_updown + 2 * 10**9)
        capped = solve_huc(replace(inst, min_updown=inst.periods + 1))
        sol = solve_huc(raised)
        oracle = best_schedule_bruteforce(raised)
        assert sol.status == capped.status == ("infeasible" if oracle is None else "optimal"), seed
        assert sol.revenue == capped.revenue == (None if oracle is None else oracle[0]), seed
        assert sol.schedule is None or schedule_is_legal(raised, sol.schedule), seed


def test_a_fresh_first_move_is_legal_under_any_hold(huc5):
    wide = replace(huc5, min_updown=2 * 10**9, win_lo=(F(0),) * 5, win_hi=(F(100),) * 5)
    assert schedule_is_legal(wide, [1, 1, 1, 1, 1])
    assert best_schedule_bruteforce(wide) == (F(2), [0, 0, 0, 0, 1])
    start = time.perf_counter()
    sol = solve_huc(wide)
    assert time.perf_counter() - start < 1
    assert (sol.revenue, sol.schedule) == (F(2), [0, 0, 0, 0, 1])


# -- the solve graph: window hulls on the compiled states ----------------------


@st.composite
def windowed_hucs(draw):
    """Small instances with fractional flows; ramps that in 3 of 4 draws
    equal a flow step ``cum[j] - cum[i]`` or lie 1/7 below it, so that
    the caps' rounding decides a move, and otherwise lie off the flow
    scale; a random inherited state and point; point, narrow or loose
    windows around a schedule walked on the Fraction rules, and in one
    instance of four one period's point window shifted off the walk,
    which the compile almost always rejects."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    inst = random_huc(rng, draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    points = (inst.points[0],) + tuple(
        OperatingPoint(p.flow / draw(st.sampled_from([1, 1, 2, 3])), p.power) for p in inst.points[1:]
    )
    gaps = [b - a for a, b in combinations(accumulate(p.flow for p in points), 2)]
    ramp_up, ramp_down = (
        draw(st.sampled_from(gaps)) - draw(st.sampled_from([F(0), F(1, 7)]))
        if draw(st.integers(0, 3))
        else ramp / draw(st.sampled_from([1, 2, 3])) + draw(st.sampled_from([F(0), F(1, 5)]))
        for ramp in (inst.ramp_up, inst.ramp_down)
    )
    level = draw(st.integers(0, inst.levels - 1))
    hold = draw(st.integers(-(inst.min_updown - 1), inst.min_updown - 1))
    inst = replace(
        inst, points=points, ramp_up=ramp_up, ramp_down=ramp_down, initial_point=level, initial_hold=hold
    )
    flows, scaled = cumulative_flows(inst), list(accumulate(inst.tables.flow))
    last_up, last_down = huc._hold_clock(inst)
    cum = F(0)
    lo, hi = [], []
    shifted = rng.randint(1, 4 * inst.periods)
    for t in range(1, inst.periods + 1):
        steps = [(lvl, *huc._step(inst, scaled, t, level, lvl, last_up, last_down)) for lvl in range(inst.levels)]
        level, _, last_up, last_down = rng.choice([step for step in steps if step[1] is None])
        cum += flows[level]
        kind = "shifted" if t == shifted else draw(st.sampled_from(["point", "narrow", "loose"]))
        below, above = (F(rng.randrange(3), 2), F(rng.randrange(3), 2)) if kind == "narrow" else (F(0), F(0))
        if kind == "loose":
            below, above = F(rng.randrange(20)), F(rng.randrange(20))
        shift = F(rng.randrange(1, 4), 3) if kind == "shifted" else F(0)
        lo.append(cum - below + shift)
        hi.append(cum + above + shift)
    return replace(inst, win_lo=tuple(lo), win_hi=tuple(hi))


# The flow step 5/2 equals ramp_up, so the move up is legal, and exceeds
# ramp_down = 23/10, whose cap on the flow scale 2 is floor(4.6) = 4, so
# the move down is not: the best schedule, [0, 0, 1] or [1, 1, 1] for 5,
# goes up and never down. A cap of ceil or round(4.6) = 5 would allow
# [1, 0, 1] for 15, and a strict ramp comparison no move up at all.
EXACT_RAMP = HucInstance(
    periods=3,
    points=(OperatingPoint(F(0), F(0)), OperatingPoint(F(5, 2), F(1))),
    ramp_up=F(5, 2),
    ramp_down=F(23, 10),
    min_updown=1,
    prices=(F(10), F(-10), F(5)),
    water_value_upstream=F(0),
    water_value_downstream=F(0),
    win_lo=(F(0), F(0), F(0)),
    win_hi=(F(100), F(100), F(100)),
)


# Flows scale by 6, but the arcs use levels 0 and 1 only and scale by 2;
# period 3's hull of the idle state, [2/6, 3/6], admits the resource 1/2
# and not 0, so its integer window on the arcs' scale is [1, 1].
ROUNDED_HULL = HucInstance(
    periods=3,
    points=(OperatingPoint(F(0), F(0)), OperatingPoint(F(1, 2), F(1)), OperatingPoint(F(1, 3), F(2))),
    ramp_up=F(1),
    ramp_down=F(1),
    min_updown=1,
    prices=(F(-1), F(-1), F(-1)),
    water_value_upstream=F(0),
    water_value_downstream=F(0),
    win_lo=(F(0), F(0), F(1, 3)),
    win_hi=(F(1, 2), F(1, 2), F(1, 2)),
)


@given(windowed_hucs())
@example(ROUNDED_HULL)
@example(EXACT_RAMP)
@settings(max_examples=150, deadline=None)
def test_solve_graph_matches_the_schedule_oracle(inst):
    """The hull compile's solve and rcsp on the reached graph, two
    independent compiles, both agree with the schedule oracle."""
    oracle = best_schedule_bruteforce(inst)
    sol = solve_huc(inst)
    rcsp = rcsp_label_setting(reached_graph(inst)[0])
    if oracle is None:
        assert sol.status == rcsp.status == "infeasible"
        return
    assert rcsp.status == "optimal" and rcsp.value == oracle[0]
    assert sol.status == "optimal"
    assert sol.revenue == oracle[0]
    assert schedule_is_legal(inst, sol.schedule)
    assert sol.revenue == sum(cumulative_values(inst)[t][lvl] for t, lvl in enumerate(sol.schedule))


# -- one instance model: integer tables, Fraction views ----------------------


def _milp_text(inst):
    """``export_milp``'s text, or the error it raises on non-decimal data."""
    out = io.StringIO()
    try:
        export_milp(inst, out)
    except NotDecimal as exc:
        return str(exc)
    return out.getvalue()


@given(windowed_hucs(), st.integers(1, 6), st.integers(0, 99))
@example(EXACT_RAMP, 3, 1)
@example(ROUNDED_HULL, 1, 2)
@settings(max_examples=100, deadline=None)
def test_every_route_builds_the_same_instance(inst, k, period):
    """The Fraction constructor, the ratio route (with ratios not in lowest
    terms) and the JSON round trip give equal instances, with equal hashes,
    integer tables, fields, value tables and LP text; an inverted window is
    refused through ``dataclasses.replace``."""
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    fields.update(prices=tuple(inst.prices), win_lo=tuple(inst.win_lo), win_hi=tuple(inst.win_hi))
    built = HucInstance(**fields)

    def r(q):
        return q.numerator * k, q.denominator * k

    ratios = HucInstance.of_ratios(
        fields["periods"],
        [(r(p.flow), r(p.power)) for p in fields["points"]],
        r(fields["ramp_up"]),
        r(fields["ramp_down"]),
        fields["min_updown"],
        list(map(r, fields["prices"])),
        r(fields["water_value_upstream"]),
        r(fields["water_value_downstream"]),
        list(map(r, fields["win_lo"])),
        list(map(r, fields["win_hi"])),
        fields["initial_point"],
        fields["initial_hold"],
    )
    loaded = huc_from_dict(json.loads(dump_json(huc_to_dict(built))))
    shift = fields["water_value_downstream"] - fields["water_value_upstream"]
    values = [[q * p.power + shift * p.flow for p in fields["points"]] for q in fields["prices"]]
    for other in (built, ratios, loaded):
        assert other == built and hash(other) == hash(built) and other.tables == built.tables
        assert {name: getattr(other, name) for name in fields} == fields
        assert value_table(other) == values
        assert _milp_text(other) == _milp_text(built)
    t = period % inst.periods
    inverted = list(fields["win_lo"])
    inverted[t] = fields["win_hi"][t] + F(1, 3 * k)
    for other in (built, ratios, loaded):
        with pytest.raises(InvalidInstance, match=f"window at period {t + 1} is inverted"):
            replace(other, win_lo=tuple(inverted))


# sha256 over repr(value_table(inst)) and export_milp's text, recorded on
# the Fraction instance model
MILP_DIGESTS = [
    ((0, 24, 3, 2, "independent"), "b7de5e38ef97fc1b16226e4832a386e1ac5d5a8a5e90266561917cbb912c7f31"),
    ((1, 48, 4, 3, "near-flat"), "03eda29e75394a2f699dd4b130ad2fe68b20bf7b15136e29df96ba2c48e042f0"),
    ((2, 96, 4, 2, "independent"), "fada22ea5e45f6d619b001ed04842f5a1ea40df016472f18291e78759892e494"),
    ((3, 12, 10, 1, "near-flat"), "920475ee1a1263e4b3671b2d010ce0f1cd76bb227ed6343e3ce0736b1c15dc59"),
    ((4, 240, 3, 2, "near-flat"), "a4af4448e0f636e598c3160fe45d6a10fe726c5166054aa6973ccd55b887e86e"),
]


@pytest.mark.parametrize("case,digest", MILP_DIGESTS, ids=[str(c) for c, _ in MILP_DIGESTS])
def test_value_table_and_lp_text_are_pinned(case, digest):
    seed, *args = case
    inst = random_huc(random.Random(seed), *args)
    text = repr(value_table(inst)) + _milp_text(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_huc5_value_table_and_lp_text_are_pinned(huc5):
    text = repr(value_table(huc5)) + _milp_text(huc5)
    assert hashlib.sha256(text.encode()).hexdigest() == "54946c1fbf3295dc9e99efefbdff0d302d5931bfd6d93e2b585961a270289c63"


def _legal_in_fractions(inst, schedule):
    """Ramp, hold and window legality computed plainly on the Fraction
    fields: a move may change the cumulative flow of the active points by
    at most the ramp, a reversal needs ``L = min_updown`` periods since
    the last move the other way (an inherited hold ``h`` allows one from
    period ``|h| + 1`` on), and every cumulative flow lies in its
    window."""
    L = inst.min_updown
    flows = [F(0)]
    for p in inst.points[1:]:
        flows.append(flows[-1] + p.flow)
    h = inst.initial_hold
    last_up = h - L + 1 if h > 0 else -L
    last_down = 1 - L - h if h < 0 else -L
    level, cum = inst.initial_point, F(0)
    for t, lvl in enumerate(schedule, start=1):
        step = flows[lvl] - flows[level]
        if step > 0:
            if step > inst.ramp_up or t - last_down < L:
                return False
            last_up = t
        elif step < 0:
            if -step > inst.ramp_down or t - last_up < L:
                return False
            last_down = t
        cum += flows[lvl]
        if not inst.win_lo[t - 1] <= cum <= inst.win_hi[t - 1]:
            return False
        level = lvl
    return True


@st.composite
def off_scale_hucs(draw):
    """``windowed_hucs`` draws with their ramps moved to a nearby multiple
    of 1/3 or 1/7 and their windows widened or narrowed by 7/3, off the
    flow scale, so that rounding a ramp cap or a window decides some
    steps."""
    inst = draw(windowed_hucs())
    den = draw(st.sampled_from([3, 7]))
    ramp_up, ramp_down = (F(round(q * den) + draw(st.integers(-1, 1)), den) for q in (inst.ramp_up, inst.ramp_down))
    widen = [draw(st.sampled_from([F(0), F(7, 3), -F(7, 3)])) for _ in range(inst.periods)]
    lo = tuple(max(F(0), q - w) for q, w in zip(inst.win_lo, widen))
    hi = tuple(max(a, q + w) for a, q, w in zip(lo, inst.win_hi, widen))
    return replace(inst, ramp_up=max(ramp_up, F(1, den)), ramp_down=max(ramp_down, F(1, den)), win_lo=lo, win_hi=hi)


@given(off_scale_hucs(), st.integers(0, 2**32))
@example(EXACT_RAMP, 0)
@settings(max_examples=150, deadline=None)
def test_legality_oracle_agrees_with_a_fraction_computation(inst, seed):
    """``schedule_is_legal`` compares on the integer tables and rounds
    nothing, so it agrees with plain Fraction arithmetic on ramps and
    windows off the flow scale, on random schedules and on schedules
    walked one legal ramp step at a time."""
    rng = random.Random(seed)
    schedules = [[rng.randrange(inst.levels) for _ in range(inst.periods)] for _ in range(20)]
    unwindowed = replace(inst, win_lo=(F(0),) * inst.periods, win_hi=(F(10**6),) * inst.periods)
    for _ in range(20):
        walk = []
        for _ in range(inst.periods):
            steps = [lvl for lvl in range(inst.levels) if _legal_in_fractions(unwindowed, walk + [lvl])]
            walk.append(rng.choice(steps or [0]))
        schedules.append(walk)
    verdicts = [schedule_is_legal(inst, s) for s in schedules]
    assert verdicts == [_legal_in_fractions(inst, s) for s in schedules]


def test_exact_ramp_steps_are_decided_without_rounding():
    """EXACT_RAMP's step 5/2 meets ramp_up = 5/2 and exceeds ramp_down =
    23/10 (a cap of ceil or round(4.6) on the flow scale 2 would allow it);
    a window of 7/3 on a flow scale of 2 admits 2 and not 5/2."""
    assert schedule_is_legal(EXACT_RAMP, [1, 1, 1]) and schedule_is_legal(EXACT_RAMP, [0, 0, 1])
    assert not schedule_is_legal(EXACT_RAMP, [1, 0, 1])
    assert huc._broken_rule(EXACT_RAMP, [(1, 1), (2, 0)]) == "ramp_down"
    third = replace(EXACT_RAMP, win_hi=(F(7, 3), F(100), F(100)))
    assert schedule_is_legal(third, [0, 0, 0]) and not schedule_is_legal(third, [1, 1, 1])


def test_an_instance_survives_pickle_and_copy():
    inst = random_huc(random.Random(3), 24, 4, 3, "near-flat")
    for other in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        assert other == inst and hash(other) == hash(inst) and other.tables == inst.tables
        assert (other.prices, other.win_lo, other.points) == (inst.prices, inst.win_lo, inst.points)


def test_the_generator_writer_and_solve_build_no_fraction_list(monkeypatch):
    """``random_huc`` and its self-check, ``huc_to_dict``, the loader and
    ``solve_huc`` of a loaded corpus-sized instance read the integer
    tables only: none of them makes the Fraction view of the prices or
    the windows."""

    def refuse(*args):
        raise AssertionError("made a Fraction view of an instance list")

    monkeypatch.setattr(huc, "_view", refuse)
    inst = random_huc(random.Random(1), 1200, 3, 2)
    loaded = huc_from_dict(json.loads(dump_json(huc_to_dict(inst))))
    assert loaded == inst
    sol = solve_huc(loaded)
    assert sol.status == "optimal" and schedule_is_legal(loaded, sol.schedule)
    with pytest.raises(AssertionError, match="Fraction view"):
        loaded.prices[0]


@given(windowed_hucs(), st.lists(st.sampled_from([1, 2, 3, 7]), min_size=3, max_size=3))
@example(ROUNDED_HULL, [1, 1, 1])
@settings(max_examples=100, deadline=None)
def test_solve_graph_integers_are_the_ones_the_graph_derives(inst, dens):
    """Both compiles fill in the integer arcs while emitting; they equal
    what the graph derives from its Fraction arcs, also with fractional
    powers, prices and water values, and each arc's scaled value and
    resource are the Fraction model's cumulative value and flow of the
    state it enters."""
    power_den, price_den, water_den = dens
    inst = replace(
        inst,
        points=tuple(OperatingPoint(p.flow, p.power / power_den) for p in inst.points),
        prices=tuple(q / price_den for q in inst.prices),
        water_value_upstream=inst.water_value_upstream / water_den,
    )
    full, full_vmap = build_graph(inst)
    ints, ref = full.int_arcs(), IntArcs.of(full.arcs)
    assert (ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (ref.dst, ref.val, ref.res, ref.dv, ref.dr)
    _assert_arcs_are_the_models(inst, full, full_vmap)
    compiled = huc._solve_graph(inst)
    if compiled is None:
        return
    dag, vmap = compiled
    _assert_arcs_are_the_models(inst, dag, vmap)
    fresh = WindowedDag(dag.windows, dag.arcs, dag.source, dag.sink)
    ints, ref = dag.int_arcs(), IntArcs.of(dag.arcs)
    assert (ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (ref.dst, ref.val, ref.res, ref.dv, ref.dr)
    assert dag.int_windows() == fresh.int_windows()
    assert dag.topo_order == fresh.topo_order
    assert vmap.count == dag.n and validate(dag).ok
    for v, (t, _, _) in enumerate(vmap.states):
        if 1 <= t <= inst.periods:
            assert inst.win_lo[t - 1] <= dag.windows[v].lo <= dag.windows[v].hi <= inst.win_hi[t - 1]


def _assert_arcs_are_the_models(inst, dag, vmap):
    # an independent check of the emitted integers against the Fraction model
    ints = dag.int_arcs()
    cum_v, cum_f = cumulative_values(inst), cumulative_flows(inst)
    for w, val, res in zip(ints.dst, ints.val, ints.res):
        t, i, _ = vmap.state_of(w)
        want = (F(0), F(0)) if w == dag.sink else (cum_v[t - 1][i], cum_f[i])
        assert (F(val, ints.dv), F(res, ints.dr)) == want


@given(windowed_hucs())
@example(ROUNDED_HULL)
@settings(max_examples=100, deadline=None)
def test_solve_graph_arcs_join_integer_windows_that_meet(inst):
    """``solve_tight``'s precondition: on the solve graph's integer
    windows, every arc ``u -> w`` of resource ``r`` has
    ``[lo[u] + r, hi[u] + r]`` meeting ``[lo[w], hi[w]]``."""
    compiled = huc._solve_graph(inst)
    if compiled is None:
        return
    dag, _ = compiled
    ints = dag.int_arcs()
    lo, hi = dag.int_windows()
    for u, w, r in zip(ints.src, ints.dst, ints.res):
        assert max(lo[u] + r, lo[w]) <= min(hi[u] + r, hi[w]), (u, w)


@pytest.mark.parametrize("seed,points,hold", [(s, p, h) for s in range(3) for p in (3, 4) for h in (2, 3)])
def test_presolve_of_the_reached_graph_keeps_the_solve_graph_arcs(seed, points, hold):
    """The presolve cuts each in-arc's interval to the head's window before
    it merges it, as the solve compile's hull passes do, so on the reached
    graph it keeps exactly as many arcs as the solve graph has. A presolve
    that merges first and cuts after keeps extra arcs on 4 of these 12."""
    inst = random_huc(random.Random(seed), 24, points, hold)
    dag, _ = huc._solve_graph(inst)
    view = graph.presolve(reached_graph(inst)[0])
    assert sum(map(len, view.out_arcs)) == len(dag.arcs)


COMPILES = [huc.reached_graph, huc.build_graph, huc._solve_graph]


@given(windowed_hucs())
@example(ROUNDED_HULL)
@settings(max_examples=60, deadline=None)
def test_lazy_views_equal_an_eager_instance_built_from_them(inst):
    """Every compile's Fraction arcs, windows and labels are views: single
    reads build none of them, and in full they make an eager instance
    with the same adjacency, order and integers as the compiled one."""
    for compile_graph in COMPILES:
        compiled = compile_graph(inst)
        if compiled is None:
            continue
        dag, vmap = compiled
        arcs = [dag.arc(k) for k in range(len(dag.arcs))]
        windows = [dag.window(v) for v in range(dag.n)]
        assert dag.arcs._items is dag.windows._items is dag.labels._items is vmap.states._items is None
        eager = WindowedDag(dag.windows, dag.arcs, dag.source, dag.sink, labels=dag.labels)
        assert (eager.arcs, eager.windows) == (tuple(arcs), tuple(windows))
        assert dag.arcs == eager.arcs and dag.windows == eager.windows and dag.labels == eager.labels
        assert eager.out_arcs == tuple(map(tuple, dag.out_arcs))
        assert eager.topo_order == dag.topo_order
        ints, ref = dag.int_arcs(), eager.int_arcs()
        assert (ints.src, ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (
            ref.src, ref.dst, ref.val, ref.res, ref.dv, ref.dr
        )
        assert dag.int_windows() == eager.int_windows()
        assert vmap.states == tuple(map(vmap.state_of, range(dag.n)))


def test_a_solve_makes_no_arc_and_one_window(monkeypatch):
    """A corpus-sized solve through both phases runs on integers: no
    ``Arc``, the sink's ``Window`` alone, no value table, and the answer
    path's arcs are read only when asked for."""
    inst = random_huc(random.Random(1), 1200, 3, 2)
    made = {"windows": 0}
    compiled = []

    def refuse(*args):
        raise AssertionError("a solve made an Arc or read the Fraction values")

    def window(*args):
        made["windows"] += 1
        return graph.Window(*args)

    def compile_graph(*args):
        compiled.append(real_compile(*args))
        return compiled[-1]

    real_compile = huc._solve_graph
    monkeypatch.setattr(graph, "Arc", refuse)
    monkeypatch.setattr(huc, "cumulative_values", refuse)
    monkeypatch.setattr(huc, "Window", window)
    monkeypatch.setattr(huc, "_solve_graph", compile_graph)
    sol = solve_huc(inst)
    assert sol.status == "optimal" and len(sol.schedule) == 1200
    assert sol.stats.phase1_iterations > 0 and sol.stats.phase2_iterations > 0
    assert made["windows"] == 1
    dag, _ = compiled[0]
    assert dag.arcs._items is dag.windows._items is dag.labels._items is None
    assert sol.graph_solution.path._arcs is None
    with pytest.raises(AssertionError, match="made an Arc"):
        sol.graph_solution.path.arcs


def test_window_hulls_prove_infeasibility_before_any_sweep(monkeypatch):
    """Cumulative flows are multiples of 5, so period 3 never meets its
    window [3, 3]. The forward hull of the idle state at period 2 is
    [0, 5] and admits 3; the backward pass proves the instance
    infeasible, and no tail sweep runs."""
    inst = HucInstance(
        periods=3,
        points=(OperatingPoint(F(0), F(0)), OperatingPoint(F(5), F(1))),
        ramp_up=F(5),
        ramp_down=F(5),
        min_updown=1,
        prices=(F(1), F(1), F(1)),
        water_value_upstream=F(0),
        water_value_downstream=F(0),
        win_lo=(F(0), F(0), F(3)),
        win_hi=(F(15), F(15), F(3)),
    )
    assert best_schedule_bruteforce(inst) is None
    sweeps = []
    monkeypatch.setattr(graph, "_sweep", lambda *args: sweeps.append(args))
    sol = solve_huc(inst)
    assert sol.status == "infeasible" and sol.graph_solution is None
    assert sweeps == []


def test_a_parity_gap_the_hulls_miss_is_infeasible_after_the_search():
    """Cumulative flows are even, so period 4 never meets its window
    [3, 3]. Hulls are intervals and cannot see parity: the compile keeps
    a graph, phase 1 returns a pair, and phase 2 empties its store."""
    inst = HucInstance(
        periods=4,
        points=(OperatingPoint(F(0), F(0)), OperatingPoint(F(2), F(3))),
        ramp_up=F(2),
        ramp_down=F(2),
        min_updown=1,
        prices=(F(1), F(2), F(3), F(4)),
        water_value_upstream=F(0),
        water_value_downstream=F(0),
        win_lo=(F(0), F(0), F(0), F(3)),
        win_hi=(F(2), F(4), F(6), F(3)),
    )
    assert huc._solve_graph(inst) is not None
    assert best_schedule_bruteforce(inst) is None
    sol = solve_huc(inst)
    assert (sol.status, sol.schedule, sol.revenue) == ("infeasible", None, None)
    assert isinstance(sol.graph_solution.phase1, Pair) and sol.graph_solution.path is None
    stats = sol.stats
    assert (stats.phase1_iterations, stats.phase2_iterations, stats.labels_created) == (2, 2, 2)
    for algo in ("borwin", "rcsp", "oracle"):
        assert bench.run("huc", inst, algo).status == "infeasible", algo


def test_solve_compile_honours_the_deadline(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran after the deadline")

    monkeypatch.setattr(huc, "solve_tight", unreachable)
    inst = random_huc(random.Random(0), 1200, 3, 2)
    with pytest.raises(TimeoutExceeded, match="HUC compile"):
        solve_huc(inst, deadline=time.monotonic() - 1.0)


@pytest.mark.parametrize("compile_graph", [huc.reached_graph, huc._solve_graph], ids=["reached", "solve"])
def test_compile_checks_the_deadline_after_the_arcs(compile_graph, monkeypatch):
    """A deadline that passes just after the emitter's last period check
    stops the compile before its vertex map and its instance are built."""
    real_emit = huc._emit
    now = [0.0]

    def emit_then_expire(*args, **kwargs):
        out = real_emit(*args, **kwargs)
        now[0] = 10.0
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("the compile built the instance after the deadline")

    monkeypatch.setattr(huc, "_emit", emit_then_expire)
    monkeypatch.setattr(graph, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(huc, "WindowedDag", SimpleNamespace(of_ints=refuse))
    monkeypatch.setattr(huc, "VertexMap", refuse)
    inst = random_huc(random.Random(0), 40, 3, 2)
    with pytest.raises(TimeoutExceeded, match="HUC compile"):
        compile_graph(inst, deadline=5.0)
    assert now[0] == 10.0


@pytest.mark.parametrize("seed, rounds", [(0, None), (1, 3), (2, 5)])
def test_a_huc_solve_sweeps_only_in_the_bounding_phase(seed, rounds, monkeypatch):
    """A commitment solve runs no presolve: it sweeps the solve graph once
    at delta = 0, and for a pair once at +infinity and once per dichotomy
    round. Phase 2 reads those sweeps and makes none."""
    sweeps, before_phase2 = [], []
    real_sweep, real_run_phase2 = graph._sweep, solver.run_phase2
    monkeypatch.setattr(graph, "_sweep", lambda *args: sweeps.append(args[0]) or real_sweep(*args))

    def marking_phase2(*args, **kwargs):
        before_phase2.append(len(sweeps))
        return real_run_phase2(*args, **kwargs)

    monkeypatch.setattr(solver, "run_phase2", marking_phase2)
    sol = solve_huc(random_huc(random.Random(seed), 24, 3, 2))
    outcome = sol.graph_solution.phase1
    if rounds is None:
        assert isinstance(outcome, SolvedAtSp) and len(sweeps) == 1
    else:
        assert isinstance(outcome, Pair) and outcome.iterations == rounds
        assert before_phase2 == [len(sweeps)] == [2 + rounds]
    assert all(dag is outcome.tails.dag for dag in sweeps)


def test_graph_ids_are_the_smallest_id_first_topological_order():
    """Both compiles number their states in a topological order, so they
    pass it on and skip the Kahn pass; it is the order the Kahn pass
    would give. The instances are gate c07's grid."""
    rng_master = random.Random(20240817)
    for k in range(100):
        periods = 1 + rng_master.randrange(8)
        points = 2 + rng_master.randrange(3)
        hold = 1 + rng_master.randrange(3)
        inst = random_huc(random.Random(k), periods, points, hold)
        for dag, _ in (build_graph(inst), huc._solve_graph(inst)):
            assert graph._kahn(dag) == dag.topo_order == tuple(range(dag.n)), f"instance {k}"


def test_schedule_oracle_deadline_raises_the_library_timeout(huc5):
    """The oracle's deadline error is the one every solver loop raises,
    and it is still a builtin TimeoutError for callers that catch that."""
    past = time.monotonic() - 1.0
    with pytest.raises(TimeoutExceeded, match="schedule oracle"):
        best_schedule_bruteforce(huc5, deadline=past)
    with pytest.raises(TimeoutError):
        best_schedule_bruteforce(huc5, deadline=past)


def test_initial_state_override(huc5):
    inst = HucInstance(
        periods=huc5.periods,
        points=huc5.points,
        ramp_up=huc5.ramp_up,
        ramp_down=huc5.ramp_down,
        min_updown=huc5.min_updown,
        prices=huc5.prices,
        water_value_upstream=huc5.water_value_upstream,
        water_value_downstream=huc5.water_value_downstream,
        win_lo=huc5.win_lo,
        win_hi=huc5.win_hi,
        initial_point=1,
        initial_hold=2,
    )
    oracle = best_schedule_bruteforce(inst)
    sol = solve_huc(inst)
    if oracle is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.revenue == oracle[0]
        # started holding after an up-move: no down-move before the hold runs out
        first_down = next((t for t, l in enumerate(sol.schedule, start=1)
                           if l < ([inst.initial_point] + sol.schedule)[t - 1]), None)
        if first_down is not None:
            assert first_down >= inst.initial_hold + 1


# -- MILP export -----------------------------------------------------------------


CONSTRAINT_RE = re.compile(r"^(\w+):\s*(.*);$")


def parse_lp(text: str):
    rows = {}
    objective = None
    binaries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("/*"):
            continue
        if line.startswith("max:"):
            objective = line[len("max:"):].strip().rstrip(";")
            continue
        if line.startswith("bin "):
            binaries = [v.strip() for v in line[len("bin "):].rstrip(";").split(",")]
            continue
        match = CONSTRAINT_RE.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    return objective, rows, binaries


def objective_coefficients(objective: str) -> dict[str, Fraction]:
    coefs = {}
    for sign, mag, name in re.findall(r"([+-]?)\s*([0-9.]+)\s+(\w+)", objective):
        coefs[name] = rat(("-" if sign == "-" else "") + mag)
    return coefs


def test_export_counts_and_coefficients(huc5):
    buf = io.StringIO()
    export_milp(huc5, buf)
    objective, rows, binaries = parse_lp(buf.getvalue())
    xs = [b for b in binaries if b.startswith("x_")]
    vs = [b for b in binaries if b.startswith("v_")]
    assert len(xs) == 5 * 2 == 10
    assert len(vs) == 4 * 2 == 8
    T, I, L = 5, 2, 3
    expected_rows = T + T * (I - 1) + 2 * (T - 1) + 2 * (T - L + 1) * I + (T - 1) * I
    assert len(rows) == expected_rows == 38
    coefs = objective_coefficients(objective)
    assert coefs["x_2_2"] == rat("-6.2")
    assert coefs["x_2_1"] == rat("-6.8")
    # ranged flow rows carry both window sides
    assert rows["flow_3"].startswith("7 <=")
    assert rows["flow_3"].endswith("<= 18")


def test_export_single_period_minimal():
    inst = HucInstance(
        periods=1,
        points=(
            OperatingPoint(F(0), F(0)),
            OperatingPoint(F(3), F(5)),
        ),
        ramp_up=F(3),
        ramp_down=F(3),
        min_updown=1,
        prices=(F(2),),
        water_value_upstream=F(0),
        water_value_downstream=F(0),
        win_lo=(F(0),),
        win_hi=(F(3),),
    )
    buf = io.StringIO()
    export_milp(inst, buf)
    _, rows, binaries = parse_lp(buf.getvalue())
    assert list(rows) == ["flow_1"]
    assert binaries == ["x_1_1"]


def test_paths_biject_with_legal_schedules():
    """Holds evolve deterministically given the level sequence, so s-p
    paths of the compiled graph correspond one-to-one to legal schedules
    (windows ignored on both sides)."""
    for seed in range(12):
        rng = random.Random(800 + seed)
        inst = random_huc(random.Random(seed), 2 + seed % 4, 2 + seed % 3, 1 + seed % 3)
        if seed % 3 == 0:
            inst = HucInstance(**{
                **inst.__dict__,
                "initial_point": rng.randrange(len(inst.points)),
                "initial_hold": rng.randint(-(inst.min_updown - 1), inst.min_updown - 1),
            })
        relaxed = HucInstance(**{
            **inst.__dict__,
            "win_lo": tuple(F(0) for _ in range(inst.periods)),
            "win_hi": tuple(F(10**9) for _ in range(inst.periods)),
        })
        legal = sum(
            1 for sched in _all_schedules(relaxed) if schedule_is_legal(relaxed, list(sched))
        )
        dag, _ = reached_graph(relaxed)
        assert brute_force(dag).total_count == legal, f"seed {seed}"


# -- internal invariants raise typed errors ------------------------------------


def test_solve_huc_rejects_an_optimal_answer_without_path(huc5, monkeypatch):
    from borwin import huc
    from borwin.phase1 import GraphInvariantError
    from borwin.phase2 import SolveStats
    from borwin.solver import OPTIMAL, AwclppSolution

    monkeypatch.setattr(huc, "solve_tight", lambda dag, **kw: AwclppSolution(OPTIMAL, None, F(0), None, SolveStats()))
    with pytest.raises(GraphInvariantError, match="no path"):
        solve_huc(huc5)


def test_random_huc_rejects_an_illegal_walked_schedule(monkeypatch):
    from borwin import generate
    from borwin.phase1 import GraphInvariantError

    monkeypatch.setattr(generate, "schedule_is_legal", lambda inst, schedule: False)
    with pytest.raises(GraphInvariantError, match="illegal schedule"):
        random_huc(random.Random(0), 6, 3, 2)
