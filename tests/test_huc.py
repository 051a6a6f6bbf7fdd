import io
import random
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borwin import graph, huc
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
    OperatingPoint,
    best_schedule_bruteforce,
    build_graph,
    check_path_legality,
    cumulative_flows,
    cumulative_values,
    export_milp,
    legal_moves,
    reached_graph,
    schedule_is_legal,
    solve_huc,
    value_table,
)
from borwin.rational import rat

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


def test_cumulative_values_are_computed_once_per_instance(monkeypatch):
    """The compile and the knapsack bound share one table, kept on the
    instance and left out of its equality."""
    from dataclasses import replace

    from borwin import huc

    inst = random_huc(random.Random(2), 24, 3, 2)
    calls = []
    monkeypatch.setattr(huc, "value_table", lambda i: calls.append(i) or value_table(i))
    first = solve_huc(inst)
    assert len(calls) == 1
    assert solve_huc(inst).revenue == first.revenue
    assert len(calls) == 1
    fresh = replace(inst)
    assert fresh == inst and fresh._cum_values is None


def test_cumulative_flows(huc5):
    assert cumulative_flows(huc5) == [F(0), F(6), F(11)]


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
    # fabricate vertex sequences and check the reported rule names
    from borwin.graph import Arc, Path

    def fake_path(states):
        verts = [vmap.id_of(*s) for s in states]
        arcs = tuple(Arc(u, v, F(0), F(0)) for u, v in zip(verts, verts[1:]))
        return Path(start=verts[0], arcs=arcs, value=F(0), resource=F(0),
                    prefix_resources=tuple(F(0) for _ in verts))

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
    """Small instances with fractional flows, a random inherited state and
    point, narrow, loose or shifted windows around a walked schedule."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    inst = random_huc(rng, draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    points = (inst.points[0],) + tuple(
        OperatingPoint(p.flow / draw(st.sampled_from([1, 1, 2, 3])), p.power) for p in inst.points[1:]
    )
    level = draw(st.integers(0, inst.levels - 1))
    hold = draw(st.integers(-(inst.min_updown - 1), inst.min_updown - 1))
    inst = replace(inst, points=points, initial_point=level, initial_hold=hold)
    flows = cumulative_flows(inst)
    cum = F(0)
    lo, hi = [], []
    for _ in range(inst.periods):
        level, hold = rng.choice(legal_moves(inst, flows, level, hold))
        cum += flows[level]
        kind = draw(st.sampled_from(["point", "narrow", "loose", "shifted"]))
        below, above = (F(rng.randrange(3), 2), F(rng.randrange(3), 2)) if kind == "narrow" else (F(0), F(0))
        if kind == "loose":
            below, above = F(rng.randrange(20)), F(rng.randrange(20))
        shift = F(rng.randrange(1, 4), 3) if kind == "shifted" else F(0)
        lo.append(cum - below + shift)
        hi.append(cum + above + shift)
    return replace(inst, win_lo=tuple(lo), win_hi=tuple(hi))


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


@given(windowed_hucs(), st.lists(st.sampled_from([1, 2, 3, 7]), min_size=3, max_size=3))
@example(ROUNDED_HULL, [1, 1, 1])
@settings(max_examples=100, deadline=None)
def test_solve_graph_integers_are_the_ones_the_graph_derives(inst, dens):
    """Both compiles fill in the integer arcs while emitting; they equal
    what the graph derives from its Fraction arcs, also with fractional
    powers, prices and water values."""
    power_den, price_den, water_den = dens
    inst = replace(
        inst,
        points=tuple(OperatingPoint(p.flow, p.power / power_den) for p in inst.points),
        prices=tuple(q / price_den for q in inst.prices),
        water_value_upstream=inst.water_value_upstream / water_den,
    )
    full, _ = build_graph(inst)
    ints, ref = full.int_arcs(), IntArcs.of(full.arcs)
    assert (ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (ref.dst, ref.val, ref.res, ref.dv, ref.dr)
    compiled = huc._solve_graph(inst)
    if compiled is None:
        return
    dag, vmap = compiled
    fresh = WindowedDag(dag.windows, dag.arcs, dag.source, dag.sink)
    ints, ref = dag.int_arcs(), IntArcs.of(dag.arcs)
    assert (ints.dst, ints.val, ints.res, ints.dv, ints.dr) == (ref.dst, ref.val, ref.res, ref.dv, ref.dr)
    assert dag.int_windows() == fresh.int_windows()
    assert dag.topo_order == fresh.topo_order
    assert vmap.count == dag.n and validate(dag).ok
    for v, (t, _, _) in enumerate(vmap.states):
        if 1 <= t <= inst.periods:
            assert inst.win_lo[t - 1] <= dag.windows[v].lo <= dag.windows[v].hi <= inst.win_hi[t - 1]


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


def test_solve_compile_honours_the_deadline(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran after the deadline")

    monkeypatch.setattr(huc, "solve_awclpp", unreachable)
    inst = random_huc(random.Random(0), 1200, 3, 2)
    with pytest.raises(TimeoutExceeded, match="HUC compile"):
        solve_huc(inst, deadline=time.monotonic() - 1.0)


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

    monkeypatch.setattr(huc, "solve_awclpp", lambda dag, **kw: AwclppSolution(OPTIMAL, None, F(0), None, SolveStats()))
    with pytest.raises(GraphInvariantError, match="no path"):
        solve_huc(huc5)


def test_random_huc_rejects_an_illegal_walked_schedule(monkeypatch):
    from borwin import generate
    from borwin.phase1 import GraphInvariantError

    monkeypatch.setattr(generate, "schedule_is_legal", lambda inst, schedule: False)
    with pytest.raises(GraphInvariantError, match="illegal schedule"):
        random_huc(random.Random(0), 6, 3, 2)
