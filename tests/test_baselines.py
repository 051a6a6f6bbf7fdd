import random
import time
from fractions import Fraction

import pytest

from borwin.baselines import TooLarge, brute_force, rcsp_label_setting, relaxed_longest
from borwin.generate import random_dag, random_huc
from borwin.graph import Arc, GraphError, TimeoutExceeded, Window, WindowedDag, check_windows
from borwin.huc import reached_graph, solve_huc
from borwin.phase1 import Infeasible, Pair, SolvedAtSp, run_phase1
from borwin.solver import solve_awclpp

F = Fraction


def test_brute_force_fixture(wclpp):
    res = brute_force(wclpp)
    assert res.total_count == 5
    assert res.feasible_count == 2
    assert res.value == 29
    assert res.witness.labelled(wclpp) == ["s", "1", "2", "p"]
    assert check_windows(wclpp, res.witness) is None


def test_brute_force_single_arc():
    dag = WindowedDag(
        [Window(F(0), F(0)), Window(F(2), F(4))],
        [Arc(0, 1, F(7), F(3))],
        0,
        1,
        labels=["s", "p"],
    )
    res = brute_force(dag)
    assert res.value == 7 and res.total_count == 1 and res.feasible_count == 1


def test_brute_force_infeasible(wclpp):
    windows = list(wclpp.windows)
    windows[4] = Window(F(41), F(45))
    res = brute_force(WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels))
    assert res.status == "infeasible"
    assert res.total_count == 5 and res.feasible_count == 0


def test_brute_force_cap(wclpp):
    with pytest.raises(TooLarge):
        brute_force(wclpp, cap=3)


def test_fast_mode_matches_strict():
    for seed in range(60):
        dag = random_dag(random.Random(seed), 3 + seed % 9)
        strict = brute_force(dag, strict=True)
        fast = brute_force(dag, strict=False)
        assert fast.status == strict.status
        assert fast.value == strict.value
        assert fast.feasible_count == strict.feasible_count
        assert fast.total_count is None


def test_rcsp_fixture(wclpp):
    res = rcsp_label_setting(wclpp)
    assert res.value == 29
    assert res.witness.labelled(wclpp) == ["s", "1", "2", "p"]


def test_rcsp_matches_oracle_random():
    for seed in range(120):
        dag = random_dag(random.Random(seed), 2 + seed % 10)
        oracle = brute_force(dag)
        res = rcsp_label_setting(dag)
        assert res.status == oracle.status, f"seed {seed}"
        assert res.value == oracle.value, f"seed {seed}"


def test_rcsp_no_lower_bounds_reduces_to_classic(wclpp):
    # drop all lower bounds: only upper bounds limit the (vertex,
    # resource) states, and the optimum must not change from full
    # enumeration
    windows = [Window(None, w.hi) for w in wclpp.windows]
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels)
    assert rcsp_label_setting(dag).value == brute_force(dag).value


def test_rcsp_finishes_what_borwin_solves():
    # many paths reach each (vertex, resource) state of these two; the
    # DP keeps one per state and needs milliseconds of the 5 s deadline
    dag = random_dag(random.Random(2), 120)
    res = rcsp_label_setting(dag, deadline=time.monotonic() + 5)
    sol = solve_awclpp(dag)
    assert (res.status, res.value) == (sol.status, sol.value)
    inst = random_huc(random.Random(2), 48, 3, 2)
    res = rcsp_label_setting(reached_graph(inst)[0], deadline=time.monotonic() + 5)
    sol = solve_huc(inst)
    assert (res.status, res.value) == (sol.status, sol.revenue)


def test_relaxed_longest_fixture(wclpp):
    assert relaxed_longest(wclpp) == 33


def test_relaxed_longest_ignores_windows(wclpp):
    windows = [Window(None, None)] * wclpp.n
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels)
    assert relaxed_longest(dag) == relaxed_longest(wclpp)


def test_bound_sandwich_random():
    for seed in range(80):
        dag = random_dag(random.Random(seed), 3 + seed % 9)
        top = relaxed_longest(dag)
        out = run_phase1(dag)
        oracle = brute_force(dag)
        if isinstance(out, Pair):
            assert top >= out.ub_v1
            if oracle.status == "optimal":
                assert out.ub_v1 >= oracle.value
        elif isinstance(out, SolvedAtSp):
            if oracle.status == "optimal":
                assert top >= oracle.value
        else:
            assert isinstance(out, Infeasible)
            assert oracle.status == "infeasible"


def test_brute_force_walks_a_long_chain():
    # deeper than Python's default recursion limit
    n = 1500
    windows = [Window(None, None)] * (n - 1) + [Window(F(n - 1), F(n - 1))]
    arcs = [Arc(u, u + 1, F(1), F(1)) for u in range(n - 1)]
    dag = WindowedDag(windows, arcs, 0, n - 1)
    for strict in (True, False):
        res = brute_force(dag, strict=strict)
        assert res.value == n - 1 and res.feasible_count == 1
        assert res.witness.arc_ids == tuple(range(n - 1))
    assert brute_force(dag).total_count == 1


def test_brute_force_rejects_cyclic_input():
    dag = random_dag(random.Random(2), 6)
    cyclic = WindowedDag(dag.windows, [*dag.arcs, Arc(4, 1, F(1), F(1))], dag.source, dag.sink)
    assert cyclic.topo_order is None
    for strict in (True, False):
        with pytest.raises(GraphError, match="not acyclic"):
            brute_force(cyclic, strict=strict)


def test_rcsp_deadline_overrun_is_small():
    # a chain of 600 parallel arcs per step, resources 0..599, inside
    # windows [0, 600]: every vertex past the first holds about 600
    # states and each tries 600 arcs, which mostly land on a state of
    # equal value; the whole DP takes seconds and stays small in memory
    steps, width = 100, 600
    arcs = [Arc(u, u + 1, F(1), F(r)) for u in range(steps) for r in range(width)]
    dag = WindowedDag([Window(F(0), F(width))] * (steps + 1), arcs, 0, steps)
    dag.int_windows()
    start = time.monotonic()
    with pytest.raises(TimeoutExceeded):
        rcsp_label_setting(dag, deadline=start + 0.5)
    assert time.monotonic() - start < 0.6
