import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from borwin import graph, phase1
from borwin.baselines import brute_force
from borwin.generate import random_dag
from borwin.graph import Arc, TimeoutExceeded, Window, WindowedDag, check_windows, path_by_vertices
from borwin.phase1 import (
    LID,
    LIE,
    Infeasible,
    NotAPair,
    Pair,
    SolvedAtSp,
    integer_round_ub,
    lagrangian_theta,
    orient_dag,
    oriented_resource,
    run_phase1,
    search_space,
)
from borwin.solver import solve_awclpp

F = Fraction


def with_sink_window(dag, lo, hi):
    windows = list(dag.windows)
    windows[dag.sink] = Window(lo, hi)
    return WindowedDag(windows, dag.arcs, dag.source, dag.sink, labels=dag.labels)


# -- worked example ------------------------------------------------------------


def test_fixture_pair(wclpp):
    events = []
    out = run_phase1(wclpp, trace=events.append)
    assert isinstance(out, Pair)
    assert (out.x_a.value, out.x_a.resource) == (33, 16)
    assert (out.x_b.value, out.x_b.resource) == (32, 35)
    assert out.delta == F(1, 19)
    assert out.ub_mu == F(643, 19)
    assert out.ub_v1 == F(623, 19)
    assert out.orientation == LID
    assert out.beta == 20 and out.alpha == 29
    assert out.iterations == 2
    assert [e.delta for e in events] == [F(7, 24), F(1, 19)]


def test_fixture_straddle(wclpp):
    out = run_phase1(wclpp)
    assert oriented_resource(out, out.x_b) >= out.beta > oriented_resource(out, out.x_a)
    assert out.x_a.value + out.delta * out.x_a.resource == out.x_b.value + out.delta * out.x_b.resource


def test_integer_rounding(wclpp):
    out = run_phase1(wclpp)
    assert integer_round_ub(out, True) == 32
    assert integer_round_ub(out, False) == F(623, 19)


def test_integer_rounding_integral_bound(wclpp):
    out = Pair(
        a_tails=out_ref(wclpp).a_tails,
        b_tails=out_ref(wclpp).b_tails,
        delta=F(1),
        ub_mu=F(20),
        ub_v1=F(17),
        orientation=LID,
        beta=F(3),
        alpha=None,
        iterations=1,
        tails=out_ref(wclpp).tails,
        sp_tails=out_ref(wclpp).sp_tails,
    )
    assert integer_round_ub(out, True) == 17
    assert integer_round_ub(out, False) == 17


_ref = {}


def out_ref(wclpp):
    if "pair" not in _ref:
        _ref["pair"] = run_phase1(wclpp)
    return _ref["pair"]


def test_not_a_pair_errors(wclpp):
    solved = with_sink_window(wclpp, F(10), F(20))
    out = run_phase1(solved)
    assert isinstance(out, SolvedAtSp)
    with pytest.raises(NotAPair):
        integer_round_ub(out, True)
    with pytest.raises(NotAPair):
        search_space(out)


def test_solved_at_sp(wclpp):
    # the relaxed optimum has resource 16; widen the sink window around it
    solved = with_sink_window(wclpp, F(10), F(20))
    out = run_phase1(solved)
    assert isinstance(out, SolvedAtSp)
    assert out.path.value == 33
    assert out.delta == 0


def test_infeasible_when_beta_exceeds_max_resource(wclpp):
    out = run_phase1(with_sink_window(wclpp, F(41), F(45)))
    assert isinstance(out, Infeasible)
    assert out.max_resource == 40


# -- search space ---------------------------------------------------------------


def test_search_space_membership(wclpp):
    ss = search_space(run_phase1(wclpp))
    pi3 = path_by_vertices(wclpp, ["s", "1", "2", "p"])
    pi4 = path_by_vertices(wclpp, ["s", "1", "3", "p"])
    pi1 = path_by_vertices(wclpp, ["s", "1", "3", "2", "p"])
    assert pi3.value == 29 and pi3.resource == 25
    assert ss.contains(pi3)
    assert not ss.contains(pi4)  # resource 16 below the sink lower bound
    assert not ss.contains(pi1)  # resource 35 above the sink upper bound


# -- dual function ----------------------------------------------------------------


def test_theta_at_zero_is_relaxed_optimum(wclpp):
    assert lagrangian_theta(wclpp, F(0), F(20)) == 33


def test_theta_at_delta_matches_bound(wclpp):
    out = run_phase1(wclpp)
    assert lagrangian_theta(wclpp, out.delta, out.beta) == out.ub_v1 == F(623, 19)


def test_theta_is_minimized_at_delta(wclpp):
    out = run_phase1(wclpp)
    for k in range(0, 41):
        lam = F(k, 20) * (2 * out.delta + 1)
        assert lagrangian_theta(wclpp, lam, out.beta) >= out.ub_v1
    assert lagrangian_theta(wclpp, F(1), F(20)) == 47


# -- orientation -------------------------------------------------------------------


def test_orient_dag_flips_resources_and_windows(wclpp):
    flipped = orient_dag(wclpp)
    assert [a.resource for a in flipped.arcs] == [-a.resource for a in wclpp.arcs]
    w = flipped.windows[wclpp.vertex("3")]
    assert (w.lo, w.hi) == (-15, -10)
    assert flipped.windows[0] == Window(None, None)


def lie_instance():
    """Relaxed optimum overshoots the sink upper bound; optimum is the
    cheaper low-resource path."""
    labels = ["s", "a", "b", "p"]
    windows = [Window(F(0), F(0)), Window(), Window(), Window(F(0), F(6))]
    arcs = [
        Arc(0, 1, F(9), F(8)),
        Arc(0, 2, F(4), F(2)),
        Arc(1, 3, F(1), F(1)),
        Arc(2, 3, F(1), F(1)),
    ]
    return WindowedDag(windows, arcs, 0, 3, labels=labels)


def test_lie_orientation_detected():
    out = run_phase1(lie_instance())
    assert isinstance(out, Pair)
    assert out.orientation == LIE
    # oriented coordinates: beta = -6 (the negated upper bound)
    assert out.beta == -6
    assert oriented_resource(out, out.x_b) >= out.beta > oriented_resource(out, out.x_a)


def test_lie_solved_end_to_end():
    dag = lie_instance()
    sol = solve_awclpp(dag)
    oracle = brute_force(dag)
    assert sol.status == "optimal"
    assert sol.value == oracle.value == 5
    assert check_windows(dag, sol.path) is None


# -- randomized properties -----------------------------------------------------------


def test_soundness_and_straddle_random():
    checked_pairs = 0
    for seed in range(120):
        dag = random_dag(random.Random(seed), 2 + seed % 9)
        oracle = brute_force(dag)
        out = run_phase1(dag)
        if isinstance(out, Infeasible):
            assert oracle.status == "infeasible"
            continue
        if isinstance(out, SolvedAtSp):
            if oracle.status == "optimal":
                assert oracle.value <= out.path.value
            continue
        checked_pairs += 1
        assert oriented_resource(out, out.x_b) >= out.beta > oriented_resource(out, out.x_a)
        if oracle.status == "optimal":
            assert oracle.value <= out.ub_v1
            ss = search_space(out)
            assert ss.contains(oracle.witness)
    assert checked_pairs >= 10


def test_pair_bound_is_tightest_supported_bound(wclpp):
    """Enumerate all supported pairs by brute force over path images and
    check the returned bound is minimal among straddling consecutive pairs."""
    out = run_phase1(wclpp)
    images = sorted(
        {
            (p.value, p.resource)
            for p in (
                path_by_vertices(wclpp, names)
                for names in (
                    ["s", "1", "3", "2", "p"],
                    ["s", "3", "p"],
                    ["s", "1", "2", "p"],
                    ["s", "1", "3", "p"],
                    ["s", "3", "2", "p"],
                )
            )
        }
    )
    # supported = on the upper-right convex hull of the images
    hull = []
    for v, r in sorted(images, key=lambda x: (x[0], x[1])):
        hull.append((v, r))
    supported = [
        (v, r)
        for v, r in hull
        if not any(
            v2 >= v and r2 >= r and (v2, r2) != (v, r) for v2, r2 in hull
        )
        and _on_hull((v, r), hull)
    ]
    supported.sort()
    best = None
    for (v1, r1), (v2, r2) in zip(supported, supported[1:]):
        if r1 >= 20 > r2:
            delta = (v2 - v1) / (r1 - r2)
            bound = v2 + delta * r2 - delta * 20
            best = bound if best is None else min(best, bound)
    assert best == out.ub_v1


def _on_hull(point, points):
    v, r = point
    for (va, ra) in points:
        for (vb, rb) in points:
            if (va, ra) == (vb, rb):
                continue
            # point strictly below segment a-b in both objectives
            if min(va, vb) < v < max(va, vb):
                t = F(v - va, vb - va)
                if ra + t * (rb - ra) > r:
                    return False
    return True


# -- deadline -----------------------------------------------------------------


def test_past_deadline_stops_phase1_before_any_pop(wclpp):
    past = time.monotonic() - 1.0
    with pytest.raises(TimeoutExceeded, match="bounding phase"):
        run_phase1(wclpp, deadline=past)
    events = []
    with pytest.raises(TimeoutExceeded, match="bounding phase"):
        solve_awclpp(wclpp, deadline=past, trace_phase2=events.append)
    assert events == []


def test_deadline_is_checked_before_every_dichotomy_sweep(wclpp, monkeypatch):
    """The clock passes the deadline after the third sweep: the fourth
    (the second dichotomy round) is never made."""
    sweeps = []
    real_all_tails = phase1.all_tails

    def counting(dag, delta, *rest):
        sweeps.append(delta)
        return real_all_tails(dag, delta, *rest)

    monkeypatch.setattr(phase1, "all_tails", counting)
    clock = SimpleNamespace(monotonic=lambda: 10.0 if len(sweeps) >= 3 else 0.0)
    monkeypatch.setattr(graph, "time", clock)
    assert run_phase1(wclpp).iterations >= 2
    sweeps.clear()
    with pytest.raises(TimeoutExceeded):
        run_phase1(wclpp, deadline=5.0)
    assert len(sweeps) == 3
