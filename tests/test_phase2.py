import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borwin import graph, huc, phase2, solver
from borwin.baselines import brute_force, rcsp_label_setting
from borwin.bounds import NMCKP, UbProvider, ValueTailBound
from borwin.generate import GeneratorConfig, generate, random_dag
from borwin.graph import (
    Arc,
    TimeoutExceeded,
    Window,
    WindowedDag,
    all_tails,
    check_windows,
    path_by_vertices,
    path_metrics,
)
from borwin.huc import build_graph, nmckp_of_instance, solve_huc
from borwin.io import dag_from_dict, huc_from_dict
from borwin.phase1 import Infeasible, Pair, SolvedAtSp, relaxed_optimum, run_phase1
from borwin.phase2 import (
    Label,
    NoFeasiblePath,
    feasible_hybrid,
    lower_bound_mu,
    relaxed_violation,
    run_phase2,
)
from borwin.solver import solve_awclpp

F = Fraction


def explicit_label(dag, prefix_names, tail_names, delta):
    """Build a label from explicit vertex sequences (tests only); returns
    it with the next-arc array of its tail."""
    if len(prefix_names) > 1:
        prefix = path_by_vertices(dag, prefix_names)
        anchor = prefix.end
        p_v, p_r = prefix.value, prefix.resource
    else:
        anchor = dag.vertex(prefix_names[0]) if prefix_names else dag.source
        p_v, p_r = F(0), F(0)
    tail = [None] * dag.n
    t_v, t_r = F(0), F(0)
    if len(tail_names) > 1:
        path = path_by_vertices(dag, tail_names)
        for u, aid in zip(path.vertices(), path.arc_ids):
            tail[u] = aid
        t_v, t_r = path.value, path.resource
    arcs = dag.int_arcs()
    mu = (p_v + t_v + delta * (p_r + t_r)) * arcs.dv * arcs.dr * delta.denominator
    return Label(int(mu), anchor, int(p_v * arcs.dv), int(p_r * arcs.dr), None, 0, None), tail


# -- feasible_hybrid -------------------------------------------------------------


def test_hybrid_violation_on_long_tail(wclpp):
    label, tail = explicit_label(wclpp, ["s"], ["s", "1", "3", "2", "p"], F(1, 19))
    violation = feasible_hybrid(wclpp, label, tail)
    assert violation.vertex == wclpp.vertex("p")
    assert violation.side == "hi"  # 35 over 29


def test_hybrid_feasible_at_sink(wclpp):
    label, tail = explicit_label(wclpp, ["s", "1", "2", "p"], ["p"], F(1, 19))
    assert feasible_hybrid(wclpp, label, tail) is None


def test_hybrid_prefix_short_at_sink(wclpp):
    label, tail = explicit_label(wclpp, ["s", "1", "3", "p"], ["p"], F(1, 19))
    violation = feasible_hybrid(wclpp, label, tail)
    assert violation.vertex == wclpp.vertex("p")
    assert violation.side == "lo"  # 16 under 20


# -- lower bound ------------------------------------------------------------------


def test_lower_bound_values():
    assert lower_bound_mu(F(29), F(1, 19), F(20)) == F(571, 19)
    assert lower_bound_mu(F(29), F(0), None) == 29
    assert F(534, 19) < F(571, 19)  # the (s,3) hybrid falls below the bound


# -- worked example ----------------------------------------------------------------


def test_fixture_enumeration_trace(wclpp):
    out = run_phase1(wclpp)
    assert isinstance(out, Pair)
    events = []
    result = run_phase2(wclpp, out.delta, trace=events.append)
    assert result.best.labelled(wclpp) == ["s", "1", "2", "p"]
    assert result.value == 29
    assert result.value == brute_force(wclpp).value

    pops = [e for e in events if e.kind == "pop"]
    assert result.stats.phase2_iterations == len(pops) <= 3
    assert pops[0].feasible is False  # the aggregated optimum misses the sink window

    incumbent_at = next(i for i, e in enumerate(events) if e.kind == "pop" and e.action == "incumbent")
    prunes = [
        (i, e)
        for i, e in enumerate(events)
        if e.kind == "prune" and e.rule == "bound"
    ]
    # the (s,3)-prefixed label is removed by the aggregate bound during the
    # handling of the incumbent pop (purge events precede the pop event)
    s3 = (wclpp.vertex("s"), wclpp.vertex("3"))
    assert any(e.prefix[:2] == s3 and i <= incumbent_at for i, e in prunes)
    assert result.stats.labels_pruned_bound >= 1


def test_first_label_feasible_single_pop(wclpp):
    # widen the sink window so the relaxed optimum is feasible, then run
    # the enumeration anyway with delta = 0
    windows = list(wclpp.windows)
    windows[4] = Window(F(10), F(20))
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels)
    result = run_phase2(dag, F(0))
    assert result.value == 33
    assert result.stats.phase2_iterations == 1


def test_no_feasible_path_raises(wclpp):
    windows = list(wclpp.windows)
    windows[4] = Window(F(41), F(45))
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels)
    with pytest.raises(NoFeasiblePath):
        run_phase2(dag, F(1, 19))


def test_infeasible_solve_keeps_enumeration_stats():
    # phase 1 returns a pair and the presolve's hulls keep a path open,
    # but no path meets every window: the store empties with no incumbent
    rng = random.Random(840)
    dag = random_dag(rng, rng.randint(5, 40), density=rng.choice([0.3, 0.6, 0.9]))
    assert brute_force(dag).status == "infeasible"
    sol = solve_awclpp(dag)
    assert sol.status == "infeasible"
    assert isinstance(sol.phase1, Pair) and sol.phase1.iterations >= 1
    assert sol.stats.phase1_iterations == sol.phase1.iterations
    assert 0 < sol.stats.arcs_cut < len(dag.arcs)
    assert sol.stats.phase2_iterations > 0
    assert sol.stats.labels_created >= sol.stats.phase2_iterations


def test_phase1_tails_serve_phase2(wclpp):
    out = run_phase1(wclpp)
    assert out.tails.dag is wclpp and out.tails.delta == out.delta
    reused = run_phase2(wclpp, out.delta, tails=out.tails)
    fresh = run_phase2(wclpp, out.delta)
    assert (reused.value, reused.best.arc_ids, reused.stats) == (fresh.value, fresh.best.arc_ids, fresh.stats)
    with pytest.raises(ValueError):
        run_phase2(wclpp, F(0), tails=out.tails)
    # LIE: the pair's tails are a sign = -1 sweep of the instance phase 1
    # ran on. The solve runs phase 1 on the presolved view, whose relaxed
    # optimum overshoots the sink here, and its search is phase 2 on the
    # same view with the pair's own sweeps.
    dag = random_dag(random.Random(492), 2 + 492 % 11)
    view = graph.presolve(dag)
    out = run_phase1(view)
    assert out.orientation == "lie" and out.delta > 0
    assert out.tails.dag is view and out.tails.sign == -1
    reused = run_phase2(view, out.delta, ValueTailBound(view, out.sp_tails), tails=out.tails)
    searched = run_phase2(
        view, out.delta, ValueTailBound(view, out.sp_tails), tails=all_tails(view, out.delta, out.tails.sign)
    )
    searched.stats.phase1_iterations = out.iterations
    searched.stats.arcs_cut = len(dag.arcs) - sum(map(len, view.out_arcs))
    sol = solve_awclpp(dag)
    assert (searched.value, searched.best.arc_ids, searched.stats) == (sol.value, sol.path.arc_ids, sol.stats)
    assert reused.value == sol.value


def test_feasible_pops_still_extend():
    """A feasible pop whose tail is aggregate-best but value-poor must not
    end the search: the better completion through the same anchor wins."""
    labels = ["s", "v", "a", "b", "p"]
    windows = [Window(F(0), F(0)), Window(), Window(), Window(), Window(F(5), F(11))]
    arcs = [
        Arc(0, 1, F(0), F(0)),   # s->v
        Arc(1, 4, F(10), F(11)),  # v->p   feasible, value 10
        Arc(1, 2, F(12), F(0)),   # v->a
        Arc(2, 4, F(0), F(5)),    # a->p   completes value 12
        Arc(0, 3, F(20), F(0)),   # s->b   relaxed optimum, infeasible
        Arc(3, 4, F(0), F(0)),    # b->p
    ]
    dag = WindowedDag(windows, arcs, 0, 4, labels=labels)
    oracle = brute_force(dag)
    assert oracle.value == 12
    sol = solve_awclpp(dag)
    assert sol.status == "optimal"
    assert sol.value == 12


# -- exactness and rule safety on random instances -----------------------------------


def test_matches_oracle_on_random_instances():
    for seed in range(150):
        dag = random_dag(random.Random(seed), 2 + seed % 10)
        oracle = brute_force(dag)
        sol = solve_awclpp(dag)
        if oracle.status == "infeasible":
            assert sol.status == "infeasible", f"seed {seed}"
        else:
            assert sol.status == "optimal", f"seed {seed}"
            assert sol.value == oracle.value, f"seed {seed}"
            assert check_windows(dag, sol.path) is None, f"seed {seed}"
            assert sol.path.value == sol.value, f"seed {seed}"


def test_rule_toggles_do_not_change_values():
    configs = [
        dict(use_dominance=False),
        dict(use_bound_prune=False, use_ub_prune=False),
        dict(use_dominance=False, use_bound_prune=False, use_ub_prune=False),
    ]
    for seed in range(40):
        dag = random_dag(random.Random(seed), 3 + seed % 8)
        base = solve_awclpp(dag)
        for cfg in configs:
            other = solve_awclpp(dag, **cfg)
            assert other.status == base.status, f"seed {seed} cfg {cfg}"
            assert other.value == base.value, f"seed {seed} cfg {cfg}"
            # disabling rules can only grow the enumeration
            assert other.stats.phase2_iterations >= base.stats.phase2_iterations


def test_popped_hybrid_bounds_feasible_completions(wclpp):
    """The aggregate of a popped hybrid is an upper bound for every feasible
    path sharing its prefix (checked by full enumeration)."""
    out = run_phase1(wclpp)
    delta = out.delta
    mus = []
    run_phase2(wclpp, delta, trace=lambda e: mus.append(e.mu) if e.kind == "pop" else None)
    first_mu = mus[0]
    for names in (
        ["s", "1", "2", "p"],
        ["s", "3", "p"],
    ):
        p = path_by_vertices(wclpp, names)
        assert p.value + delta * p.resource <= first_mu


def test_popped_mu_bounds_prefix_completions_random():
    """For every popped hybrid, its aggregate bounds every feasible full
    path extending that exact prefix (full enumeration per prefix)."""
    for seed in (2, 5, 11, 23):
        dag = random_dag(random.Random(seed), 7 + seed % 4)
        out = run_phase1(dag)
        if not isinstance(out, Pair) or out.orientation != "lid":
            continue
        pops = []
        run_phase2(
            dag,
            out.delta,
            trace=lambda e: pops.append(e) if e.kind == "pop" else None,
        )
        oracle = brute_force(dag)
        # collect all feasible full paths by strict enumeration
        feasible_paths = []

        def collect(u, ids):
            if u == dag.sink:
                p = path_metrics(dag, list(ids), start=dag.source)
                if check_windows(dag, p) is None:
                    feasible_paths.append(p)
                return
            for aid in dag.out_arcs[u]:
                collect(dag.arcs[aid].dst, ids + [aid])

        collect(dag.source, [])
        if oracle.status == "optimal":
            assert feasible_paths
        best_mu = max(
            (p.value + out.delta * p.resource for p in feasible_paths), default=None
        )
        if best_mu is not None and pops:
            assert pops[0].mu >= best_mu


def test_degenerate_source_equals_sink():
    dag = WindowedDag([Window(F(0), F(0))], [], 0, 0, labels=["s"])
    sol = solve_awclpp(dag)
    assert sol.status == "optimal" and sol.value == 0
    assert brute_force(dag).value == 0


def test_parallel_arcs_are_distinct():
    dag = WindowedDag(
        [Window(F(0), F(0)), Window(F(0), F(9))],
        [Arc(0, 1, F(5), F(8)), Arc(0, 1, F(7), F(12)), Arc(0, 1, F(6), F(3))],
        0,
        1,
        labels=["s", "p"],
    )
    oracle = brute_force(dag)
    assert oracle.total_count == 3 and oracle.feasible_count == 2
    sol = solve_awclpp(dag)
    assert sol.value == oracle.value == 6


def test_mixed_sign_resources_match_oracle():
    """Arc resources of both signs exercise the orientation logic and the
    sign-agnostic window checks; the label-setting baseline's states are
    (vertex, resource) pairs, which need no sign of resource."""
    from borwin.baselines import rcsp_label_setting

    for seed in range(120):
        rng = random.Random(40_000 + seed)
        base = random_dag(rng, 3 + seed % 9)
        arcs = [
            Arc(a.src, a.dst, a.value, a.resource - F(rng.randint(0, 8)))
            for a in base.arcs
        ]
        dag = WindowedDag(base.windows, arcs, base.source, base.sink, labels=base.labels)
        oracle = brute_force(dag)
        sol = solve_awclpp(dag)
        rcsp = rcsp_label_setting(dag)
        assert (sol.status == "optimal") == (oracle.status == "optimal"), seed
        assert rcsp.status == oracle.status, seed
        if oracle.status == "optimal":
            assert sol.value == oracle.value == rcsp.value, seed


# -- the enumeration's work on seeded instances ------------------------------------

# SolveStats counters: (phase-1 iterations, pops, labels created, pruned
# by the bound rule, by dominance, by the value bound). Phase 1 runs on
# the presolved view; the presolve proves n80-s0 infeasible before any
# dichotomy round or label exists.
PINNED_STATS = [
    (dict(family="dag", vertices=40, seed=3), "optimal", (3, 2, 18, 16, 0, 0)),
    (dict(family="dag", vertices=80, seed=0), "infeasible", (0, 0, 0, 0, 0, 0)),
    (dict(family="dag", vertices=80, seed=4), "optimal", (4, 14, 201, 317, 67, 2)),
    (dict(family="huc", periods=24, points=3, min_updown=3, seed=2), "optimal", (4, 13, 29, 17, 3, 1)),
]


# Instances of gate c03's generator (seed k has 2 + k % 11 vertices) whose
# presolved view ends phase 1 in a LIE pair: seeds 207 and 492 of the
# sweep, and the first two past it. Seed 835 ends phase 1 at delta = 0.
PINNED_LIE_STATS = [
    (207, (2, 2, 3, 1, 0, 0)),
    (492, (2, 3, 5, 1, 0, 2)),
    (659, (3, 5, 14, 9, 0, 0)),
    (835, (3, 2, 7, 7, 0, 0)),
]


@pytest.mark.parametrize("seed,counters", PINNED_LIE_STATS)
def test_lie_enumeration_counters_are_pinned(seed, counters):
    sol = solve_awclpp(random_dag(random.Random(seed), 2 + seed % 11))
    assert sol.phase1.orientation == "lie"
    s = sol.stats
    assert (
        s.phase1_iterations,
        s.phase2_iterations,
        s.labels_created,
        s.labels_pruned_bound,
        s.labels_pruned_dominance,
        s.labels_pruned_ub,
    ) == counters


def _solve_on_full_grid(inst, **kwargs):
    """A commitment instance solved on ``build_graph``'s full grid with
    the nested-knapsack value bound. The commitment pins in
    ``PINNED_STATS``, ``PINNED_TRACES`` and ``PINNED_BOUND_CALLS`` were
    recorded on this graph; ``solve_huc`` compiles only the
    window-feasible states and is pinned in ``PINNED_HUC_SOLVES``."""
    dag, vmap = build_graph(inst)
    stage_of_vertex = [min(t, inst.periods) for t, _, _ in vmap.states]
    provider = UbProvider(mode=NMCKP, mckp=nmckp_of_instance(inst), stage_of_vertex=stage_of_vertex)
    return solve_awclpp(dag, value_bound=provider, **kwargs)


def _solve_generated(config, **kwargs):
    data = generate(GeneratorConfig(**config))
    if config["family"] == "dag":
        return solve_awclpp(dag_from_dict(data), **kwargs)
    return _solve_on_full_grid(huc_from_dict(data), **kwargs)


@pytest.mark.parametrize("config,status,counters", PINNED_STATS)
def test_enumeration_counters_are_pinned(config, status, counters):
    sol = _solve_generated(config)
    s = sol.stats
    assert sol.status == status
    assert (
        s.phase1_iterations,
        s.phase2_iterations,
        s.labels_created,
        s.labels_pruned_bound,
        s.labels_pruned_dominance,
        s.labels_pruned_ub,
    ) == counters


def _count_labels(monkeypatch):
    made = []
    real = phase2.make_label

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(phase2, "make_label", counting)
    return made


@pytest.mark.parametrize(
    "config", [c for c, _, _ in PINNED_STATS], ids=["dag-n40-s3", "dag-n80-s0", "dag-n80-s4", "huc-T24-P3-L3-s2"]
)
def test_a_label_is_made_only_for_the_heap(config, monkeypatch):
    """A candidate that a rule prunes at birth never becomes a label, so
    the root and the heap entries are every label made."""
    made = _count_labels(monkeypatch)
    sol = _solve_generated(config)
    assert len(made) == sol.stats.labels_created


def test_a_lie_solve_makes_a_label_only_for_the_heap(monkeypatch):
    made = _count_labels(monkeypatch)
    seed = PINNED_LIE_STATS[1][0]  # prunes candidates at birth by the bound rule and by the value bound
    sol = solve_awclpp(random_dag(random.Random(seed), 2 + seed % 11))
    assert len(made) == sol.stats.labels_created


# sha256 over the repr of every trace event, one per line. Both phases
# run on the presolved view, so the digests are of its dichotomy (a LIE
# pair) and its enumeration.
PINNED_TRACES = [
    (PINNED_STATS[0][0], "trace_phase2", "d260cf6c18ceef2f4b4308d514800eaf90522046047d8a6e3c848eeaddaf9f4f"),
    (PINNED_STATS[3][0], "trace_phase2", "d45ee84a539ff2efa82aa0121fb95140d1f4a7d6f39baa24c02ed85cb831f08e"),
    (PINNED_STATS[3][0], "trace_phase1", "6b69e14f4c474af6b6de338a06a5ec7abae203e980175a8d6c61f4afb48fd79a"),
]


@pytest.mark.parametrize(
    "config,phase,digest", PINNED_TRACES, ids=["dag-n40-s3", "huc-T24-P3-L3-s2", "huc-T24-P3-L3-s2-phase1"]
)
def test_enumeration_trace_is_pinned(config, phase, digest):
    h = hashlib.sha256()
    _solve_generated(config, **{phase: lambda event: h.update(repr(event).encode() + b"\n")})
    assert h.hexdigest() == digest


# Value-bound calls of two commitment solves on the presolved full grid.
# New labels are scored at birth and waiting ones only when the incumbent
# improves, so a pop that keeps the incumbent makes no call. The digest
# is a sha256 over every call's "(vertex, prefix_resource, prefix_value,
# dr, dv) -> cap" line, all integers.
PINNED_BOUND_CALLS = [
    (PINNED_STATS[3][0], 8, "044f61a433cc06c8157029ff0fa9f053535d0e9a73e64aeebf2c15e6003baa01"),
    (
        dict(family="huc", periods=24, points=3, min_updown=2, seed=2),
        130,
        "331eddea89006cc5980006cb821ad6d18f60e5c95454a5306bfd5aa01f670855",
    ),
]


@pytest.mark.parametrize("config,calls,digest", PINNED_BOUND_CALLS, ids=["huc-T24-P3-L3-s2", "huc-T24-P3-L2-s2"])
def test_value_bound_calls_are_pinned(config, calls, digest, monkeypatch):
    made = _record_bound_calls(monkeypatch, UbProvider)
    assert _solve_generated(config).status == "optimal"
    assert len(made) == calls
    assert hashlib.sha256("".join(made).encode()).hexdigest() == digest


def _record_bound_calls(monkeypatch, provider):
    """Record every ``provider.bound`` call as a line, in call order."""
    made = []
    real_bound = provider.bound

    def counting(self, *args):
        out = real_bound(self, *args)
        made.append(f"{args!r} -> {out!r}\n")
        return out

    monkeypatch.setattr(provider, "bound", counting)
    return made


# The commitment instances above through solve_huc, whose graph keeps
# only the window-feasible states and whose value bound is the default
# value tails: the SolveStats counters, the number of value-bound calls
# with the digest of their lines, and the phase-2 trace digest. Each work
# counter is at most its full-grid value.
PINNED_HUC_SOLVES = [
    (
        PINNED_BOUND_CALLS[0][0],
        (4, 13, 29, 17, 3, 1),
        8,
        "ff1d64578a2a1878cdd4b926caf098562d8d5653617f772abe6df19745ea8af5",
        "884b53142a37993e9586b773df2690ee74b314b8b9b0ae2fe94b4e1d712cbbb9",
    ),
    (
        PINNED_BOUND_CALLS[1][0],
        (5, 81, 94, 66, 204, 38),
        133,
        "7bf7bc9213b4a3db05fb07105559d7835aff555ee9673922be91ae7701214b1f",
        "1b7a9460245fa735ca9f0ad7b3e96e220c007d9e33ceb0069c2fe9b3583437cb",
    ),
]


@pytest.mark.parametrize(
    "config,counters,calls,calls_digest,trace_digest", PINNED_HUC_SOLVES, ids=["huc-T24-P3-L3-s2", "huc-T24-P3-L2-s2"]
)
def test_commitment_solve_work_is_pinned(config, counters, calls, calls_digest, trace_digest, monkeypatch):
    made = _record_bound_calls(monkeypatch, ValueTailBound)
    h = hashlib.sha256()
    sol = solve_huc(
        huc_from_dict(generate(GeneratorConfig(**config))),
        trace_phase2=lambda event: h.update(repr(event).encode() + b"\n"),
    )
    assert sol.status == "optimal"
    s = sol.stats
    assert (
        s.phase1_iterations,
        s.phase2_iterations,
        s.labels_created,
        s.labels_pruned_bound,
        s.labels_pruned_dominance,
        s.labels_pruned_ub,
    ) == counters
    assert len(made) == calls
    assert hashlib.sha256("".join(made).encode()).hexdigest() == calls_digest
    assert h.hexdigest() == trace_digest
    assert sol.revenue == _solve_generated(config).value


def test_commitment_solve_builds_no_knapsack_bound(monkeypatch):
    """solve_huc bounds values with the default value tails of its
    compiled graph; the nested knapsack is a library bound it never builds."""

    def refuse(inst):
        raise AssertionError("solve_huc built the nested knapsack")

    monkeypatch.setattr(huc, "nmckp_of_instance", refuse)
    config = PINNED_BOUND_CALLS[1][0]
    sol = solve_huc(huc_from_dict(generate(GeneratorConfig(**config))))
    assert sol.status == "optimal"
    assert sol.stats.labels_pruned_ub > 0


def test_no_ub_provider_means_the_default_value_bound():
    """``value_bound=None`` is the window-relaxed value tails, not an off
    switch; ``use_ub_prune=False`` is."""
    config = dict(family="dag", vertices=80, seed=4)
    default = _solve_generated(config)
    assert default.stats.labels_pruned_ub > 0
    assert _solve_generated(config, value_bound=None).stats == default.stats
    assert _solve_generated(config, use_ub_prune=False).stats.labels_pruned_ub == 0


def _count_sweeps(monkeypatch):
    sweeps = []
    real_sweep = graph._sweep

    def counting(*args):
        sweeps.append(args[0])
        return real_sweep(*args)

    monkeypatch.setattr(graph, "_sweep", counting)
    return sweeps


def test_default_value_bound_reuses_the_phase1_sweep(monkeypatch):
    """A solve through a straddling pair sweeps the instance once at
    delta = 0, then the presolved view once at delta = 0, once at
    +infinity and once per dichotomy round. Phase 2 enumerates on the
    view's sweep at the pair's delta and bounds values with its delta = 0
    sweep, so it sweeps nothing itself."""
    dag = random_dag(random.Random(117), 2 + 117 % 11)
    sweeps = _count_sweeps(monkeypatch)
    sol = solve_awclpp(dag)
    assert isinstance(sol.phase1, Pair) and sol.value == brute_force(dag).value and sol.phase1.delta > 0
    assert len(sweeps) == 1 + sol.phase1.iterations + 2
    assert sweeps[0] is dag
    view = sol.phase1.tails.dag
    assert view is not dag and sweeps[1:] == [view] * (sol.phase1.iterations + 2)


def test_a_window_feasible_relaxed_optimum_skips_the_presolve(monkeypatch):
    """Gate c03's seed 30: the relaxed optimum of the instance as given
    meets every window, so it is the answer after one sweep, with no
    presolve, no cut arc and no pop."""
    dag = random_dag(random.Random(30), 10)
    assert len(dag.arcs) == 25

    def refuse(*args, **kwargs):
        raise AssertionError("the presolve ran on a relaxed-feasible instance")

    monkeypatch.setattr(solver, "presolve", refuse)
    sweeps = _count_sweeps(monkeypatch)
    sol = solve_awclpp(dag)
    assert (sol.status, sol.value) == ("optimal", 30) and sol.value == brute_force(dag).value
    assert isinstance(sol.phase1, SolvedAtSp) and sol.phase1.tails.dag is dag
    assert sweeps == [dag]
    assert sol.stats.arcs_cut == 0 and sol.stats.phase2_iterations == 0


def _count_paths(monkeypatch):
    built = []
    real_path_metrics = graph.path_metrics

    def counting(*args, **kwargs):
        built.append(tuple(args[1]))
        return real_path_metrics(*args, **kwargs)

    monkeypatch.setattr(graph, "path_metrics", counting)
    monkeypatch.setattr(phase2, "path_metrics", counting)
    return built


def test_relaxed_optimum_fallback_sweeps_once(monkeypatch):
    """The relaxed optimum s-b-v-w-p meets the sink window but breaks w's,
    and the presolve keeps all of it: v's hull [0, 10] meets w's window
    [0, 3]. So the solve sweeps the instance once, then the view once,
    and the enumeration runs at delta = 0 on that sweep of the view, which
    also serves the value bound. The integer root checks reject both
    relaxed optima without building their paths, so the answer is the
    only path built."""
    labels = ["s", "a", "b", "v", "w", "p"]
    windows = [Window(F(0), F(0)), Window(), Window(), Window(), Window(F(0), F(3)), Window(F(0), F(10))]
    arcs = [
        Arc(0, 1, F(0), F(0)),  # s->a
        Arc(0, 2, F(5), F(10)),  # s->b
        Arc(1, 3, F(0), F(0)),  # a->v
        Arc(2, 3, F(0), F(0)),  # b->v
        Arc(3, 4, F(4), F(0)),  # v->w
        Arc(3, 5, F(0), F(0)),  # v->p
        Arc(4, 5, F(0), F(0)),  # w->p
    ]
    dag = WindowedDag(windows, arcs, 0, 5, labels=labels)
    sweeps = _count_sweeps(monkeypatch)
    built = _count_paths(monkeypatch)
    sol = solve_awclpp(dag)
    assert sol.status == "optimal" and sol.value == brute_force(dag).value == 5
    assert sol.stats.phase2_iterations > 0 and sol.stats.arcs_cut == 0
    assert len(sweeps) == 2 and sweeps[0] is dag and sweeps[1] is not dag
    assert built == [sol.path.arc_ids]


def test_a_pair_solve_builds_only_the_paths_it_returns(monkeypatch):
    """Phase 1 compares sweep images and keeps its endpoint sweeps, and
    phase 2 rebuilds only its incumbent, so a solve through a pair builds
    one path, the answer, under either orientation. Reading ``x_a`` and
    ``x_b`` builds each once."""
    built = _count_paths(monkeypatch)
    for seed, orientation in ((117, "lid"), (492, "lie")):
        dag = random_dag(random.Random(seed), 2 + seed % 11)
        built.clear()
        sol = solve_awclpp(dag)
        assert sol.status == "optimal" and sol.phase1.orientation == orientation
        assert sol.phase1.iterations >= 2
        assert built == [sol.path.arc_ids]
        x_a, x_b = sol.phase1.x_a, sol.phase1.x_b
        assert sol.phase1.x_a is x_a and sol.phase1.x_b is x_b
        assert built == [sol.path.arc_ids, x_a.arc_ids, x_b.arc_ids]


# -- differential test against the oracles ---------------------------------------

_values = st.builds(F, st.integers(min_value=-6, max_value=12), st.sampled_from([1, 2, 3, 4, 6]))
_resources = st.builds(F, st.integers(min_value=-4, max_value=9), st.sampled_from([1, 2, 4]))
# denominators 3, 5 and 7 put dr * bound off the integers for every
# resource scale dr the arcs above can have
_bounds = st.builds(F, st.integers(min_value=-10, max_value=30), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def windowed_instances(draw):
    """Random DAG on a shuffled vertex order with mixed-denominator values
    and resources (negative ones included), parallel arcs, and windows of
    every shape: open, one-sided, two-sided and points [a, a]. A single
    vertex is both source and sink."""
    n = draw(st.integers(min_value=1, max_value=7))
    order = draw(st.permutations(range(n)))
    # a chain through every vertex keeps the sink reachable
    pairs = [(k, k + 1) for k in range(n - 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n)) if n > 1 else 0):
        pairs.append(tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))))
    arcs = []
    for i, j in pairs:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            arcs.append(Arc(order[i], order[j], draw(_values), draw(_resources)))
    windows = []
    for _ in range(n):
        a, b = sorted((draw(_bounds), draw(_bounds)))
        shape = draw(st.sampled_from(["open", "lo", "hi", "both", "point"]))
        windows.append(
            {
                "open": Window(),
                "lo": Window(a, None),
                "hi": Window(None, b),
                "both": Window(a, b),
                "point": Window(a, a),
            }[shape]
        )
    return WindowedDag(windows, arcs, order[0], order[-1])


@given(dag=windowed_instances(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_integer_path_sums_and_root_check_match_fractions(dag, data):
    """``path_metrics`` sums the scaled integer arcs, and the solver checks
    the relaxed optimum with the enumeration's integer walk; both agree
    with plain Fraction arithmetic on the instance's own arcs."""
    ids = []
    u = dag.source
    while dag.out_arcs[u] and data.draw(st.booleans()):
        aid = data.draw(st.sampled_from(dag.out_arcs[u]))
        ids.append(aid)
        u = dag.arcs[aid].dst
    path = path_metrics(dag, ids)
    prefixes = [F(0)]
    for aid in ids:
        prefixes.append(prefixes[-1] + dag.arcs[aid].resource)
    assert path.value == sum((dag.arcs[aid].value for aid in ids), F(0))
    assert path.resource == prefixes[-1]
    assert path.prefix_resources == tuple(prefixes)
    assert path.arc_ids == tuple(ids)
    assert path.arcs == tuple(dag.arcs[aid] for aid in ids)

    tails = all_tails(dag, F(0))
    if dag.source in tails:
        assert relaxed_violation(dag, tails) == check_windows(dag, tails.path(dag.source))


@given(dag=windowed_instances())
@settings(max_examples=300, deadline=None)
def test_solver_agrees_with_the_oracles(dag):
    oracle = brute_force(dag)
    sol = solve_awclpp(dag)
    assert sol.status == oracle.status
    rcsp = rcsp_label_setting(dag)
    assert (rcsp.status, rcsp.value) == (oracle.status, oracle.value)
    if oracle.status == "optimal":
        assert rcsp.witness.start == dag.source and rcsp.witness.end == dag.sink
        assert check_windows(dag, rcsp.witness) is None
        assert rcsp.witness.value == rcsp.value
        assert sol.value == oracle.value
        assert sol.path.start == dag.source and sol.path.end == dag.sink
        assert check_windows(dag, sol.path) is None
        assert sol.path.value == sol.value


# -- the presolve before the dichotomy ---------------------------------------------


def _feasible_paths(dag):
    """Arc ids of every window-feasible s-p path, by depth-first search."""
    found = []
    stack = [(dag.source, ())]
    while stack:
        u, ids = stack.pop()
        if u == dag.sink:
            if check_windows(dag, path_metrics(dag, ids)) is None:
                found.append(ids)
            continue
        stack.extend((dag.arcs[aid].dst, ids + (aid,)) for aid in dag.out_arcs[u])
    return found


@given(dag=windowed_instances())
@settings(max_examples=300, deadline=None)
def test_presolve_keeps_every_feasible_path(dag):
    """Every window-feasible s-p path is a path of the view, with each
    prefix inside the view's integer and Fraction windows; the view
    shares the instance's ids, and the solve through it agrees with
    the oracle."""
    paths = _feasible_paths(dag)
    oracle = brute_force(dag)
    assert len(paths) == oracle.feasible_count
    view = graph.presolve(dag)
    if view is None:
        assert paths == []
    else:
        assert (view.n, view.arcs, view.labels, view.topo_order) == (dag.n, dag.arcs, dag.labels, dag.topo_order)
        assert view.int_arcs() is dag.int_arcs()
        lo, hi = view.int_windows()
        dr = dag.int_arcs().dr
        for ids in paths:
            path = path_metrics(view, ids)
            assert all(aid in view.out_arcs[dag.arcs[aid].src] for aid in ids)
            for v, r in zip(path.vertices(), path.prefix_resources):
                assert view.windows[v].contains(r) and dag.windows[v].contains(r)
                assert lo[v] <= r * dr <= hi[v]
    sol = solve_awclpp(dag)
    assert (sol.status, sol.value) == (oracle.status, oracle.value)
    # the presolve runs when the relaxed optimum breaks a window, and every
    # answer after it counts the arcs it cut
    tails = all_tails(dag, F(0))
    if dag.source in tails and relaxed_violation(dag, tails) is not None:
        kept = 0 if view is None else sum(map(len, view.out_arcs))
        assert sol.stats.arcs_cut == len(dag.arcs) - kept
    else:
        assert sol.stats.arcs_cut == 0


def test_presolve_proves_the_infeasible_dag_mixed_instance():
    """dag-mixed's n120s4 needed 17,325 pops to prove that no path fits
    the windows; the presolve proves it before any label exists."""
    dag = dag_from_dict(generate(GeneratorConfig(seed=4, family="dag", vertices=120)))
    assert graph.presolve(dag) is None
    sol = solve_awclpp(dag)
    assert sol.status == "infeasible"
    assert sol.phase1 is None and sol.stats.phase1_iterations == 0
    assert sol.stats.phase2_iterations == sol.stats.labels_created == 0
    assert sol.stats.arcs_cut == len(dag.arcs)


def test_every_answer_after_the_presolve_counts_the_cut_arcs(wclpp, monkeypatch):
    """The worked example's relaxed optimum breaks the sink window; its
    presolved view cuts 2 arcs and is solved at the view's relaxed
    optimum, with no dichotomy round and no pop. A view that phase 1 finds
    infeasible, or whose source cannot reach the sink, keeps the count
    too."""
    cut = len(wclpp.arcs) - sum(map(len, graph.presolve(wclpp).out_arcs))
    sol = solve_awclpp(wclpp)
    assert (sol.status, sol.value, cut) == ("optimal", 29, 2)
    assert isinstance(sol.phase1, SolvedAtSp) and sol.phase1.tails.dag is not wclpp
    assert (sol.stats.arcs_cut, sol.stats.phase1_iterations, sol.stats.phase2_iterations) == (cut, 0, 0)

    def sink_unreachable(*args, **kwargs):
        raise graph.SinkUnreachable("cut off")

    for fake in (lambda *args, **kwargs: Infeasible(max_resource=F(0)), sink_unreachable):
        monkeypatch.setattr(solver, "run_phase1", fake)
        sol = solve_awclpp(wclpp)
        assert sol.status == "infeasible" and sol.stats.arcs_cut == cut


def _unreachable_sink() -> WindowedDag:
    # s -> a is the only arc, and nothing reaches p
    return WindowedDag([Window(None, None)] * 3, [Arc(0, 1, F(1), F(1))], 0, 2, labels=["s", "a", "p"])


def test_an_unreachable_sink_is_infeasible_before_any_search():
    """The prelude's first sweep finds that the source cannot reach the
    sink: no presolve, no cut arc and no pop. ``solve_tight`` answers the
    same from phase 1's own first sweep."""
    dag = _unreachable_sink()
    with pytest.raises(graph.SinkUnreachable, match="^vertex s cannot reach the sink$"):
        relaxed_optimum(dag)
    for solve in (solve_awclpp, solver.solve_tight):
        sol = solve(dag)
        assert (sol.status, sol.path, sol.value, sol.phase1) == ("infeasible", None, None, None)
        assert sol.stats.arcs_cut == 0 and sol.stats.phase2_iterations == sol.stats.labels_created == 0


def test_run_phase2_rejects_a_negative_delta(wclpp):
    with pytest.raises(ValueError, match="^delta must be a nonnegative rational$"):
        run_phase2(wclpp, F(-1))


def test_run_phase2_gives_up_before_its_first_pop():
    """Both early exits raise with no work counted: a source that cannot
    reach the sink, and a source window that the empty prefix breaks."""
    cases = [
        ("sink unreachable from source", _unreachable_sink()),
        (
            "source window excludes the empty prefix",
            WindowedDag([Window(F(1), F(2)), Window(None, None)], [Arc(0, 1, F(1), F(1))], 0, 1),
        ),
    ]
    for message, dag in cases:
        with pytest.raises(NoFeasiblePath, match=f"^{message}$") as raised:
            run_phase2(dag, F(0))
        assert not any(dataclasses.astuple(raised.value.stats))


def test_presolve_honours_the_deadline(wclpp):
    with pytest.raises(TimeoutExceeded, match="presolve"):
        graph.presolve(wclpp, deadline=time.monotonic() - 1.0)
