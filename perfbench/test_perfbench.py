"""Tests of the benchmark itself: tiny corpora, the independent verifier
and the per-layer accounting."""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import harness  # noqa: E402
import make_reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from borwin import graph, huc  # noqa: E402
from borwin.generate import GeneratorConfig, generate  # noqa: E402
from borwin.io import huc_from_dict  # noqa: E402

TINY = {
    "huc-long": (corpus._huc(12, 3, 2, 0), corpus._huc(10, 4, 3, 1)),
    "huc-short": (corpus._huc(6, 3, 2, 0), corpus._huc(8, 3, 3, 2)),
    "dag-mixed": (corpus._dag(10, 0), corpus._dag(12, 1), corpus._dag(14, 4)),
}


def tiny_run(workload, trace):
    instances, _ = harness.set_up(TINY[workload], 0, speed.SpeedClock(), reps=1)
    refs = {inst.name: make_reference.reference_row(inst) for inst in instances}
    return harness.run(workload, seed=3, seconds=0.05, trace=trace, specs=TINY[workload], refs=refs)


def benchmark_names(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(TINY[workload])
    names = benchmark_names("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["details"]["absent_hooks"] == []
        assert result["details"]["largest_self_layer"] in tracing.SELF_METRICS


def test_benchmark_workloads_match_the_corpus_grid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_reference_covers_the_default_corpus():
    for workload, specs in corpus.WORKLOADS.items():
        refs = harness.load_reference(workload, 0)
        assert sorted(refs) == sorted(spec.name(0) for spec in specs)


# -- verifier ------------------------------------------------------------


def solved(workload):
    inst = harness.set_up(TINY[workload][:1], 0, speed.SpeedClock(), reps=1)[0][0]
    out, _, _ = harness.solve(inst, speed.SpeedClock())
    assert out.status == "optimal"
    return inst, out


@pytest.mark.parametrize("workload", ["huc-short", "dag-mixed"])
def test_verifier_rejects_a_corrupted_value(workload):
    inst, out = solved(workload)
    ref = make_reference.reference_row(inst)
    assert verify.check_answer(inst.family, inst.data, ref, out.status, out.value, out.witness) is None
    bad = out.value + 1
    assert verify.check_answer(inst.family, inst.data, ref, out.status, bad, out.witness).check == "value"
    assert verify.check_answer(inst.family, inst.data, None, out.status, bad, out.witness).check == "witness_value"


def test_verifier_rejects_a_wrong_status():
    inst, out = solved("dag-mixed")
    ref = dict(make_reference.reference_row(inst), status="infeasible")
    assert verify.check_answer(inst.family, inst.data, ref, out.status, out.value, out.witness).check == "status"


DAG = {
    "vertices": [{"id": "s"}, {"id": "a", "lo": "1", "hi": "2"}, {"id": "p", "lo": "2", "hi": None}],
    "arcs": [
        {"from": "s", "to": "a", "value": "5", "resource": "4"},
        {"from": "a", "to": "p", "value": "1", "resource": "1"},
        {"from": "s", "to": "a", "value": "2", "resource": "3/2"},
    ],
    "source": "s",
    "sink": "p",
}


def test_dag_walker_rejects_a_window_violating_witness():
    assert verify.walk_dag(DAG, [2, 1]) == (None, Fraction(3))
    failure, _ = verify.walk_dag(DAG, [0, 1])
    assert failure.check == "witness_window" and "of a" in failure.message
    assert verify.walk_dag(DAG, [1])[0].check == "witness_contiguity"
    assert verify.walk_dag(DAG, [2])[0].check == "witness_contiguity"
    assert verify.check_answer("dag", DAG, None, "optimal", Fraction(6), [0, 1]).check == "witness_window"


HUC = {
    "T": 3,
    "points": [{"D": "0", "P": "0"}, {"D": "2", "P": "1"}, {"D": "3", "P": "2"}],
    "ramp_up": "2",
    "ramp_down": "5",
    "min_updown": 2,
    "prices": ["1", "1", "1"],
    "phi1": "0",
    "phi2": "1/2",
    "win_lo": ["0", "0", "0"],
    "win_hi": ["100", "100", "100"],
    "initial": {"i": 0, "l": 0},
}


def test_schedule_walker_rejects_illegal_schedules():
    assert verify.walk_schedule(HUC, [1, 1, 1], None) == (None, Fraction(6))
    assert verify.walk_schedule(HUC, [2, 2, 2], None)[0].check == "ramp_up"
    assert verify.walk_schedule(HUC, [1, 0, 1], None)[0].check == "min_hold"
    assert verify.walk_schedule(HUC, [1, 1, 0], None) == (None, Fraction(4))
    assert verify.walk_schedule(dict(HUC, win_hi=["100", "3", "100"]), [1, 1, 1], None)[0].check == "window"
    assert verify.walk_schedule(HUC, [1, 1, 1], [2, 4, 7])[0].check == "volumes"
    assert verify.walk_schedule(HUC, [1, 1], None)[0].check == "schedule_length"
    held = dict(HUC, initial={"i": 2, "l": 1})
    assert verify.walk_schedule(held, [1, 1, 1], None)[0].check == "min_hold"
    assert verify.walk_schedule(held, [2, 1, 1], None)[0] is None


def test_schedule_walker_agrees_with_the_model_on_random_schedules():
    rng = random.Random(7)
    for seed in range(6):
        data = generate(GeneratorConfig(seed=seed, family="huc", periods=8, points=4, min_updown=3))
        data = json.loads(json.dumps(data))
        inst = huc_from_dict(data)
        for _ in range(200):
            schedule = [rng.randrange(inst.levels) for _ in range(inst.periods)]
            wide = dict(data, win_lo=["0"] * inst.periods, win_hi=["1000000"] * inst.periods)
            wide_inst = huc_from_dict(wide)
            for d, i in ((data, inst), (wide, wide_inst)):
                assert (verify.walk_schedule(d, schedule, None)[0] is None) == huc.schedule_is_legal(i, schedule)


# -- tracing -------------------------------------------------------------


@pytest.mark.parametrize("workload", ["huc-short", "dag-mixed"])
def test_layer_self_times_sum_to_the_traced_solve_span(workload):
    tracer = tracing.Tracer()
    originals = (graph.all_tails, huc.build_graph)
    clock = speed.SpeedClock()
    for inst in harness.set_up(TINY[workload], 0, clock, reps=1)[0]:
        first = len(tracer.spans)
        out, _, _ = harness.solve(inst, clock, tracer.call, trace_phase1=tracer.on_phase1,
                                  trace_phase2=tracer.on_phase2)
        assert out.status != "error"
        root = tracer.spans[first]
        assert root.name == tracing.ROOT and root.parent is None
        layers = tracing.self_times(tracer.spans, first)
        assert all(v >= 0 for v in layers.values())
        assert sum(layers.values()) == pytest.approx((root.end - root.start) * 1000.0, rel=1e-9)
        assert tracing.span_counts(tracer.spans, first)["graph.sweeps"] >= 1
    assert (graph.all_tails, huc.build_graph) == originals
    assert tracer.absent == set()


def test_speed_clock_samples_during_an_interval_and_restores_the_signal():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        result, wall, ref = clock.measure(busy, 0.3)
    assert result == "done"
    assert len(clock.samples) >= 2
    assert 0.3 - sum(clock.samples) <= wall + 1e-3 and wall < 0.3
    assert 0 < ref < 10 * wall
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-mixed", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
