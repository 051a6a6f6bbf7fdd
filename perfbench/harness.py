"""Benchmark runs: set-up, measured solves, answer checks and metrics.

A run serves one workload in one process on one thread. Set-up builds
the corpus several times and reports the median. The measured part
solves every instance once, in an order drawn from the run seed, then
keeps re-solving instances in fresh seeded orders while the next one is
expected to finish inside the run's time. Every interval is timed by
``speed.SpeedClock``, which keeps its wall time and its time rescaled to
a reference machine speed; the metrics use the rescaled times. Each
instance's time is the mean of its solves. Every answer is checked
against the committed reference and the independent verifier, outside
the timed region.

The traced run interleaves an untraced and a traced solve of each
instance, so the per-layer figures and the tracing overhead come from
the same moments of the same machine.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import resource
import statistics
import time
import traceback
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from borwin import baselines, graph, huc
from borwin.huc import solve_huc
from borwin.solver import solve_awclpp

import corpus
import speed
import tracing
import verify

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

SETUP_REPS = 5  # set-up is short; its median over reps is what is reported
SOLVE_DEADLINE_S = 60.0  # cooperative deadline handed to every solve
RCSP_DEADLINE_S = 1.0  # rcsp runs for minutes on some instances; this keeps the traced run short
SGM_SHIFT_MS = 10.0

END_TO_END = {
    "solve_s": "s",
    "solve_ms_sgm": "ms",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "huc.build_graph_ms": "ms",
    "huc.graph_vertices": "count",
    "huc.graph_arcs": "count",
    "graph.prune_ms": "ms",
    "graph.sweeps": "count",
    "graph.sweep_ms": "ms",
    "graph.sweep_arcs": "count",
    "phase1.iters": "count",
    "phase1.self_ms": "ms",
    "phase1.orient_calls": "count",
    "phase1.orient_ms": "ms",
    "phase2.self_ms": "ms",
    "phase2.pops": "count",
    "phase2.feasible_pops": "count",
    "phase2.labels_generated": "count",
    "phase2.pruned_bound": "count",
    "phase2.pruned_ub": "count",
    "phase2.pruned_dom": "count",
    "phase2.pop_yield": "ratio",
    "bounds.calls": "count",
    "bounds.ms": "ms",
    "bounds.prune_yield": "ratio",
    "solver.self_ms": "ms",
    "generate.ms": "ms",
    "io.load_ms": "ms",
    "baselines.rcsp_s": "s",
    "baselines.rcsp_timeouts": "count",
    "baselines.rcsp_overrun_ms": "ms",
    "trace.overhead_frac": "ratio",
}
COUNTERS = tuple(k for k, unit in PER_LAYER.items() if unit == "count" and not k.startswith("baselines."))
HUC_ONLY = ("huc.build_graph_ms", "huc.graph_vertices", "huc.graph_arcs", "graph.prune_ms") + tuple(
    k for k in PER_LAYER if k.startswith("baselines.")
)


@dataclasses.dataclass
class Outcome:
    status: str  # "optimal" | "infeasible" | "error"
    value: Optional[Fraction] = None
    witness: object = None
    stats: object = None
    error_class: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


def load_reference(workload: str, offset: int) -> dict:
    """Reference rows of the workload, or none for a corpus the committed
    file does not describe."""
    ref = json.loads(REFERENCE_FILE.read_text())
    if ref["corpus_seed"] != offset:
        return {}
    return ref["workloads"].get(workload, {})


# -- set-up ---------------------------------------------------------------


def set_up(specs, offset: int, clock: speed.SpeedClock, reps: int = SETUP_REPS):
    """Build the corpus ``reps`` times; returns the instances and, per
    rep, the reference seconds of (generation, JSON round trip) and the
    raw wall seconds of the whole rep. Raises when two reps differ, since
    then no run could be compared with another."""
    times = []
    first = None
    for _ in range(reps):
        gc.collect()
        texts, gen_wall, gen_ref = clock.measure(corpus.generate_texts, specs, offset)
        instances, io_wall, io_ref = clock.measure(corpus.load_texts, texts)
        times.append((gen_ref, io_ref, gen_wall + io_wall))
        if first is None:
            first = texts
        elif texts != first:
            raise RuntimeError("corpus generation is not deterministic")
    return instances, times


# -- one solve ------------------------------------------------------------


def solve(inst: corpus.Instance, clock: speed.SpeedClock, call: Optional[Callable] = None,
          **trace_kwargs) -> tuple[Outcome, float, float]:
    """Solve one instance; returns the outcome, its wall seconds and its
    reference seconds. ``call`` runs the entry point (the tracer passes
    its own)."""
    fn = solve_huc if inst.family == "huc" else solve_awclpp
    run = fn if call is None else partial(call, inst.name, fn)

    def attempt() -> Outcome:
        try:
            sol = run(inst.obj, deadline=time.monotonic() + SOLVE_DEADLINE_S, **trace_kwargs)
        except Exception as exc:  # the run keeps measuring; the row records why this solve failed
            return Outcome("error", None, None, None, type(exc).__name__, str(exc), traceback.format_exc())
        if inst.family == "huc":
            return Outcome(sol.status, sol.revenue, (sol.schedule, sol.volumes), sol.stats)
        return Outcome(sol.status, sol.value, None if sol.path is None else sol.path.arc_ids, sol.stats)

    gc.collect()
    return clock.measure(attempt)


def check(inst: corpus.Instance, refs: dict, out: Outcome) -> Optional[verify.Failure]:
    """First failed check of one answer. With a reference file in force
    (``refs`` not empty), every instance must have a row and match it."""
    if out.status == "error":
        return verify.Failure("solve", f"{out.error_class}: {out.error}")
    ref = refs.get(inst.name)
    if refs and ref is None:
        return verify.Failure("reference", "no reference row for this instance")
    if ref is not None and ref["sha256"] != inst.sha256:
        return verify.Failure("input_sha", "instance differs from the one the reference describes")
    return verify.check_answer(inst.family, inst.data, ref, out.status, out.value, out.witness)


class Ledger:
    """Per-instance rows: solve times, answers and failed checks. Times
    are kept as [wall seconds, reference seconds] pairs."""

    def __init__(self, instances, refs: dict):
        self.refs = refs
        self.rows = {
            inst.name: {"instance": inst.name, "sha256": inst.sha256, "reference": refs.get(inst.name),
                        "solve_s": [], "failures": []}
            for inst in instances
        }
        self.attempted = 0
        self.failed = 0

    def record(self, inst: corpus.Instance, out: Outcome, wall: float, ref: float, key: str = "solve_s") -> None:
        row = self.rows[inst.name]
        row.setdefault(key, []).append([wall, ref])
        row["status"] = out.status
        row["value"] = None if out.value is None else str(out.value)
        self.attempted += 1
        failure = check(inst, self.refs, out)
        if failure is not None:
            self.failed += 1
            row["failures"].append({
                "sample": key,
                "check": failure.check,
                "message": failure.message,
                "error_class": out.error_class,
                "traceback": out.traceback,
            })

    def means(self, key: str = "solve_s", column: int = 1) -> list[float]:
        """Per-instance mean of the reference (or, column 0, wall) times."""
        return [statistics.fmean(pair[column] for pair in row[key]) for row in self.rows.values()]


def schedule(instances, rng: random.Random, end: float, sample: Callable) -> None:
    """Run ``sample`` on every instance once in a seeded order, then on
    instances in fresh seeded orders while the next one is expected, from
    its last wall cost, to finish before ``end`` (a ``perf_counter`` time)."""
    order = list(instances)
    rng.shuffle(order)
    cost = {inst.name: sample(inst) for inst in order}
    while True:
        rng.shuffle(order)
        ran = False
        for inst in order:
            if time.perf_counter() + cost[inst.name] <= end:
                cost[inst.name] = sample(inst)
                ran = True
        if not ran:
            return


def shifted_geomean_ms(times_s: list[float]) -> float:
    logs = [math.log(t * 1000.0 + SGM_SHIFT_MS) for t in times_s]
    return math.exp(sum(logs) / len(logs)) - SGM_SHIFT_MS


# -- runs -----------------------------------------------------------------


def run_untraced(instances, ledger: Ledger, rng: random.Random, end: float, clock, setup_times) -> dict:
    def sample(inst):
        out, wall, ref = solve(inst, clock)
        ledger.record(inst, out, wall, ref)
        return wall

    schedule(instances, rng, end, sample)
    means = ledger.means()
    return {
        "solve_s": sum(means),
        "solve_ms_sgm": shifted_geomean_ms(means),
        "solved_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        "setup_s": statistics.median(gen + io for gen, io, _ in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(instances, ledger: Ledger, rng: random.Random, end: float, clock, setup_times, tracer) -> dict:
    def sample(inst):
        row = ledger.rows[inst.name]
        traced_first = rng.random() < 0.5
        cost = 0.0
        for traced in (traced_first, not traced_first):
            if not traced:
                out, wall, ref = solve(inst, clock)
                ledger.record(inst, out, wall, ref)
            else:
                first = len(tracer.spans)
                out, wall, ref = solve(inst, clock, tracer.call,
                                       trace_phase1=tracer.on_phase1, trace_phase2=tracer.on_phase2)
                ledger.record(inst, out, wall, ref, key="traced_s")
                scale = ref / wall
                row.setdefault("layers", []).append(
                    {k: v * scale for k, v in tracing.self_times(tracer.spans, first).items()}
                )
                if "counts" not in row:
                    row["counts"] = dict(tracer.counts, **tracing.span_counts(tracer.spans, first))
                    row["stats_pops"] = getattr(out.stats, "phase2_iterations", None)
            cost += wall
        return cost

    schedule(instances, rng, end, sample)
    rows = list(ledger.rows.values())
    metrics = dict.fromkeys(PER_LAYER, 0)
    for key in tracing.SELF_METRICS:
        metrics[key] = sum(statistics.fmean(s[key] for s in row["layers"]) for row in rows)
    for key in COUNTERS:
        metrics[key] = sum(row["counts"].get(key, 0) for row in rows)
    metrics["phase2.pop_yield"] = _ratio(metrics["phase2.pops"], metrics["phase2.labels_generated"])
    metrics["bounds.prune_yield"] = _ratio(metrics["phase2.pruned_ub"], metrics["bounds.calls"])
    metrics["generate.ms"] = statistics.median(gen for gen, _, _ in setup_times) * 1000.0
    metrics["io.load_ms"] = statistics.median(io for _, io, _ in setup_times) * 1000.0
    metrics["trace.overhead_frac"] = sum(ledger.means("traced_s")) / sum(ledger.means()) - 1.0
    if instances[0].family == "huc":
        metrics.update(rcsp_baseline(instances, ledger, clock))
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rcsp_baseline(instances, ledger: Ledger, clock: speed.SpeedClock) -> dict:
    """Label-setting baseline on the compiled graphs: total reference time
    under a short deadline, timeouts, and the worst wall-clock lateness
    past a deadline. An
    instance that beats the deadline is probed again with a deadline at
    half of its own rcsp time, so every instance yields a lateness."""
    total = 0.0
    timeouts = 0
    overrun = 0.0
    for inst in instances:
        dag = graph.prune_unreachable(huc.build_graph(inst.obj)[0])[0]
        row = ledger.rows[inst.name]
        gc.collect()
        deadline = time.monotonic() + RCSP_DEADLINE_S

        def attempt() -> dict:
            try:
                res = baselines.rcsp_label_setting(dag, deadline=deadline)
            except graph.TimeoutExceeded:
                return {"status": "timeout"}
            except Exception as exc:  # a baseline failure is recorded, not fatal to the run
                return {"status": "error", "error_class": type(exc).__name__, "message": str(exc)}
            return {"status": res.status, "value": None if res.value is None else str(res.value)}

        row["rcsp"], elapsed, ref = clock.measure(attempt)
        late = time.monotonic() - deadline
        timeouts += row["rcsp"]["status"] == "timeout"
        total += ref
        if row["rcsp"]["status"] in ("optimal", "infeasible"):
            deadline = time.monotonic() + elapsed / 2
            try:
                baselines.rcsp_label_setting(dag, deadline=deadline)
            except graph.TimeoutExceeded:
                pass
            late = time.monotonic() - deadline
        row["rcsp"].update(wall_s=elapsed, ref_s=ref, overrun_ms=max(late, 0.0) * 1000.0)
        overrun = max(overrun, row["rcsp"]["overrun_ms"])
    return {"baselines.rcsp_s": total, "baselines.rcsp_timeouts": timeouts, "baselines.rcsp_overrun_ms": overrun}


def run(workload: str, seed: int, seconds: float, trace: bool, offset: int = 0, specs=None,
        refs: Optional[dict] = None, out_dir: Optional[Path] = None) -> dict:
    """One benchmark run; returns the result object (the last stdout line)
    and, under ``details``, everything the rows recorded. Set-up counts
    against ``seconds``."""
    end = time.perf_counter() + seconds
    specs = corpus.WORKLOADS[workload] if specs is None else specs
    refs = load_reference(workload, offset) if refs is None else refs
    tracer = tracing.Tracer() if trace else None
    with speed.SpeedClock() as clock:
        instances, setup_times = set_up(specs, offset, clock)
        ledger = Ledger(instances, refs)
        rng = random.Random(seed)
        if trace:
            metrics = run_traced(instances, ledger, rng, end, clock, setup_times, tracer)
        else:
            metrics = run_untraced(instances, ledger, rng, end, clock, setup_times)
    units = PER_LAYER if trace else END_TO_END
    details = {
        "workload": workload,
        "seed": seed,
        "corpus_seed": offset,
        "corpus_sha256": corpus.corpus_sha256(instances),
        "instances": len(instances),
        "unreferenced": sorted(name for name in ledger.rows if name not in refs),
        "wall_solve_s": sum(ledger.means(column=0)),
        "wall_setup_s": statistics.median(wall for _, _, wall in setup_times),
        "probe_ms": statistics.median(clock.samples) * 1000.0 if clock.samples else None,
        "rows": list(ledger.rows.values()),
    }
    if trace:
        details["absent_hooks"] = sorted(tracer.absent)
        details["not_applicable"] = [k for k in HUC_ONLY if instances[0].family != "huc"]
        details["largest_self_layer"] = max(tracing.SELF_METRICS, key=lambda k: metrics[k])
        details["stats_pops_mismatch"] = sorted(
            row["instance"] for row in ledger.rows.values()
            if row.get("stats_pops") != row["counts"].get("phase2.pops", 0)
        )
    if out_dir is not None:
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
        if tracer is not None:
            with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }
