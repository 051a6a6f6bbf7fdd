"""Run one algorithm on one instance; benchmark algorithms over a corpus.

:func:`run` is the one map from an instance kind and an algorithm name
to a solver: ``borwin solve`` renders its answer, and the harness times
it into one record per (instance, algorithm). Timeouts are cooperative:
each solver loop checks a wall-clock deadline, so a timed-out run
reports status "timeout" with an empty value. A solved-within-t summary
usable for cactus plots is written next to the main CSV.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, TextIO, Union

from .baselines import brute_force, rcsp_label_setting
from .graph import InvalidGraph, TimeoutExceeded, WindowedDag, validate
from .huc import HucInstance, reached_graph, solve_huc
from .rational import rat_str
from .solver import OPTIMAL, solve_awclpp

# SolveStats counters by the name the bench CSV and ``solve --json`` give them
STAT_NAMES = {
    "p1_iters": "phase1_iterations",
    "p2_iters": "phase2_iterations",
    "labels_created": "labels_created",
    "labels_pruned_bound": "labels_pruned_bound",
    "labels_pruned_dom": "labels_pruned_dominance",
    "labels_pruned_ub": "labels_pruned_ub",
    "arcs_cut": "arcs_cut",
}

CSV_COLUMNS = ["instance", "algo", "status", "value", "time_ms", *STAT_NAMES, "error"]

ALGOS = ("borwin", "rcsp", "oracle")


@dataclass
class BenchRecord:
    instance: str
    algo: str
    status: str  # "opt" | "infeasible" | "timeout" | "error"
    value: Optional[Fraction] = None
    time_ms: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)  # a borwin solve's, as in Answer.stats
    error: Optional[str] = None  # "Class: message" when status is "error"

    def row(self) -> list[str]:
        def opt(x) -> str:
            return "" if x is None else str(x)

        return [
            self.instance,
            self.algo,
            self.status,
            "" if self.value is None else rat_str(self.value),
            f"{self.time_ms:.3f}",
            *(opt(self.stats.get(name)) for name in STAT_NAMES),
            opt(self.error),
        ]


@dataclass(frozen=True)
class Answer:
    """What :func:`run` found: an optimum's value and path labels, or a
    commitment's schedule and volumes; borwin's counters by their
    :data:`STAT_NAMES` name."""

    status: str  # "opt" | "infeasible"
    value: Optional[Fraction] = None
    path: Optional[list[str]] = None
    schedule: Optional[list[int]] = None
    volumes: Optional[list[Fraction]] = None
    stats: dict[str, int] = field(default_factory=dict)


def as_dag(kind: str, obj: Union[WindowedDag, HucInstance], deadline: Optional[float] = None) -> WindowedDag:
    """The graph the reference algorithms and ``validate`` read: a DAG
    input itself, a commitment instance's :func:`reached_graph`."""
    return obj if kind == "dag" else reached_graph(obj, deadline)[0]


def run(
    kind: str,
    obj: Union[WindowedDag, HucInstance],
    algo: str,
    deadline: Optional[float] = None,
    trace_phase1=None,
    trace_phase2=None,
) -> Answer:
    """Solve ``obj`` with ``algo``, one of :data:`ALGOS`. A DAG input that
    fails :func:`validate` raises :class:`InvalidGraph`; past ``deadline``
    (a ``time.monotonic`` value) :class:`TimeoutExceeded`."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if kind == "dag":
        report = validate(obj)
        if not report.ok:
            raise InvalidGraph(f"{report.code}: {report.detail}")
    if algo == "borwin":
        solve = solve_huc if kind == "huc" else solve_awclpp
        sol = solve(obj, deadline=deadline, trace_phase1=trace_phase1, trace_phase2=trace_phase2)
        stats = {name: getattr(sol.stats, attr) for name, attr in STAT_NAMES.items()}
        if sol.status != OPTIMAL:
            return Answer("infeasible", stats=stats)
        if kind == "huc":
            return Answer("opt", sol.revenue, schedule=sol.schedule, volumes=sol.volumes, stats=stats)
        return Answer("opt", sol.value, path=sol.path.labelled(obj), stats=stats)
    dag = as_dag(kind, obj, deadline)
    if algo == "rcsp":
        res = rcsp_label_setting(dag, deadline=deadline)
    else:
        res = brute_force(dag, strict=False, deadline=deadline)
    if res.status != "optimal":
        return Answer("infeasible")
    return Answer("opt", res.value, path=res.witness.labelled(dag))


def run_one(
    name: str,
    kind: str,
    obj: Union[WindowedDag, HucInstance],
    algo: str,
    timeout_ms: Optional[float],
) -> BenchRecord:
    """Time :func:`run` and record its answer, a timeout, or the
    exception it raised."""
    deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
    start = time.perf_counter()
    rec = BenchRecord(instance=name, algo=algo, status="error")
    try:
        ans = run(kind, obj, algo, deadline)
        rec.status, rec.value, rec.stats = ans.status, ans.value, ans.stats
    except TimeoutExceeded:
        rec.status = "timeout"
    except Exception as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.time_ms = (time.perf_counter() - start) * 1000.0
    return rec


def run_bench(
    files: Sequence[tuple[str, str, Union[WindowedDag, HucInstance]]],
    algos: Sequence[str] = ALGOS,
    timeout_ms: Optional[float] = None,
) -> list[BenchRecord]:
    records = []
    for name, kind, obj in files:
        for algo in algos:
            records.append(run_one(name, kind, obj, algo, timeout_ms))
    return records


def write_csv(records: Sequence[BenchRecord], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())


def write_summary(records: Sequence[BenchRecord], fh: TextIO) -> None:
    """Cumulative instances solved per algorithm, by increasing time."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["algo", "time_ms", "solved"])
    algos = sorted({r.algo for r in records})
    for algo in algos:
        times = sorted(r.time_ms for r in records if r.algo == algo and r.status == "opt")
        for k, t in enumerate(times, start=1):
            writer.writerow([algo, f"{t:.3f}", k])
