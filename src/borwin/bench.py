"""Benchmark harness: run algorithms over an instance directory, emit CSV.

One record per (instance, algorithm). Timeouts are cooperative: each
solver loop checks a wall-clock deadline, so a timed-out run reports
status "timeout" with an empty value. A solved-within-t summary usable
for cactus plots is written next to the main CSV.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, TextIO, Union

from .baselines import brute_force, rcsp_label_setting
from .graph import TimeoutExceeded, WindowedDag
from .huc import HucInstance, build_graph, solve_huc
from .phase2 import SolveStats
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
}

CSV_COLUMNS = ["instance", "algo", "status", "value", "time_ms", *STAT_NAMES, "error"]

ALGOS = ("borwin", "rcsp", "oracle")


def stats_dict(stats: SolveStats) -> dict[str, int]:
    return {name: getattr(stats, attr) for name, attr in STAT_NAMES.items()}


@dataclass
class BenchRecord:
    instance: str
    algo: str
    status: str  # "opt" | "infeasible" | "timeout" | "error"
    value: Optional[Fraction] = None
    time_ms: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)  # stats_dict of a borwin solve
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


def _as_dag(kind: str, obj: Union[WindowedDag, HucInstance]) -> WindowedDag:
    if kind == "dag":
        return obj
    return build_graph(obj)[0]


def run_one(
    name: str,
    kind: str,
    obj: Union[WindowedDag, HucInstance],
    algo: str,
    timeout_ms: Optional[float],
) -> BenchRecord:
    deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
    start = time.perf_counter()
    rec = BenchRecord(instance=name, algo=algo, status="error")
    try:
        if algo == "borwin":
            if kind == "huc":
                sol = solve_huc(obj, deadline=deadline)
                rec.value = sol.revenue
            else:
                sol = solve_awclpp(obj, deadline=deadline)
                rec.value = sol.value
            rec.status = "opt" if sol.status == OPTIMAL else "infeasible"
            rec.stats = stats_dict(sol.stats)
        elif algo == "rcsp":
            res = rcsp_label_setting(_as_dag(kind, obj), deadline=deadline)
            rec.status = "opt" if res.status == "optimal" else "infeasible"
            rec.value = res.value
        elif algo == "oracle":
            res = brute_force(_as_dag(kind, obj), strict=False, deadline=deadline)
            rec.status = "opt" if res.status == "optimal" else "infeasible"
            rec.value = res.value
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
    except TimeoutExceeded:
        rec.status = "timeout"
        rec.value = None
    except Exception as exc:
        rec.status = "error"
        rec.value = None
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
