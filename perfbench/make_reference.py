#!/usr/bin/env python3
"""Rebuild perfbench/reference.json: the expected answer per instance.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py [--corpus-seed 0]

Each row holds the status, the exact value and its source:

* ``brute_force``: the fast exhaustive oracle, for DAGs with at most
  ``ORACLE_MAX_VERTICES`` vertices;
* ``rcsp``: the label-setting baseline on the compiled commitment graph,
  when it finishes within ``RCSP_DEADLINE_S``;
* ``schedule_oracle``: ``huc.best_schedule_bruteforce``, which enumerates
  schedules without the graph compiler, for a commitment instance rcsp
  does not finish, when it finishes within ``SCHEDULE_DEADLINE_S``;
* ``borwin``: the solver itself at the commit that wrote the file, for
  the rest.

Every row is also solved by borwin and any disagreement stops the
script, so no row is written that two methods dispute. The sha256 of
the instance's canonical JSON ties the row to its input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from borwin import baselines, graph, huc  # noqa: E402
from borwin.huc import solve_huc  # noqa: E402
from borwin.solver import solve_awclpp  # noqa: E402

import corpus  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402

ORACLE_MAX_VERTICES = 80
RCSP_DEADLINE_S = 30.0
SCHEDULE_DEADLINE_S = 60.0


def reference_row(inst: corpus.Instance) -> dict:
    if inst.family == "dag":
        sol = solve_awclpp(inst.obj)
        mine = (sol.status, sol.value)
        if inst.obj.n <= ORACLE_MAX_VERTICES:
            res = baselines.brute_force(inst.obj, strict=False)
            other, source = (res.status, res.value), "brute_force"
        else:
            other, source = mine, "borwin"
    else:
        sol = solve_huc(inst.obj)
        mine = (sol.status, sol.revenue)
        dag = graph.prune_unreachable(huc.build_graph(inst.obj)[0])[0]
        try:
            res = baselines.rcsp_label_setting(dag, deadline=time.monotonic() + RCSP_DEADLINE_S)
            other, source = (res.status, res.value), "rcsp"
        except graph.TimeoutExceeded:
            other, source = mine, "borwin"
            try:
                best = huc.best_schedule_bruteforce(inst.obj, deadline=time.monotonic() + SCHEDULE_DEADLINE_S)
                other, source = ("infeasible", None) if best is None else ("optimal", best[0]), "schedule_oracle"
            except (TimeoutError, RecursionError):
                pass
    if other != mine:
        raise SystemExit(f"{inst.name}: borwin says {mine}, {source} says {other}")
    status, value = other
    return {"status": status, "value": None if value is None else str(value), "source": source,
            "sha256": inst.sha256}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus-seed", type=int, default=0)
    args = parser.parse_args()
    out = {"corpus_seed": args.corpus_seed, "workloads": {}}
    for workload, specs in corpus.WORKLOADS.items():
        instances, _ = harness.set_up(specs, args.corpus_seed, speed.SpeedClock(), reps=1)
        rows = {}
        for inst in instances:
            t0 = time.perf_counter()
            rows[inst.name] = reference_row(inst)
            print(f"{workload} {inst.name} {rows[inst.name]['status']} {rows[inst.name]['value']}"
                  f" via {rows[inst.name]['source']} ({time.perf_counter() - t0:.1f} s)", flush=True)
        out["workloads"][workload] = rows
    harness.REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
