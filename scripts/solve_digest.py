#!/usr/bin/env python3
"""Print one JSON line per solve with every observable result, so that
two checkouts can be compared field by field with ``diff``.

The solves are the 58 instances of the default benchmark corpus
(``perfbench/corpus.py``), the 500 random DAGs of acceptance gate c03
and 200 seeded commitment instances with fractional flows and ramps off
the flow scale, built much as ``tests/test_huc.py``'s ``windowed_hucs``
builds them (see ``_fractional_huc``), so that the flow scale is not always 1 and some solve
graphs' windows are rescaled to the arcs' scale. Each line holds the
status, value, witness arc ids (for commitment instances also the
schedule and volumes), every ``SolveStats`` counter,
the bounding-phase outcome (for a pair: ``x_a``/``x_b`` arc ids,
``delta``, ``ub_mu``, ``ub_v1``, ``beta``, ``alpha``, ``iterations`` and
the orientation) and a sha256 over the repr of each phase's trace
events. A commitment row also holds, for the solve graph and for
``reached_graph``, a sha256 over the graph's integer arcs and integer
windows, so the compiles' window rounding is compared byte for byte.

Usage, from the root of each checkout:
    python3 scripts/solve_digest.py > digest.jsonl

Compare two digests:
    python3 scripts/solve_digest.py --diff OLD.jsonl NEW.jsonl

prints the rows whose status or value changed (exit code 1 if any), the
rows whose witness or schedule alone changed, the rows whose graph,
phase-1 or phase-2 trace hashes changed, the rows whose phase-2 pops or
created labels rose, and, old -> new, the totals of phase-1
iterations, pops, labels created and ``arcs_cut`` over the DAG rows and
over the commitment rows.
"""

import dataclasses
import hashlib
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from borwin.generate import random_dag, random_huc  # noqa: E402
from borwin.huc import (  # noqa: E402
    OperatingPoint,
    _hold_clock,
    _solve_graph,
    _step,
    cumulative_flows,
    reached_graph,
    solve_huc,
)
from borwin.phase1 import Infeasible, Pair, SolvedAtSp  # noqa: E402
from borwin.solver import solve_awclpp  # noqa: E402
from perfbench import corpus  # noqa: E402


def _ids(path):
    return None if path is None else list(path.arc_ids)


def _digest(events) -> str:
    return hashlib.sha256("".join(repr(e) + "\n" for e in events).encode()).hexdigest()


def _graph_digest(compiled):
    if compiled is None:
        return None
    dag = compiled[0]
    ints, (lo, hi) = dag.int_arcs(), dag.int_windows()
    data = [ints.src, ints.dst, ints.val, ints.res, ints.dv, ints.dr, lo, hi]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _fractional_huc(seed: int):
    """A commitment instance of 1 to 6 periods drawn from ``seed`` as
    ``windowed_hucs`` draws one: flows divided by 1, 2 or 3; each ramp a
    flow step or 1/7 below one in 3 of 4 draws, else the generator's ramp
    divided by 1, 2 or 3 plus 0 or 1/5; a random inherited state; point,
    narrow, loose or shifted windows around a walk on the Fraction rules.
    Any period may be shifted here, so 117 of the 118 instances with a
    shifted period are infeasible; ``windowed_hucs`` now shifts at most
    one period, in one instance of four. These rows keep the earlier
    draw so that digests of older checkouts stay comparable."""
    rng = random.Random(seed)
    inst = random_huc(rng, rng.randint(1, 6), rng.randint(2, 4), rng.randint(1, 3))
    points = (inst.points[0],) + tuple(OperatingPoint(p.flow / rng.choice([1, 1, 2, 3]), p.power) for p in inst.points[1:])
    gaps = [b - a for a, b in combinations(accumulate(p.flow for p in points), 2)]
    ramp_up, ramp_down = (
        rng.choice(gaps) - rng.choice([0, Fraction(1, 7)])
        if rng.randrange(4)
        else ramp / rng.choice([1, 2, 3]) + rng.choice([0, Fraction(1, 5)])
        for ramp in (inst.ramp_up, inst.ramp_down)
    )
    level = rng.randrange(inst.levels)
    hold = rng.randint(1 - inst.min_updown, inst.min_updown - 1)
    inst = replace(inst, points=points, ramp_up=ramp_up, ramp_down=ramp_down, initial_point=level, initial_hold=hold)
    flows, scaled = cumulative_flows(inst), list(accumulate(inst.tables.flow))
    last_up, last_down = _hold_clock(inst)
    cum, lo, hi = Fraction(0), [], []
    for t in range(1, inst.periods + 1):
        steps = [(lvl, *_step(inst, scaled, t, level, lvl, last_up, last_down)) for lvl in range(inst.levels)]
        level, _, last_up, last_down = rng.choice([step for step in steps if step[1] is None])
        cum += flows[level]
        kind = rng.choice(["point", "narrow", "loose", "shifted"])
        below, above = (Fraction(rng.randrange(3), 2), Fraction(rng.randrange(3), 2)) if kind == "narrow" else (0, 0)
        if kind == "loose":
            below, above = rng.randrange(20), rng.randrange(20)
        shift = Fraction(rng.randrange(1, 4), 3) if kind == "shifted" else 0
        lo.append(cum - below + shift)
        hi.append(cum + above + shift)
    return replace(inst, win_lo=tuple(lo), win_hi=tuple(hi))


def _row(name, solve, obj) -> dict:
    p1, p2 = [], []
    sol = solve(obj, trace_phase1=p1.append, trace_phase2=p2.append)
    graph_sol = getattr(sol, "graph_solution", sol)
    row = {"name": name, "status": sol.status, "stats": dataclasses.asdict(sol.stats)}
    if graph_sol is not None:
        row["value"] = str(graph_sol.value)
        row["witness"] = _ids(graph_sol.path)
        outcome = graph_sol.phase1
        if isinstance(outcome, Pair):
            row["pair"] = [_ids(outcome.x_a), _ids(outcome.x_b)] + [
                str(getattr(outcome, f)) for f in ("delta", "ub_mu", "ub_v1", "beta", "alpha", "iterations", "orientation")
            ]
        elif isinstance(outcome, SolvedAtSp):
            row["solved_at_sp"] = [_ids(outcome.path), str(outcome.delta)]
        elif isinstance(outcome, Infeasible):
            row["infeasible"] = str(outcome.max_resource)
    if sol is not graph_sol:
        row["schedule"] = sol.schedule
        row["volumes"] = None if sol.volumes is None else [str(v) for v in sol.volumes]
        row["graphs_sha256"] = [_graph_digest(_solve_graph(obj)), _graph_digest(reached_graph(obj))]
    row["phase1_sha256"] = _digest(p1)
    row["phase2_sha256"] = _digest(p2)
    return row


WORK = ("phase2_iterations", "labels_created")
TOTALS = ("phase1_iterations", "phase2_iterations", "labels_created", "arcs_cut")
HASHES = ("graphs_sha256", "phase1_sha256", "phase2_sha256")


def diff(old_path: str, new_path: str) -> int:
    def load(path):
        with open(path) as fh:
            return {row["name"]: row for row in map(json.loads, fh)}

    old, new = load(old_path), load(new_path)
    changed, witness, hashes, rose = [], [], [], []
    for name in old.keys() | new.keys():
        a, b = old.get(name), new.get(name)
        if a is None or b is None or (a["status"], a.get("value")) != (b["status"], b.get("value")):
            changed.append(name)
            continue
        if (a.get("witness"), a.get("schedule")) != (b.get("witness"), b.get("schedule")):
            witness.append(name)
        if any(a.get(k) != b.get(k) for k in HASHES):
            hashes.append(name)
        if any(b["stats"][k] > a["stats"][k] for k in WORK):
            rose.append(name)
    for title, names in (
        ("status or value changed", changed),
        ("witness only", witness),
        ("graph or trace hashes changed", hashes),
        ("pops or labels rose", rose),
    ):
        print(f"{title}: {len(names)}")
        for name in sorted(names):
            print(f"  {name}")
    for family, is_huc in (("dag", False), ("huc", True)):
        # a commitment row is the one that carries a schedule
        rows = [[r for r in side.values() if ("schedule" in r) == is_huc] for side in (old, new)]
        for key in TOTALS:
            a, b = (sum(r["stats"][key] for r in side) for side in rows)
            print(f"{family} {key}: {a} -> {b}")
    return 1 if changed else 0


def main() -> int:
    if sys.argv[1:2] == ["--diff"] and len(sys.argv) == 4:
        return diff(sys.argv[2], sys.argv[3])
    for specs in corpus.WORKLOADS.values():
        for inst in corpus.load_texts(corpus.generate_texts(specs, 0)):
            solve = solve_huc if inst.family == "huc" else solve_awclpp
            print(json.dumps(_row(inst.name, solve, inst.obj), sort_keys=True))
    for seed in range(500):
        dag = random_dag(random.Random(seed), 2 + seed % 11)
        print(json.dumps(_row(f"c03-seed{seed}", solve_awclpp, dag), sort_keys=True))
    for seed in range(200):
        print(json.dumps(_row(f"huc-frac-seed{seed}", solve_huc, _fractional_huc(seed)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
