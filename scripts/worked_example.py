#!/usr/bin/env python3
"""Walk the two bundled instances end to end with full traces.

Usage: python3 scripts/worked_example.py
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from borwin.baselines import brute_force, relaxed_longest
from borwin.huc import best_schedule_bruteforce, solve_huc
from borwin.io import load_instance
from borwin.phase1 import integer_round_ub, run_phase1
from borwin.solver import solve_awclpp, solve_tight


def print_p1(event):
    print(
        f"  [p1 {event.iteration}] xA=({event.x_a[0]},{event.x_a[1]})"
        f" xB=({event.x_b[0]},{event.x_b[1]}) xC=({event.x_c[0]},{event.x_c[1]})"
        f" delta={event.delta}"
    )


def print_p2(event):
    if event.kind == "pop":
        print(f"  [p2 pop] mu={event.mu} anchor={event.anchor} feasible={event.feasible} -> {event.action}")
    else:
        print(f"  [p2 prune:{event.rule}] mu={event.mu} prefix={event.prefix}")


def main() -> int:
    print("== windowed DAG instance (5 vertices) ==")
    _, dag = load_instance(REPO / "instances" / "wclpp5.json")
    print(f"relaxed longest path value: {relaxed_longest(dag)}")
    out = run_phase1(dag, trace=print_p1)
    print(f"bounding phase: delta={out.delta} ubMu={out.ub_mu} ubV1={out.ub_v1}"
          f" rounded={integer_round_ub(out, True)}")
    # The paper's enumeration runs on the instance as given. solve_awclpp
    # presolves first, and on this instance the view's relaxed optimum is
    # already feasible, so it makes no pop; solve_tight, the two phases
    # that solve_awclpp runs after its presolve, shows the paper's walk.
    sol = solve_tight(dag, trace_phase2=print_p2)
    oracle = brute_force(dag)
    print(f"optimum: value={sol.value} path={','.join(sol.path.labelled(dag))}"
          f" (oracle {oracle.value}, {oracle.feasible_count}/{oracle.total_count} paths feasible)")
    print(f"stats: {sol.stats}")
    default = solve_awclpp(dag)
    print(f"default solve: value={default.value}, proved at the relaxed optimum of the presolved view"
          f" ({default.stats.arcs_cut} arcs cut, {default.stats.phase2_iterations} pops)")

    print("\n== commitment instance (5 periods, 3 levels) ==")
    _, inst = load_instance(REPO / "instances" / "huc5.json")
    sol = solve_huc(inst, trace_phase1=print_p1)
    oracle = best_schedule_bruteforce(inst)
    volumes = [str(v) for v in sol.volumes]
    print(f"optimum: revenue={sol.revenue} schedule={sol.schedule} volumes={volumes}")
    print(f"schedule oracle: revenue={oracle[0]} schedule={oracle[1]}")
    print(f"stats: {sol.stats}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
