"""End-to-end exact solve: bounding phase, then enumeration phase."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bounds import ValueTailBound
from .graph import Path, SinkUnreachable, WindowedDag, presolve
from .phase1 import (
    Infeasible,
    Phase1TraceEvent,
    PhaseOneOutcome,
    SolvedAtSp,
    orient_dag,  # noqa: F401  perfbench hooks solver.orient_dag; see test_layer_self_times_sum_to_the_traced_solve_span
    relaxed_optimum,
    run_phase1,
)
from .phase2 import NoFeasiblePath, SolveStats, Trace, ValueBound, relaxed_violation, run_phase2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass
class AwclppSolution:
    status: str  # "optimal" | "infeasible"
    path: Optional[Path]  # original coordinates
    value: Optional[Fraction]
    phase1: Optional[PhaseOneOutcome]
    stats: SolveStats


def solve_awclpp(
    dag: WindowedDag,
    *,
    value_bound: Optional[ValueBound] = None,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    use_ub_prune: bool = True,
    trace_phase1: Optional[Callable[[Phase1TraceEvent], None]] = None,
    trace_phase2: Optional[Trace] = None,
    deadline: Optional[float] = None,
) -> AwclppSolution:
    """Solve a windowed instance exactly: a prelude, then
    :func:`solve_tight` on the view it makes.

    The prelude makes phase 1's first sweep on ``dag`` as given; a
    window-feasible relaxed optimum is the answer. Otherwise
    :func:`~borwin.graph.presolve` tightens the windows to the exact
    resource hulls and cuts the arcs no feasible path can use; it proves
    some instances infeasible with no label made. ``stats.arcs_cut``
    counts the arcs it cut. The keywords are :func:`solve_tight`'s.
    """
    try:
        sp_tails = relaxed_optimum(dag, deadline)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats())
    if relaxed_violation(dag, sp_tails) is None:
        return _at_sp(SolvedAtSp(tails=sp_tails))
    view = presolve(dag, deadline)
    if view is None:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats(arcs_cut=len(dag.arcs)))
    sol = solve_tight(
        view,
        value_bound=value_bound,
        use_dominance=use_dominance,
        use_bound_prune=use_bound_prune,
        use_ub_prune=use_ub_prune,
        trace_phase1=trace_phase1,
        trace_phase2=trace_phase2,
        deadline=deadline,
    )
    sol.stats.arcs_cut = len(dag.arcs) - sum(map(len, view.out_arcs))
    return sol


def _at_sp(outcome: SolvedAtSp) -> AwclppSolution:
    # the window-relaxed optimum is feasible, hence optimal
    return AwclppSolution(OPTIMAL, outcome.path, outcome.path.value, outcome, SolveStats())


def solve_tight(
    dag: WindowedDag,
    *,
    value_bound: Optional[ValueBound] = None,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    use_ub_prune: bool = True,
    trace_phase1: Optional[Callable[[Phase1TraceEvent], None]] = None,
    trace_phase2: Optional[Trace] = None,
    deadline: Optional[float] = None,
) -> AwclppSolution:
    """The paper's two phases on a graph whose windows are already tight:
    phase 1 from its own ``delta = 0`` sweep, then phase 2 on phase 1's
    sweeps. A :class:`SolvedAtSp` whose path a window inside the graph
    still cuts feeds phase 2 as a pair does, at ``delta = 0``.
    ``huc.solve_huc`` calls it with no presolve, since on its solve graph
    a presolve costs more than it saves.

    ``value_bound`` is the :class:`~borwin.phase2.ValueBound` of the
    complementary rule, called with the instance's own vertex ids and
    integer totals; None means the default, the window-relaxed value
    tails of phase 1's first sweep. ``use_ub_prune=False`` switches the
    rule off.
    """
    try:
        outcome = run_phase1(dag, trace=trace_phase1, deadline=deadline)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats())
    if isinstance(outcome, Infeasible):
        return AwclppSolution(INFEASIBLE, None, None, outcome, SolveStats())
    if isinstance(outcome, SolvedAtSp) and relaxed_violation(dag, outcome.tails) is None:
        return _at_sp(outcome)

    if use_ub_prune and value_bound is None:
        value_bound = ValueTailBound(dag, outcome.sp_tails)
    try:
        result = run_phase2(
            dag,
            outcome.delta,
            value_bound if use_ub_prune else None,  # positional: perfbench's tracer proxies args[2]
            use_dominance=use_dominance,
            use_bound_prune=use_bound_prune,
            trace=trace_phase2,
            deadline=deadline,
            tails=outcome.tails,
        )
    except NoFeasiblePath as exc:
        exc.stats.phase1_iterations = outcome.iterations
        return AwclppSolution(INFEASIBLE, None, None, outcome, exc.stats)
    result.stats.phase1_iterations = outcome.iterations
    return AwclppSolution(OPTIMAL, result.best, result.best.value, outcome, result.stats)
