"""End-to-end exact solve: bounding phase, then enumeration phase."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bounds import ValueTailBound
from .graph import Path, SinkUnreachable, TailMap, WindowedDag, presolve
from .phase1 import (
    GraphInvariantError,
    Infeasible,
    Pair,
    Phase1TraceEvent,
    PhaseOneOutcome,
    SolvedAtSp,
    orient_dag,  # noqa: F401  perfbench hooks solver.orient_dag; see test_layer_self_times_sum_to_the_traced_solve_span
    relaxed_optimum,
    run_phase1,
)
from .phase2 import NoFeasiblePath, SolveStats, Trace, ValueBound, relaxed_violation, run_phase2

ZERO = Fraction(0)

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
    ub_provider: Optional[ValueBound] = None,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    use_ub_prune: bool = True,
    trace_phase1: Optional[Callable[[Phase1TraceEvent], None]] = None,
    trace_phase2: Optional[Trace] = None,
    deadline: Optional[float] = None,
) -> AwclppSolution:
    """Solve a windowed instance exactly.

    Phase 1's first sweep runs on ``dag`` as given; a window-feasible
    relaxed optimum is the answer. Otherwise, before the dichotomy,
    :func:`~borwin.graph.presolve` tightens the windows to the exact
    resource hulls and cuts the arcs no feasible path can use; it proves
    some instances infeasible with no label made. Phase 1 then runs on
    that view, and phase 2 on the same view with phase 1's sweeps, so
    it sweeps nothing itself.

    ``ub_provider`` is the :class:`~borwin.phase2.ValueBound` of the
    complementary rule, called with the instance's own vertex ids and
    resources; None means the window-relaxed value tails.
    ``use_ub_prune=False`` switches the rule off.
    """
    return _two_phase(
        dag,
        tighten=True,
        ub_provider=ub_provider,
        use_dominance=use_dominance,
        use_bound_prune=use_bound_prune,
        use_ub_prune=use_ub_prune,
        trace_phase1=trace_phase1,
        trace_phase2=trace_phase2,
        deadline=deadline,
    )


def solve_tight(
    dag: WindowedDag,
    *,
    trace_phase1: Optional[Callable[[Phase1TraceEvent], None]] = None,
    trace_phase2: Optional[Trace] = None,
    deadline: Optional[float] = None,
) -> AwclppSolution:
    """:func:`solve_awclpp` with its default rules and no presolve, for the
    commitment solve graph of ``huc._solve_graph``, where every arc ``u -> w``
    has ``[lo[u] + r, hi[u] + r]`` meeting ``[lo[w], hi[w]]``: a presolve still
    cuts a few of its arcs, but costs more than it saves."""
    return _two_phase(dag, tighten=False, trace_phase1=trace_phase1, trace_phase2=trace_phase2, deadline=deadline)


def _two_phase(
    dag: WindowedDag,
    *,
    tighten: bool,
    ub_provider: Optional[ValueBound] = None,
    use_dominance: bool = True,
    use_bound_prune: bool = True,
    use_ub_prune: bool = True,
    trace_phase1: Optional[Callable[[Phase1TraceEvent], None]] = None,
    trace_phase2: Optional[Trace] = None,
    deadline: Optional[float] = None,
) -> AwclppSolution:
    """Phase 1's first sweep on ``dag`` as given; with ``tighten``, if its
    relaxed optimum breaks a window, the presolve. Then phase 1 on the
    instance that leaves, and phase 2 on phase 1's sweeps."""
    try:
        sp_tails: Optional[TailMap] = relaxed_optimum(dag, deadline)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats())

    stats = SolveStats()
    if tighten and relaxed_violation(dag, sp_tails) is not None:
        view = presolve(dag, deadline)
        if view is None:
            stats.arcs_cut = len(dag.arcs)
            return AwclppSolution(INFEASIBLE, None, None, None, stats)
        stats.arcs_cut = len(dag.arcs) - sum(map(len, view.out_arcs))
        # the view's windows are tighter, so phase 1 starts over on it
        dag, sp_tails = view, None
    try:
        outcome = run_phase1(dag, trace=trace_phase1, deadline=deadline, sp_tails=sp_tails)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, stats)

    if isinstance(outcome, Infeasible):
        return AwclppSolution(INFEASIBLE, None, None, outcome, stats)
    if isinstance(outcome, SolvedAtSp):
        if relaxed_violation(dag, outcome.tails) is None:
            # the window-relaxed optimum is feasible, hence optimal
            return AwclppSolution(OPTIMAL, outcome.path, outcome.path.value, outcome, stats)
        delta, tails, value_tails = ZERO, outcome.tails, outcome.tails
    elif isinstance(outcome, Pair):
        delta, tails, value_tails = outcome.delta, outcome.tails, outcome.sp_tails
        stats.phase1_iterations = outcome.iterations
    else:
        raise GraphInvariantError(f"unexpected bounding-phase outcome {type(outcome).__name__}")

    ub = ub_provider
    if ub is None and use_ub_prune:
        ub = ValueTailBound(dag, value_tails)
    try:
        result = run_phase2(
            dag,
            delta,
            ub,
            use_dominance=use_dominance,
            use_bound_prune=use_bound_prune,
            use_ub_prune=use_ub_prune,
            trace=trace_phase2,
            deadline=deadline,
            tails=tails,
        )
    except NoFeasiblePath as exc:
        exc.stats.phase1_iterations, exc.stats.arcs_cut = stats.phase1_iterations, stats.arcs_cut
        return AwclppSolution(INFEASIBLE, None, None, outcome, exc.stats)

    result.stats.phase1_iterations, result.stats.arcs_cut = stats.phase1_iterations, stats.arcs_cut
    best = result.best
    if best is None:
        raise GraphInvariantError("enumeration returned no incumbent")
    return AwclppSolution(OPTIMAL, best, best.value, outcome, result.stats)
