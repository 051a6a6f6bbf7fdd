"""End-to-end exact solve: orientation, bounding phase, enumeration phase."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bounds import OrientedBound, ValueTailBound
from .graph import Path, SinkUnreachable, WindowedDag, check_windows, path_metrics
from .phase1 import (
    LIE,
    GraphInvariantError,
    Infeasible,
    Pair,
    Phase1TraceEvent,
    PhaseOneOutcome,
    SolvedAtSp,
    orient_dag,  # noqa: F401  the pipeline's orientation step stays patchable here
    run_phase1,
)
from .phase2 import NoFeasiblePath, SolveStats, Trace, ValueBound, run_phase2

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

    ``ub_provider`` is the :class:`~borwin.phase2.ValueBound` of the
    complementary rule, understood to reason in original resource
    coordinates; None means the window-relaxed value tails.
    ``use_ub_prune=False`` switches the rule off.
    """
    try:
        outcome = run_phase1(dag, trace=trace_phase1, deadline=deadline)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats())

    if isinstance(outcome, Infeasible):
        return AwclppSolution(INFEASIBLE, None, None, outcome, SolveStats())

    if isinstance(outcome, SolvedAtSp):
        if check_windows(dag, outcome.path) is None:
            # the window-relaxed optimum is feasible, hence optimal
            return AwclppSolution(OPTIMAL, outcome.path, outcome.path.value, outcome, SolveStats())
        work = dag
        delta = ZERO
        oriented = False
        iterations = 0
        value_tails = outcome.tails
    elif isinstance(outcome, Pair):
        # phase 1 already oriented the instance and swept it at delta
        oriented = outcome.orientation == LIE
        work = outcome.work
        delta = outcome.delta
        iterations = outcome.iterations
        value_tails = outcome.sp_tails
    else:
        raise GraphInvariantError(f"unexpected bounding-phase outcome {type(outcome).__name__}")

    if ub_provider is None:
        ub = ValueTailBound(work, value_tails)
    else:
        ub = OrientedBound(ub_provider) if oriented else ub_provider

    try:
        result = run_phase2(
            work,
            delta,
            ub,
            use_dominance=use_dominance,
            use_bound_prune=use_bound_prune,
            use_ub_prune=use_ub_prune,
            trace=trace_phase2,
            deadline=deadline,
            tails=outcome.tails,
        )
    except NoFeasiblePath as exc:
        exc.stats.phase1_iterations = iterations
        return AwclppSolution(INFEASIBLE, None, None, outcome, exc.stats)

    result.stats.phase1_iterations = iterations
    best = result.best
    if best is None:
        raise GraphInvariantError("enumeration returned no incumbent")
    if oriented:
        best = path_metrics(dag, best.arc_ids, start=best.start)
    return AwclppSolution(OPTIMAL, best, best.value, outcome, result.stats)
