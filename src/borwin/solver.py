"""End-to-end exact solve: bounding phase, then enumeration phase."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bounds import ValueTailBound
from .graph import Path, SinkUnreachable, WindowedDag
from .phase1 import (
    GraphInvariantError,
    Infeasible,
    Pair,
    Phase1TraceEvent,
    PhaseOneOutcome,
    SolvedAtSp,
    orient_dag,  # noqa: F401  unused here; kept so lookups of solver.orient_dag still resolve
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

    ``ub_provider`` is the :class:`~borwin.phase2.ValueBound` of the
    complementary rule, called with the instance's own resources; None
    means the window-relaxed value tails. ``use_ub_prune=False``
    switches the rule off.
    """
    try:
        outcome = run_phase1(dag, trace=trace_phase1, deadline=deadline)
    except SinkUnreachable:
        return AwclppSolution(INFEASIBLE, None, None, None, SolveStats())

    if isinstance(outcome, Infeasible):
        return AwclppSolution(INFEASIBLE, None, None, outcome, SolveStats())

    if isinstance(outcome, SolvedAtSp):
        if relaxed_violation(dag, outcome.tails) is None:
            # the window-relaxed optimum is feasible, hence optimal
            return AwclppSolution(OPTIMAL, outcome.path, outcome.path.value, outcome, SolveStats())
        delta = ZERO
        iterations = 0
        value_tails = outcome.tails
    elif isinstance(outcome, Pair):
        # phase 1 already swept the instance at delta, in the pair's orientation
        delta = outcome.delta
        iterations = outcome.iterations
        value_tails = outcome.sp_tails
    else:
        raise GraphInvariantError(f"unexpected bounding-phase outcome {type(outcome).__name__}")

    ub = ValueTailBound(dag, value_tails) if ub_provider is None else ub_provider
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
            tails=outcome.tails,
        )
    except NoFeasiblePath as exc:
        exc.stats.phase1_iterations = iterations
        return AwclppSolution(INFEASIBLE, None, None, outcome, exc.stats)

    result.stats.phase1_iterations = iterations
    best = result.best
    if best is None:
        raise GraphInvariantError("enumeration returned no incumbent")
    return AwclppSolution(OPTIMAL, best, best.value, outcome, result.stats)
