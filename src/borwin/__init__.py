"""Exact two-phase solver for window-constrained longest paths on DAGs,
with a single-plant hydro unit commitment front-end."""

from .baselines import OracleResult, TooLarge, brute_force, rcsp_label_setting, relaxed_longest
from .bounds import MckpItem, NestedMckp, StageOutOfRange, UbProvider, ValueTailBound, ub_for_prefix
from .graph import (
    Arc,
    GraphError,
    InvalidGraph,
    NonContiguous,
    Path,
    SinkUnreachable,
    TimeoutExceeded,
    ValidationReport,
    Window,
    WindowViolation,
    WindowedDag,
    all_tails,
    check_windows,
    longest_path,
    path_by_vertices,
    path_metrics,
    presolve,
    prune_unreachable,
    validate,
)
from .huc import (
    HucInstance,
    HucSolution,
    OperatingPoint,
    best_schedule_bruteforce,
    build_graph,
    check_path_legality,
    export_milp,
    reached_graph,
    solve_huc,
    value_table,
)
from .phase1 import (
    Infeasible,
    NotAPair,
    Pair,
    PhaseOneOutcome,
    SolvedAtSp,
    integer_round_ub,
    lagrangian_theta,
    orient_dag,
    run_phase1,
    search_space,
)
from .phase2 import (
    Label,
    NoFeasiblePath,
    SolveResult,
    SolveStats,
    TraceEvent,
    feasible_hybrid,
    lower_bound_mu,
    run_phase2,
)
from .rational import PLUS_INF, rat, rat_str
from .solver import AwclppSolution, solve_awclpp

__version__ = "0.1.0"
