"""Buy-only portfolio rebalancing under a fixed cash budget.

The core problem: split a contribution y > 0 across n assets so the
post-purchase holdings land as close as possible (l1 or l2) to the
target allocation, without selling anything.  Both norms have
closed-form solutions; brute-force oracles verify them on small
instances.  The l2 machinery doubles as Euclidean projection onto a
simplex.
"""

from .oracles import (
    MAX_ACTIVE_SET_N,
    MAX_GRID_N,
    OracleReport,
    active_set_l2_oracle,
    grid_l1_oracle,
    iter_active_set_candidates,
)
from .portfolio import (
    TARGET_SUM_TOL,
    Asset,
    Portfolio,
    RebalancePlan,
    naive_adjustments,
    rebalance,
    round_to_cents,
)
from .solvers import (
    FEAS_TOL,
    ContributionProblem,
    L1Case,
    L1SolutionFamily,
    L2Solution,
    Norm,
    ObjectiveValue,
    is_l1_optimal,
    kkt_check_l2,
    l1_objective,
    l1_optimal_value,
    l2_objective,
    sample_l1_member,
    simplex_mle,
    solve_l1,
    solve_l2,
    sum_tolerance,
)
from .cli import (
    PortfolioFormatError,
    parse_portfolio,
    run_project_simplex_command,
    run_rebalance_command,
    serialize_portfolio,
)

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "ContributionProblem",
    "FEAS_TOL",
    "L1Case",
    "L1SolutionFamily",
    "L2Solution",
    "MAX_ACTIVE_SET_N",
    "MAX_GRID_N",
    "Norm",
    "ObjectiveValue",
    "OracleReport",
    "Portfolio",
    "PortfolioFormatError",
    "RebalancePlan",
    "TARGET_SUM_TOL",
    "active_set_l2_oracle",
    "grid_l1_oracle",
    "is_l1_optimal",
    "iter_active_set_candidates",
    "kkt_check_l2",
    "l1_objective",
    "l1_optimal_value",
    "l2_objective",
    "naive_adjustments",
    "parse_portfolio",
    "rebalance",
    "round_to_cents",
    "run_project_simplex_command",
    "run_rebalance_command",
    "sample_l1_member",
    "serialize_portfolio",
    "simplex_mle",
    "solve_l1",
    "solve_l2",
    "sum_tolerance",
    "__version__",
]
