"""Growth-optimal investment paths on scenario trees, with dual certificates.

The package solves finite-horizon log-optimal portfolio problems over
margin-constrained markets with transaction costs, encoded on scenario trees,
and verifies optimality by constructing a supporting dual price path whose
defining inequalities are checked exactly (inner products, section vertices,
and a rigorous upper bound on every transition, 0 where both of its
distances vanish, with a small LP only where the bound exceeds the
tolerance).
"""

__version__ = "0.1.0"

from . import errors
from .certification import (
    DualPath,
    EquivalenceReport,
    RapidityCertificate,
    SupermartingaleReport,
    check_equivalences,
    extract_dual,
    growth_dominance,
    prop4_reconstruct,
    sample_competitor_paths,
    supermartingale_check,
    verify_rapid,
)
from .market_model import (
    ConeLift,
    MarketConstants,
    MarketData,
    buy_and_hold_path,
    dual_cone_residual,
    dual_cone_violation,
    feasible_completion,
    fixed_fraction_path,
    in_Z,
    lift_Z,
    margin_residual,
    market_constants,
    returns_from_prices,
    sample_cone_batch,
    sample_transition_pairs,
    section_values,
    transition_bound,
    transition_frontier_batch,
    self_financing_value,
    slater_path,
    dominating_path,
)
from .objectives import (
    LinearObjective,
    LiquidationObjective,
    NormPenalizedObjective,
    PsiClassReport,
    TerminalObjective,
    check_psi_class,
    log_objective,
)
from .scenario_tree import (
    AdaptedVector,
    Node,
    NodeArray,
    ScenarioTree,
    build_tree,
)
from .solver import (
    KktReport,
    KktResiduals,
    PathProblem,
    Solution,
    SolveOptions,
    assemble,
    kkt_report,
    solve_log_optimal,
)
