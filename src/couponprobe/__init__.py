"""Adaptive coupon probing policies for influence maximization on small graphs."""

from .influence import (
    Graph,
    InstanceError,
    influence_exact,
    influence_mc_stats,
    singleton_influence_table,
)
from .instance_io import InstanceFormatError, load_instance, save_instance
from .model import (
    Action,
    Instance,
    Steps,
    build_action_space,
    check_steps,
    low_value_coupons,
)
from .oracle import (
    OracleSizeError,
    concave_extension_exact,
    concave_relaxation_optimum,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from .relaxation import (
    RelaxationConfig,
    check_fractional,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    estimate_marginals,
    solve_lp,
    user_mass,
)
from .rounding import Alg1Policy
from .sequencing import (
    Alg2Policy,
    PolicyEvaluation,
    StochCpPolicy,
    UnsolvableError,
    alg2_dp,
    alg2_plan,
    alg2_value,
    evaluate_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
