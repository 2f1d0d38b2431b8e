"""Adaptive coupon probing policies for influence maximization on small graphs."""

from .influence import (
    Graph,
    influence_exact,
    influence_mc_stats,
    live_mask_outcomes,
    realized_influence,
    sample_live_mask,
    singleton_influence_table,
)
from .instance_io import InstanceFormatError, load_instance, save_instance
from .model import (
    Action,
    Instance,
    PolicyTrace,
    ProbeSequence,
    ProbeStep,
    World,
    build_action_space,
    check_trace,
    expected_cost,
    low_value_coupons,
    probe_user,
    realize,
    run_fixed_plan,
    sample_world,
)
from .oracle import (
    OracleSizeError,
    PolicyState,
    concave_extension_exact,
    concave_relaxation_optimum,
    exact_action_set_value,
    exact_policy_value,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from .relaxation import (
    RelaxationConfig,
    action_set_utility,
    check_fractional,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    estimate_marginals,
    solve_lp,
    user_mass,
)
from .rounding import (
    Alg1Policy,
    contention_resolve,
    execute_probe_set,
    independent_round,
)
from .sequencing import (
    Alg2Policy,
    DpTable,
    PolicyEvaluation,
    ProbeOrder,
    StochCpPolicy,
    UnsolvableError,
    alg2_dp,
    alg2_execute,
    alg2_plan,
    alg2_value,
    evaluate_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
