from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import simplex
from couponprobe.model import Action, ProbeSequence, build_action_space
from couponprobe.oracle import multilinear_value_exact
from couponprobe.relaxation import (
    RelaxationConfig,
    action_set_utility,
    check_fractional,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    estimate_marginals,
    solve_lp,
)

from helpers import (
    make_world,
    mirror_lp,
    single_user,
    threshold_cost,
    uniform_instance,
    vertex_enumerate_max,
)

F = Fraction


def _act(user: int, *indices: int) -> Action:
    return Action(user=user, sequence=ProbeSequence(coupon_indices=tuple(indices)))


# ------------------------------------------------------------------- simplex


def test_simplex_box() -> None:
    value, x = simplex.maximize(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)]],
        [F(1), F(2)],
    )
    assert value == 3
    assert x == [F(1), F(2)]


def test_simplex_knapsack_fraction() -> None:
    # one knapsack row: best puts everything on the densest item
    value, x = simplex.maximize(
        [F(3), F(2)],
        [[F(2), F(1)], [F(1), F(0)], [F(0), F(1)]],
        [F(1), F(1), F(1)],
    )
    assert value == F(2)  # x = (0, 1): density 2 beats 3/2
    assert x == [F(0), F(1)]


def test_simplex_detects_unbounded() -> None:
    with pytest.raises(ValueError):
        simplex.maximize([F(1)], [[F(-1)]], [F(1)])


def test_simplex_rejects_negative_rhs() -> None:
    with pytest.raises(ValueError):
        simplex.maximize([F(1)], [[F(1)]], [F(-1)])


def test_simplex_survives_degenerate_cycling_example() -> None:
    # classic cycling instance for the wrong pivot rule; Bland terminates
    value, _ = simplex.maximize(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        [F(0), F(0), F(1)],
    )
    assert value == F(1, 20)


def test_simplex_matches_vertex_enumeration_on_random_lps() -> None:
    gen = np.random.default_rng(12)
    for _ in range(15):
        n = int(gen.integers(2, 5))
        m = int(gen.integers(1, 4))
        obj = [F(int(gen.integers(-4, 6)), int(gen.integers(1, 4))) for _ in range(n)]
        lhs = [
            [F(int(gen.integers(0, 5)), 1) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [F(int(gen.integers(1, 8)), 1) for _ in range(m)]
        # cap each variable so the region is bounded even with zero rows
        for i in range(n):
            lhs.append([F(1 if j == i else 0) for j in range(n)])
            rhs.append(F(3))
        value, _ = simplex.maximize(obj, lhs, rhs)
        assert value == vertex_enumerate_max(obj, lhs, rhs)


# -------------------------------------------------------- action_set_utility


def test_utility_of_empty_set_is_zero() -> None:
    inst = single_user(0.5)
    assert action_set_utility(inst, [], make_world([0.2])) == 0


def test_utility_single_seed_no_spread() -> None:
    inst = single_user(0.5)
    assert action_set_utility(inst, [_act(0, 0)], make_world([0.4])) == 1
    assert action_set_utility(inst, [_act(0, 0)], make_world([0.6])) == 0


def test_utility_uses_max_coupon_per_user() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.7),), K=2, B=10.0)
    both = [_act(0, 0), _act(0, 1)]
    # union semantics: seeded iff the best offered coupon would be accepted
    for sigma in (0.05, 0.35, 0.4, 0.55, 0.7, 0.95):
        got = action_set_utility(inst, both, make_world([sigma]))
        assert got == (1 if sigma <= 0.7 else 0)


def test_utility_ignores_budget() -> None:
    # utilities feed the extension estimate, which is unconstrained by design
    inst = uniform_instance(3, (1.0,), ((1.0,),) * 3, K=1, B=1.0)
    actions = [_act(0, 0), _act(1, 0), _act(2, 0)]
    world = make_world([0.5, 0.5, 0.5])
    assert action_set_utility(inst, actions, world) == 3


# ---------------------------------------------------------- estimate_marginals


def test_marginals_at_zero_match_acceptance_probability() -> None:
    inst = uniform_instance(2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=2, B=3.0)
    actions = build_action_space(inst)
    y = {a: F(0) for a in actions}
    config = RelaxationConfig(marginal_samples=4000, rng_seed=5)
    omega = estimate_marginals(inst, y, config)
    for a in actions:
        best = max(a.sequence.coupon_indices)
        p = inst.attractiveness[a.user][best]
        stderr = math.sqrt(p * (1 - p) / 4000)
        assert abs(omega[a] - p) <= 4 * max(stderr, 1e-12)


def test_marginal_of_dominated_action_is_zero_when_forced_in() -> None:
    inst = uniform_instance(1, (1.0, 1.2), ((0.3, 0.5),), K=1, B=3.0)
    big, small = _act(0, 1), _act(0, 0)
    y = {big: F(1), small: F(0)}
    omega = estimate_marginals(inst, y, RelaxationConfig(marginal_samples=500, rng_seed=2))
    # the larger coupon is always present, so adding the smaller changes nothing
    assert omega[small] == 0.0


def test_marginals_nonnegative_and_deterministic() -> None:
    inst = uniform_instance(
        2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=2, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    y = {a: F(1, 8) for a in actions}
    config = RelaxationConfig(marginal_samples=300, rng_seed=7)
    first = estimate_marginals(inst, y, config)
    second = estimate_marginals(inst, y, config)
    assert first == second
    assert all(v >= 0.0 for v in first.values())
    shifted = estimate_marginals(inst, y, config, iteration=1)
    assert shifted != first  # distinct per-iteration sample streams


# ------------------------------------------------------------------ solve_lp


def test_lp_single_action_budget_binding() -> None:
    inst = single_user(1.0, coupon=1.0, B=1.0, K=1)
    a = _act(0, 0)
    y = solve_lp({a: 1.0}, inst, beta=0.5)
    assert y[a] == F(1, 2)  # b = p*c = 1, budget 0.5


def test_lp_user_mass_cap() -> None:
    inst = uniform_instance(1, (0.5, 0.6), ((0.2, 0.25),), K=1, B=10.0)
    acts = [_act(0, 0), _act(0, 1)]
    y = solve_lp({acts[0]: 1.0, acts[1]: 1.0}, inst, beta=0.5)
    assert sum(y[a] for a in acts) == F(1)


def test_lp_rejects_bad_inputs() -> None:
    inst = single_user(0.5)
    a = _act(0, 0)
    with pytest.raises(ValueError):
        solve_lp({a: float("nan")}, inst, beta=0.2)
    with pytest.raises(ValueError):
        solve_lp({a: 1.0}, inst, beta=0.7)
    with pytest.raises(ValueError):
        solve_lp({a: 1.0}, inst, beta=0.2, use_W=True)  # W unset


def test_lp_matches_vertex_enumeration() -> None:
    gen = np.random.default_rng(3)
    inst = uniform_instance(
        2, (1.0, 1.4),
        ((0.35, 0.6), (0.25, 0.8)),
        K=2, B=3.0, W=2,
    )
    actions = build_action_space(inst)
    assert len(actions) <= 6
    for trial in range(6):
        weights = {a: float(gen.uniform(0.0, 2.0)) for a in actions}
        for use_W in (False, True):
            y = solve_lp(weights, inst, beta=0.3, use_W=use_W)
            got = sum(F(float(weights[a])) * y[a] for a in actions)
            acts, obj, lhs, rhs = mirror_lp(inst, weights, 0.3, use_W)
            want = vertex_enumerate_max(obj, lhs, rhs)
            assert got == want, f"trial {trial} use_W={use_W}"


# --------------------------------------------------------------------- config


def test_beta_defaults() -> None:
    assert default_beta_basic() == pytest.approx((3 - math.sqrt(3)) / 6)
    b = default_beta_extended()
    assert 0.0 < b < 0.5
    # stationarity of beta (1-beta)^2 (1-2 beta): derivative crosses zero here
    d = 1 - 8 * b + 15 * b * b - 8 * b ** 3
    assert abs(d) < 1e-12


def test_config_validation_and_resolution() -> None:
    with pytest.raises(ValueError):
        RelaxationConfig(beta=0.7)
    with pytest.raises(ValueError):
        RelaxationConfig(delta=0.0)
    with pytest.raises(ValueError):
        RelaxationConfig(marginal_samples=0)
    with pytest.raises(ValueError):
        RelaxationConfig(cost_mode="guess")
    config = RelaxationConfig()
    assert config.resolved_beta(False) == default_beta_basic()
    assert config.resolved_beta(True) == default_beta_extended()
    assert config.resolved_delta(4) == pytest.approx(1 / 16)
    fixed = RelaxationConfig(beta=0.25, delta=0.5)
    assert fixed.resolved_beta(True) == 0.25
    assert fixed.resolved_delta(100) == 0.5


def test_decision_matrix_validation() -> None:
    a, b = _act(0, 0), _act(0, 1)
    with pytest.raises(ValueError):
        check_fractional({a: F(3, 4), b: F(1, 2)})
    with pytest.raises(ValueError):
        check_fractional({a: F(-1, 10)})
    check_fractional({a: F(3, 4), b: F(1, 4)})


# ---------------------------------------------------------- continuous greedy


def test_greedy_single_action_hits_the_budget_cap_exactly() -> None:
    inst = single_user(1.0, coupon=1.0, B=2.0, K=1)
    config = RelaxationConfig(beta=0.4, delta=0.25, marginal_samples=50, rng_seed=0)
    y = continuous_greedy(inst, config)
    # beta*B/b lands exactly on the budget cap, carried as a rational of the
    # float inputs (0.4 the double, not 2/5)
    assert y[_act(0, 0)] == F(0.4) * F(2.0)


def test_greedy_iteration_count_and_monotone_trajectory() -> None:
    inst = uniform_instance(
        2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=1, B=3.0,
        edges=((0, 1, 0.6),),
    )
    snapshots: list[dict] = []
    config = RelaxationConfig(delta=0.3, marginal_samples=200, rng_seed=1)
    continuous_greedy(inst, config, on_step=lambda t, y: snapshots.append(y))
    assert len(snapshots) == math.ceil(1 / 0.3)
    actions = build_action_space(inst)
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert all(later[a] >= earlier[a] for a in actions)
    # exact multilinear value never decreases along the trajectory
    values = [multilinear_value_exact(inst, snap) for snap in snapshots]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_greedy_output_feasible_exactly() -> None:
    inst = uniform_instance(
        3, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9), (0.6, 0.7)), K=2, B=3.0, W=2,
    )
    for use_W in (False, True):
        config = RelaxationConfig(delta=0.2, marginal_samples=100, rng_seed=4)
        y = continuous_greedy(inst, config, use_W=use_W)
        actions = build_action_space(inst)
        beta = F(config.resolved_beta(use_W))
        for user in range(3):
            assert sum(y[a] for a in actions if a.user == user) <= 1
        spend = sum(y[a] * threshold_cost(inst, a) for a in actions)
        assert spend <= beta * F(inst.B)
        if use_W:
            assert sum(y[a] for a in actions) <= beta * F(inst.W)
        assert all(0 <= y[a] <= 1 for a in actions)


def test_greedy_zero_attractiveness_returns_zero_vector() -> None:
    inst = uniform_instance(2, (1.0,), ((0.0,), (0.0,)), K=1, B=3.0)
    y = continuous_greedy(inst, RelaxationConfig(delta=0.5, marginal_samples=50, rng_seed=0))
    assert all(v == 0 for v in y.values())


def test_greedy_requires_actions() -> None:
    inst = uniform_instance(1, (2.0,), ((0.5,),), K=1, B=3.0)  # no low coupons
    with pytest.raises(ValueError):
        continuous_greedy(inst, RelaxationConfig())


def test_greedy_toy_budget_feasibility() -> None:
    # five users, coupons (1, 2), budget 3: only the small coupon is fractional
    inst = uniform_instance(5, (1.0, 2.0), ((0.5, 0.8),) * 5, K=1, B=3.0)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=6)
    y = continuous_greedy(inst, config)
    beta = F(config.resolved_beta(False))
    actions = build_action_space(inst)
    assert {a.sequence.coupon_indices for a in actions} == {(0,)}
    spend = sum(y[a] * threshold_cost(inst, a) for a in actions)
    assert spend <= beta * F(3.0)
