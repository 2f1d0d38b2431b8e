from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from couponprobe.influence import singleton_influence_table
from couponprobe.model import (
    Action,
    PolicyTrace,
    ProbeSequence,
    build_action_space,
)
from couponprobe.oracle import (
    OracleSizeError,
    _spread_table,
    _subset_value_table,
    concave_extension_exact,
    concave_relaxation_optimum,
    conditional_accept,
    enumerate_worlds,
    exact_action_set_value,
    exact_action_set_value_frac,
    exact_policy_value,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from couponprobe.sequencing import Alg2Policy, alg2_execute, alg2_plan, alg2_value, evaluate_policy

from helpers import random_tiny_instance, single_user, uniform_instance

F = Fraction


def _act(user: int, *indices: int) -> Action:
    return Action(user=user, sequence=ProbeSequence(coupon_indices=tuple(indices)))


# ------------------------------------------------------ conditional threshold


def test_conditional_accept_without_rejection_is_unconditional() -> None:
    assert conditional_accept(0.7, 0.0) == pytest.approx(0.7)


def test_conditional_accept_after_rejection() -> None:
    # rejected at p=0.5 leaves sigma uniform on (0.5, 1]; accepting at 0.8
    # happens with probability 0.3/0.5
    assert conditional_accept(0.8, 0.5) == pytest.approx(0.6)


def test_conditional_accept_dominated_target() -> None:
    assert conditional_accept(0.3, 0.5) == 0.0


# ------------------------------------------------------------ adaptive oracle


def test_oracle_single_user_single_coupon() -> None:
    inst = single_user(0.5, coupon=1.0, B=1.0)
    assert optimal_adaptive_value(inst) == pytest.approx(0.5)


def test_oracle_vacuous_budget_never_probes() -> None:
    inst = single_user(0.9, coupon=2.0, B=1.0)
    assert optimal_adaptive_value(inst) == 0.0


def test_oracle_two_coupon_adaptivity() -> None:
    # one user, coupons 1 and 2, budget 3: offering the small coupon first
    # then the large one on rejection dominates any single offer
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.9),), K=2, B=3.0)
    got = optimal_adaptive_value(inst)
    # probe (1 then 2): accept at 1 w.p. 0.4, else accept at 2 w.p. 0.5/0.6
    assert got == pytest.approx(0.9)
    single_best = max(0.4, 0.9)
    assert got >= single_best - 1e-12


def test_oracle_restricted_never_beats_unrestricted() -> None:
    gen = np.random.default_rng(4)
    for _ in range(6):
        inst = random_tiny_instance(gen, users=2, coupons_count=2, K=2)
        unrestricted = optimal_adaptive_value(inst)
        restricted = optimal_adaptive_value(inst, restricted=True)
        assert restricted <= unrestricted + 1e-12


def test_oracle_w_cap_orders_correctly() -> None:
    gen = np.random.default_rng(9)
    for _ in range(4):
        base = random_tiny_instance(gen, users=3, coupons_count=2, K=1)
        loose = uniform_instance(
            base.n_users, base.coupons, base.attractiveness,
            K=base.K, B=base.B, W=base.n_users,
            edges=base.graph.edges,
        )
        tight = uniform_instance(
            base.n_users, base.coupons, base.attractiveness,
            K=base.K, B=base.B, W=1,
            edges=base.graph.edges,
        )
        free = optimal_adaptive_value(base)
        assert optimal_adaptive_value(tight, use_W=True) <= free + 1e-12
        assert optimal_adaptive_value(loose, use_W=True) == pytest.approx(free, abs=1e-12)


def test_oracle_dominates_alg2_exactly() -> None:
    gen = np.random.default_rng(13)
    for _ in range(5):
        inst = random_tiny_instance(gen, users=3, coupons_count=2, K=1)
        table = singleton_influence_table(inst.graph)
        order = alg2_plan(inst, table)
        if inst.coupons[-1] > inst.B:
            continue
        alg2 = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
        assert optimal_adaptive_value(inst) >= alg2 - 1e-9


def test_oracle_size_guard() -> None:
    inst = uniform_instance(5, (1.0,), ((0.5,),) * 5, K=1, B=3.0)
    with pytest.raises(OracleSizeError):
        optimal_adaptive_value(inst)
    big_k = uniform_instance(1, (0.5, 0.6, 0.7), ((0.1, 0.2, 0.3),), K=3, B=9.0)
    with pytest.raises(OracleSizeError):
        optimal_adaptive_value(big_k)


# ------------------------------------------------------------ exact evaluation


def test_enumerate_worlds_is_a_probability_space() -> None:
    inst = uniform_instance(
        2, (1.0, 2.0), ((0.3, 0.6), (0.5, 0.5)), K=2, B=3.0,
        edges=((0, 1, 0.4),),
    )
    total = 0.0
    count = 0
    for prob, world in enumerate_worlds(inst):
        assert len(world.thresholds) == 2
        assert prob > 0
        total += prob
        count += 1
    assert total == pytest.approx(1.0)
    # 3 threshold cells for user 0, 2 for user 1, 2 cascade outcomes
    assert count == 3 * 2 * 2


def test_exact_value_of_never_probe_policy() -> None:
    inst = single_user(0.5)
    value = exact_policy_value(inst, lambda world: PolicyTrace())
    assert value == 0.0


def test_exact_value_two_user_first_accept() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=1.0)
    order = alg2_plan(inst, {0: 1.0, 1: 1.0})
    value = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
    assert value == pytest.approx(0.75)


def test_exact_value_matches_closed_form_and_simulation() -> None:
    inst = uniform_instance(
        3, (1.0, 2.0), ((0.3, 0.6), (0.2, 0.8), (0.4, 0.5)), K=1, B=3.0,
        edges=((0, 2, 0.5), (1, 0, 0.3)),
    )
    table = singleton_influence_table(inst.graph)
    order = alg2_plan(inst, table)
    exact = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
    closed = alg2_value(inst, order, table)
    assert exact == pytest.approx(closed, abs=1e-9)
    sim = evaluate_policy(inst, Alg2Policy(inst, singleton_table=table), worlds=20_000, rng_seed=5)
    assert abs(sim.mean - exact) <= 4 * max(sim.stderr, 1e-12)


# -------------------------------------------------------------- extensions


def test_concave_extension_at_a_vertex() -> None:
    inst = uniform_instance(1, (1.0,), ((0.5,),), K=1, B=3.0)
    a = _act(0, 0)
    got = concave_extension_exact(inst, {a: F(1)})
    assert got == exact_action_set_value_frac(inst, [a])


def test_concave_extension_of_zero_is_zero() -> None:
    inst = uniform_instance(1, (1.0,), ((0.5,),), K=1, B=3.0)
    assert concave_extension_exact(inst, {_act(0, 0): F(0)}) == 0


def test_subset_value_table_matches_per_subset_values() -> None:
    # criterion 08's wide instance: 12 actions, 4096 subsets, far fewer
    # distinct top-coupon maps; the shared evaluations must change nothing
    wide = uniform_instance(
        2, (1.0, 1.2, 1.4), ((0.2, 0.4, 0.6), (0.3, 0.5, 0.7)), K=2, B=3.0,
        edges=((0, 1, 0.5), (1, 0, 0.4)),
    )
    actions = build_action_space(wide)
    spread = _spread_table(wide)
    want = [
        exact_action_set_value_frac(wide, [a for i, a in enumerate(actions) if mask >> i & 1], spread)
        for mask in range(1 << len(actions))
    ]
    assert _subset_value_table(wide, actions) == want


def test_concave_extension_linear_for_modular_f() -> None:
    # no edges and one action per user: f is additive over actions
    inst = uniform_instance(3, (1.0,), ((0.3,), (0.5,), (0.7,)), K=1, B=9.0)
    actions = build_action_space(inst)
    y = {a: F(1, 3) for a in actions}
    linear = sum(
        F(1, 3) * exact_action_set_value_frac(inst, [a]) for a in actions
    )
    assert concave_extension_exact(inst, y) == linear
    assert multilinear_value_exact(inst, y) == linear


def test_concave_dominates_multilinear_pointwise() -> None:
    gen = np.random.default_rng(25)
    inst = uniform_instance(
        2, (1.0, 1.4), ((0.3, 0.6), (0.5, 0.8)), K=2, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    for _ in range(5):
        y = {
            a: F(int(gen.integers(0, 5)), 8) for a in actions
        }
        # keep per-user mass inside the simplex
        for user in range(2):
            mass = sum(y[a] for a in actions if a.user == user)
            if mass > 1:
                for a in actions:
                    if a.user == user:
                        y[a] = y[a] / mass
        upper = concave_extension_exact(inst, y)
        lower = multilinear_value_exact(inst, y)
        assert upper >= lower


def test_relaxation_optimum_dominates_integral_solutions() -> None:
    inst = uniform_instance(
        2, (1.0, 1.4), ((0.3, 0.6), (0.5, 0.8)), K=1, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    assert len(actions) <= 6
    for use_W, cap in ((False, None), (True, 1)):
        trial = inst if not use_W else uniform_instance(
            2, inst.coupons, inst.attractiveness, K=1, B=3.0, W=cap,
            edges=inst.graph.edges,
        )
        optimum = concave_relaxation_optimum(trial, use_W=use_W)
        for r in range(len(actions) + 1):
            for subset in itertools.combinations(actions, r):
                users = [a.user for a in subset]
                if len(set(users)) < len(users):
                    continue
                if use_W and len(subset) > cap:
                    continue
                cost = sum(
                    (
                        F(trial.attractiveness[a.user][a.sequence.coupon_indices[-1]])
                        * F(trial.coupons[a.sequence.coupon_indices[-1]])
                        for a in subset
                    ),
                    F(0),
                )
                if cost > F(trial.B):
                    continue
                assert optimum >= exact_action_set_value_frac(trial, subset)


def test_exact_action_set_value_float_wrapper() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    actions = build_action_space(inst)
    exact = exact_action_set_value(inst, actions)
    assert exact == pytest.approx(1.0)  # two independent 0.5 seeds, no edges
