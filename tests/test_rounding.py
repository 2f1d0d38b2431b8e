from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from couponprobe.model import Action, ProbeSequence, build_action_space, sample_world
from couponprobe.relaxation import RelaxationConfig
from couponprobe.rounding import (
    Alg1Policy,
    contention_resolve,
    execute_probe_set,
    independent_round,
)
from couponprobe.model import check_trace

from helpers import make_world, random_tiny_instance, single_user, uniform_instance

F = Fraction


def _act(user: int, *indices: int) -> Action:
    return Action(user=user, sequence=ProbeSequence(coupon_indices=tuple(indices)))


# --------------------------------------------------------- independent_round


def test_round_zero_vector_gives_empty_set() -> None:
    y = {_act(0, 0): F(0), _act(1, 0): F(0)}
    raw = independent_round(y, np.random.default_rng(0))
    assert raw == frozenset()


def test_round_certain_inclusion() -> None:
    a = _act(0, 0)
    y = {a: F(1)}
    for seed in range(20):
        raw = independent_round(y, np.random.default_rng(seed))
        assert raw == frozenset({a})


def test_round_frequencies_match_mass() -> None:
    a, b = _act(0, 0), _act(1, 0)
    y = {a: F(3, 10), b: F(4, 5)}
    trials = 20_000
    gen = np.random.default_rng(8)
    hits = {a: 0, b: 0}
    for _ in range(trials):
        raw = independent_round(y, gen)
        for action in raw:
            hits[action] += 1
    assert hits[a] / trials == pytest.approx(0.3, abs=0.01)
    assert hits[b] / trials == pytest.approx(0.8, abs=0.01)


def test_round_is_deterministic_per_seed() -> None:
    y = {_act(0, 0): F(1, 2), _act(1, 0): F(1, 2)}
    first = independent_round(y, np.random.default_rng(5))
    second = independent_round(y, np.random.default_rng(5))
    assert first == second


# -------------------------------------------------------- contention_resolve


def test_resolve_keeps_independent_sets_in_one_matroid_mode() -> None:
    a, b = _act(0, 0), _act(1, 0)
    resolved = contention_resolve(frozenset({a, b}), matroids="one")
    assert resolved == {a, b}


def test_resolve_picks_one_action_per_user() -> None:
    a, b = _act(0, 0), _act(0, 1)
    raw = frozenset({a, b})
    seen = set()
    for seed in range(40):
        resolved = contention_resolve(raw, matroids="one", rng=seed)
        assert len(resolved) == 1
        seen |= resolved
    assert seen == {a, b}  # both get picked across seeds


def test_resolve_two_matroid_caps_cardinality() -> None:
    actions = [_act(v, 0) for v in range(4)]
    raw = frozenset(actions)
    for seed in range(30):
        resolved = contention_resolve(raw, matroids="two", W=2, rng=seed)
        assert len(resolved) <= 2
        assert len({a.user for a in resolved}) == len(resolved)


def test_resolve_survival_rate_smoke() -> None:
    # per-user class mass kept at beta so the survival bound is in force;
    # the full-scale version lives in the acceptance suite
    beta = 0.25
    actions = [_act(0, 0), _act(0, 1), _act(1, 0)]
    y = {a: F(1, 8) for a in actions}
    gen = np.random.default_rng(17)
    included = {a: 0 for a in actions}
    survived = {a: 0 for a in actions}
    for _ in range(20_000):
        raw = independent_round(y, gen)
        resolved = contention_resolve(raw, matroids="one", rng=gen)
        for a in raw:
            included[a] += 1
            if a in resolved:
                survived[a] += 1
    for a in actions:
        assert included[a] > 0
        assert survived[a] / included[a] >= (1 - beta) - 0.02


# --------------------------------------------------------- execute_probe_set


def test_execute_empty_set() -> None:
    inst = single_user(0.5, coupon=1.0, B=3.0)
    trace = execute_probe_set(inst, frozenset(), make_world([0.4]), order_seed=0)
    assert trace.steps == []
    assert trace.seeds == frozenset()
    assert check_trace(inst, trace) == []


def test_execute_refuses_high_value_coupons() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=3.0)
    with pytest.raises(ValueError):
        execute_probe_set(inst, frozenset({_act(0, 1)}), make_world([0.4]), order_seed=0)


def test_execute_requires_resolved_stage() -> None:
    # two actions for one user is a raw set that contention never resolved
    inst = uniform_instance(1, (1.0, 1.4), ((0.5, 0.8),), K=2, B=3.0)
    raw = frozenset({_act(0, 0), _act(0, 1)})
    with pytest.raises(ValueError):
        execute_probe_set(inst, raw, make_world([0.4]), order_seed=0)


def test_execute_budget_gate_discards_without_probing() -> None:
    # three always-accepting users at 1.4 each against budget 3: after two
    # redemptions the remaining 0.2 is below B/2, so one user is never offered
    inst = uniform_instance(3, (1.4,), ((1.0,),) * 3, K=1, B=3.0)
    resolved = frozenset(_act(v, 0) for v in range(3))
    world = make_world([0.5, 0.5, 0.5])
    trace = execute_probe_set(inst, resolved, world, order_seed=11)
    assert sum(1 for s in trace.steps if s.accepted) == 2
    assert len(trace.seeds) == 2
    probed = {s.user for s in trace.steps}
    assert len(probed) == 2  # the third user saw no offer at all
    assert trace.budget_after[-1] == pytest.approx(3.0 - 2.8)
    assert check_trace(inst, trace) == []


def test_execute_never_overspends_on_random_runs() -> None:
    gen = np.random.default_rng(23)
    inst = uniform_instance(
        4, (1.0, 1.4), (
            (0.3, 0.6), (0.5, 0.9), (0.2, 0.4), (0.7, 0.8),
        ), K=2, B=3.0,
    )
    actions = build_action_space(inst)
    for trial in range(300):
        y = {a: F(1, 16) for a in actions}
        raw = independent_round(y, gen)
        resolved = contention_resolve(raw, matroids="one", rng=gen)
        world = sample_world(inst, gen)
        trace = execute_probe_set(inst, resolved, world, order_seed=gen)
        assert check_trace(inst, trace) == []


def test_budget_gate_discard_probability_markov_bound() -> None:
    # coupons at most B/2 and spend mass at most beta*B: the gate fires with
    # probability at most 2*beta
    beta = 0.25
    inst = uniform_instance(3, (1.4,), ((1.0,),) * 3, K=1, B=3.0)
    actions = [_act(v, 0) for v in range(3)]
    # b = 1.4 per action; 3 * y * 1.4 <= beta * 3 needs y <= beta/1.4
    y_val = F(15, 100)
    assert 3 * y_val * F(1.4) <= F(beta) * F(3.0)
    y = {a: y_val for a in actions}
    gen = np.random.default_rng(31)
    resolved_count = 0
    discarded = 0
    for _ in range(10_000):
        raw = independent_round(y, gen)
        resolved = contention_resolve(raw, matroids="one", rng=gen)
        world = sample_world(inst, gen)
        trace = execute_probe_set(inst, resolved, world, order_seed=gen)
        probed = {s.user for s in trace.steps}
        for a in resolved:
            resolved_count += 1
            if a.user not in probed:
                discarded += 1
    assert resolved_count > 0
    assert discarded / resolved_count <= 2 * beta + 0.02


# ------------------------------------------------------------------- alg1


def test_alg1_vacuous_without_low_coupons() -> None:
    inst = uniform_instance(2, (2.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    policy = Alg1Policy(inst, RelaxationConfig(marginal_samples=50))
    assert policy.vacuous
    trace = policy.generate(make_world([0.5, 0.5]), rng=0)
    assert trace.steps == []
    assert trace.note == "alg1-vacuous"


def test_alg1_seeds_both_users_when_everyone_accepts() -> None:
    inst = uniform_instance(2, (1.0,), ((1.0,), (1.0,)), K=1, B=20.0)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=0)
    policy = Alg1Policy(inst, config)
    actions = build_action_space(inst)
    assert all(policy.fractional[a] == 1 for a in actions)
    for seed in range(10):
        trace = policy.generate(make_world([0.9, 0.9]), rng=seed)
        assert trace.seeds == frozenset({0, 1})
        assert check_trace(inst, trace) == []


def test_alg1_one_shot_is_deterministic_and_feasible() -> None:
    gen = np.random.default_rng(2)
    inst = random_tiny_instance(gen, users=3)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=3)
    first, second = (
        Alg1Policy(inst, config).generate(
            sample_world(inst, np.random.default_rng([9, 0])), np.random.default_rng([9, 1])
        )
        for _ in range(2)
    )
    assert first.steps == second.steps
    assert first.seeds == second.seeds
    assert check_trace(inst, first) == []


def test_alg1_extended_respects_w() -> None:
    inst = uniform_instance(
        3, (1.0,), ((0.9,), (0.9,), (0.9,)), K=1, B=3.0, W=1,
    )
    config = RelaxationConfig(delta=0.25, marginal_samples=80, rng_seed=1)
    policy = Alg1Policy(inst, config, extended=True)
    gen = np.random.default_rng(0)
    for seed in range(50):
        trace = policy.generate(sample_world(inst, gen), rng=seed)
        assert len({s.user for s in trace.steps}) <= 1
        assert check_trace(inst, trace, extended=True) == []
