from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import model
from couponprobe.model import (
    MAX_ACTIONS,
    Action,
    Instance,
    PolicyTrace,
    ProbeSequence,
    ProbeStep,
    build_action_space,
    check_trace,
    exact_expected_cost,
    low_value_coupons,
)
from couponprobe.oracle import concave_relaxation_optimum

from helpers import (
    make_world,
    probe_user,
    realize,
    run_fixed_plan,
    sample_world,
    single_user,
    uniform_instance,
)


def _act(user: int, *indices: int) -> Action:
    return Action(user=user, sequence=ProbeSequence(coupon_indices=tuple(indices)))


# ---------------------------------------------------------------- validation


def test_rationality_violation_names_the_offender() -> None:
    with pytest.raises(ValueError) as err:
        uniform_instance(1, (1.0, 2.0), ((0.8, 0.3),), K=1, B=3.0)
    msg = str(err.value)
    assert "user 0" in msg
    assert "1" in msg and "2" in msg


def test_coupons_must_be_strictly_increasing_and_positive() -> None:
    with pytest.raises(ValueError):
        uniform_instance(1, (2.0, 1.0), ((0.5, 0.5),), K=1, B=3.0)
    with pytest.raises(ValueError):
        uniform_instance(1, (1.0, 1.0), ((0.5, 0.5),), K=1, B=3.0)
    with pytest.raises(ValueError):
        uniform_instance(1, (-1.0,), ((0.5,),), K=1, B=3.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            uniform_instance(1, (1.0, bad), ((0.5, 0.5),), K=1, B=3.0)


def test_constraint_parameter_validation() -> None:
    with pytest.raises(ValueError):
        single_user(0.5, B=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            single_user(0.5, B=bad)
    with pytest.raises(ValueError):
        single_user(0.5, K=-1)
    with pytest.raises(ValueError):
        single_user(0.5, W=-1)
    with pytest.raises(ValueError):
        uniform_instance(2, (1.0,), ((0.5,),), K=1, B=1.0)  # missing a row
    with pytest.raises(ValueError):
        uniform_instance(1, (1.0,), ((1.5,),), K=1, B=1.0)  # p out of range


def test_numpy_integer_counts_are_stored_as_int() -> None:
    inst = single_user(0.5, K=np.int64(2), W=np.int32(1))
    assert inst.K == 2 and type(inst.K) is int
    assert inst.W == 1 and type(inst.W) is int
    with pytest.raises(ValueError):
        single_user(0.5, K=1.5)
    with pytest.raises(ValueError):
        single_user(0.5, W=1.5)


def test_probe_sequence_must_increase() -> None:
    with pytest.raises(ValueError):
        ProbeSequence(coupon_indices=(1, 0))
    with pytest.raises(ValueError):
        ProbeSequence(coupon_indices=(0, 0))
    with pytest.raises(ValueError):
        ProbeSequence(coupon_indices=())


# ------------------------------------------------------------------- realize


def test_realize_threshold_semantics() -> None:
    inst = single_user(0.8)
    assert realize(inst, make_world([0.5]), 0, 0)
    low = single_user(0.3)
    assert not realize(low, make_world([0.5]), 0, 0)


def test_accepts_are_upward_closed_in_value() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.7),), K=2, B=10.0)
    w = make_world([0.55])
    assert not realize(inst, w, 0, 0)
    assert realize(inst, w, 0, 1)
    # exhaustively: accept at index i implies accept at every j > i
    gen = np.random.default_rng(5)
    rand = uniform_instance(
        2, (1.0, 2.0, 3.0),
        (tuple(sorted(gen.uniform(size=3))), tuple(sorted(gen.uniform(size=3)))),
        K=3, B=10.0,
    )
    for _ in range(200):
        w = sample_world(rand, gen)
        for v in range(2):
            accepted = [c for c in range(3) if realize(rand, w, v, c)]
            assert accepted == list(range(3 - len(accepted), 3))


def test_marginal_acceptance_rate_converges() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.3, 0.65),), K=2, B=10.0)
    gen = np.random.default_rng(42)
    n = 100_000
    hits = np.zeros(2, dtype=int)
    for _ in range(n):
        w = sample_world(inst, gen)
        for c in range(2):
            hits[c] += realize(inst, w, 0, c)
    for c, p in enumerate((0.3, 0.65)):
        freq = hits[c] / n
        stderr = float(np.sqrt(p * (1 - p) / n))
        assert abs(freq - p) <= 4 * stderr


# ------------------------------------------------- coupon classes and actions


def test_low_value_coupons_toy_split() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.5),), K=1, B=3.0)
    assert low_value_coupons(inst) == [0]


def test_low_value_coupons_all_and_none() -> None:
    both = uniform_instance(1, (1.0, 2.0), ((0.5, 0.5),), K=1, B=4.0)
    assert low_value_coupons(both) == [0, 1]
    none = uniform_instance(1, (1.0, 2.0), ((0.5, 0.5),), K=1, B=1.9)
    assert low_value_coupons(none) == []


def test_action_space_counts() -> None:
    toy = uniform_instance(5, (1.0, 2.0), ((0.5, 0.5),) * 5, K=1, B=3.0)
    assert len(build_action_space(toy)) == 5

    three_low = uniform_instance(2, (1.0, 1.2, 1.4), ((0.3, 0.4, 0.5),) * 2, K=2, B=3.0)
    actions = build_action_space(three_low)
    assert len(actions) == 2 * (3 + 3)
    assert len(set(actions)) == len(actions)
    assert actions == sorted(actions)

    capped = uniform_instance(1, (1.0, 1.2), ((0.3, 0.4),), K=5, B=3.0)
    assert len(build_action_space(capped)) == 3


def _twenty_coupons(n: int) -> Instance:
    # L = K = 20: every coupon is low-value, 2^20 - 1 sequences per user
    row = tuple(round(0.04 * (i + 1), 2) for i in range(20))
    return uniform_instance(n, range(1, 21), (row,) * n, K=20, B=40.0)


def test_action_space_refuses_a_huge_space_before_enumerating() -> None:
    inst = _twenty_coupons(2)
    start = time.perf_counter()
    for build in (build_action_space, concave_relaxation_optimum):
        with pytest.raises(ValueError) as err:
            build(inst)
        assert str(err.value) == (
            "the action space would hold 2097150 actions (n = 2, "
            f"L = 20 low-value coupons, K = 20), above the limit of {MAX_ACTIONS}"
        )
    assert time.perf_counter() - start < 0.5


def test_action_space_limit_is_inclusive(monkeypatch) -> None:
    three_low = uniform_instance(2, (1.0, 1.2, 1.4), ((0.3, 0.4, 0.5),) * 2, K=2, B=3.0)
    monkeypatch.setattr(model, "MAX_ACTIONS", 12)
    assert len(build_action_space(three_low)) == 12
    monkeypatch.setattr(model, "MAX_ACTIONS", 11)
    with pytest.raises(ValueError, match="12 actions"):
        build_action_space(three_low)


def test_action_space_empty_when_no_low_coupons() -> None:
    inst = uniform_instance(2, (2.0,), ((0.5,),) * 2, K=1, B=3.0)
    assert build_action_space(inst) == []


# ------------------------------------------------------------- expected cost


def test_expected_cost_two_coupon_example() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    act = _act(0, 0, 1)
    assert exact_expected_cost(inst, act, mode="threshold") == pytest.approx(1.1)
    assert exact_expected_cost(inst, act, mode="paper") == pytest.approx(1.3)


def test_expected_cost_single_coupon_agrees_across_modes() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    act = _act(0, 1)
    assert exact_expected_cost(inst, act, mode="threshold") == pytest.approx(0.8 * 2.0)
    assert exact_expected_cost(inst, act, mode="paper") == pytest.approx(0.8 * 2.0)


def test_expected_cost_rejects_unknown_mode() -> None:
    inst = single_user(0.5)
    with pytest.raises(ValueError):
        exact_expected_cost(inst, _act(0, 0), mode="midpoint")


def test_exact_expected_cost_is_rational() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    cost = exact_expected_cost(inst, _act(0, 0, 1))
    assert isinstance(cost, Fraction)
    assert float(cost) == pytest.approx(1.1)


def test_expected_cost_matches_simulated_spend() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    act = _act(0, 0, 1)
    gen = np.random.default_rng(9)
    n = 100_000
    spends = np.empty(n)
    for i in range(n):
        w = sample_world(inst, gen)
        value, _ = probe_user(inst, w, act, remaining_budget=10.0)
        spends[i] = 0.0 if value is None else value
    mean = float(spends.mean())
    stderr = float(spends.std(ddof=1) / np.sqrt(n))
    assert abs(mean - exact_expected_cost(inst, act)) <= 4 * stderr


# ---------------------------------------------------------------- probe_user


def test_probe_user_stops_at_first_accept() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    act = _act(0, 0, 1)
    value, steps = probe_user(inst, make_world([0.2]), act, 10.0)
    assert value == 1.0
    assert [s.accepted for s in steps] == [True]


def test_probe_user_middle_threshold() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    value, steps = probe_user(inst, make_world([0.6]), _act(0, 0, 1), 10.0)
    assert value == 2.0
    assert [(s.coupon_value, s.accepted) for s in steps] == [(1.0, False), (2.0, True)]


def test_probe_user_all_rejects() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    value, steps = probe_user(inst, make_world([0.9]), _act(0, 0, 1), 10.0)
    assert value is None
    assert len(steps) == 2
    assert not any(s.accepted for s in steps)


# ------------------------------------------------------- traces and checking


def _toy_instance() -> Instance:
    # five users, coupons 1 and 2, per-user cap 1, budget 3
    return uniform_instance(5, (1.0, 2.0), ((0.5, 0.8),) * 5, K=1, B=3.0)


def test_fixed_plan_replays_the_toy_walkthrough() -> None:
    inst = _toy_instance()
    # d rejects 1, a accepts 2, b accepts 1; c and e never probed
    world = make_world([0.7, 0.3, 0.9, 0.6, 0.99])
    plan = [_act(3, 0), _act(0, 1), _act(1, 0)]
    trace = run_fixed_plan(inst, world, plan)
    assert [(s.user, s.coupon_value, s.accepted) for s in trace.steps] == [
        (3, 1.0, False),
        (0, 2.0, True),
        (1, 1.0, True),
    ]
    assert trace.budget_after == [3.0, 1.0, 0.0]
    assert trace.seeds == frozenset({0, 1})
    assert check_trace(inst, trace) == []


def test_fixed_plan_skips_unaffordable_actions() -> None:
    inst = _toy_instance()
    world = make_world([0.0, 0.0, 0.0, 0.0, 0.0])
    plan = [_act(0, 1), _act(1, 1), _act(2, 0)]
    trace = run_fixed_plan(inst, world, plan)
    # budget 3: user 0 takes 2, user 1's coupon 2 no longer fits, user 2 takes 1
    assert [(s.user, s.accepted) for s in trace.steps] == [(0, True), (2, True)]
    assert trace.budget_after == [1.0, 0.0]


def test_check_trace_flags_overspend() -> None:
    inst = _toy_instance()
    bad = PolicyTrace(
        steps=[ProbeStep(0, 2.0, True), ProbeStep(1, 2.0, True)],
        budget_after=[1.0, -1.0],
        seeds=frozenset({0, 1}),
    )
    assert any("budget" in p or "redeemed" in p for p in check_trace(inst, bad))


def test_check_trace_flags_probe_cap() -> None:
    inst = _toy_instance()  # K = 1
    bad = PolicyTrace(
        steps=[ProbeStep(0, 1.0, False), ProbeStep(0, 2.0, False)],
        budget_after=[3.0, 3.0],
        seeds=frozenset(),
    )
    assert any("offers" in p and "cap" in p for p in check_trace(inst, bad))


def test_check_trace_flags_non_contiguous_probing() -> None:
    inst = uniform_instance(2, (1.0, 2.0), ((0.5, 0.8),) * 2, K=2, B=10.0)
    bad = PolicyTrace(
        steps=[
            ProbeStep(0, 1.0, False),
            ProbeStep(1, 1.0, False),
            ProbeStep(0, 2.0, True),
        ],
        budget_after=[10.0, 10.0, 8.0],
        seeds=frozenset({0}),
    )
    assert any("consecutive" in p for p in check_trace(inst, bad))


def test_check_trace_flags_wrong_seed_set() -> None:
    inst = _toy_instance()
    bad = PolicyTrace(
        steps=[ProbeStep(0, 1.0, True)],
        budget_after=[2.0],
        seeds=frozenset(),
    )
    assert any("seed" in p for p in check_trace(inst, bad))


def test_check_trace_flags_w_violation_in_extended_mode() -> None:
    inst = uniform_instance(3, (1.0,), ((0.5,),) * 3, K=1, B=10.0, W=1)
    bad = PolicyTrace(
        steps=[ProbeStep(0, 1.0, False), ProbeStep(1, 1.0, False)],
        budget_after=[10.0, 10.0],
        seeds=frozenset(),
    )
    assert any("distinct users" in p for p in check_trace(inst, bad, extended=True))
    assert check_trace(inst, bad, extended=False) == []


def test_check_trace_accepts_clean_run() -> None:
    inst = uniform_instance(2, (1.0, 2.0), ((0.5, 0.8),) * 2, K=2, B=10.0, W=2)
    gen = np.random.default_rng(3)
    for _ in range(50):
        w = sample_world(inst, gen)
        trace = run_fixed_plan(inst, w, [_act(0, 0, 1), _act(1, 0)])
        assert check_trace(inst, trace, extended=True) == []
