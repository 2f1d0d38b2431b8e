from __future__ import annotations

import re
import time
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import model, simplex
from couponprobe.cli import make_policy
from couponprobe.influence import Graph, InstanceError, influence_mc_stats
from couponprobe.model import (
    MAX_ACTIONS,
    Action,
    Instance,
    Steps,
    build_action_space,
    exact_expected_cost,
    low_value_coupons,
    scaled_integers,
)
from couponprobe.oracle import (
    concave_extension_exact,
    concave_relaxation_optimum,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from couponprobe.relaxation import RelaxationConfig, continuous_greedy, estimate_marginals, solve_lp
from couponprobe.rounding import ROUNDING_DRAWS, Alg1Policy
from couponprobe.sequencing import Alg2Policy, StochCpPolicy, alg2_dp

from helpers import (
    PolicyTrace,
    ProbeStep,
    act,
    check_trace,
    edgeless,
    planned,
    run_blocks,
    seeded_by,
    single_user,
    steps_trace,
    uniform_instance,
)


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
    with pytest.raises(InstanceError, match="B must be positive") as err:
        single_user(0.5, B="2")
    assert err.value.field == "B"
    for bad in (2.5, "3", 0):
        with pytest.raises(ValueError, match="marginal_samples must be a positive integer"):
            RelaxationConfig(marginal_samples=bad)


def test_numpy_integer_counts_are_stored_as_int() -> None:
    inst = single_user(0.5, K=np.int64(2), W=np.int32(1))
    assert inst.K == 2 and type(inst.K) is int
    assert inst.W == 1 and type(inst.W) is int
    with pytest.raises(ValueError):
        single_user(0.5, K=1.5)
    with pytest.raises(ValueError):
        single_user(0.5, W=1.5)
    graph = Graph(np.int64(3), ((np.int32(0), np.int64(1), 0.5),))
    assert graph.node_count == 3 and type(graph.node_count) is int
    assert all(type(end) is int for end in graph.edges[0][:2])
    with pytest.raises(InstanceError, match="node_count must be a non-negative integer") as err:
        Graph(2.5, ())
    assert err.value.field == "node_count"
    with pytest.raises(InstanceError, match="edge endpoint must be a non-negative integer, got 1.7") as err:
        Graph(3, ((0, 1, 0.5), (0, 1.7, 0.5)))
    assert (err.value.field, err.value.index) == ("edges", 1)
    # B is stored as a float, as the coupons are
    inst = single_user(0.5, B=np.float32(4.0))
    assert inst.B == 4.0 and type(inst.B) is float
    assert type(single_user(0.5, B=2).B) is float
    # so are coupons, attractiveness and edge probabilities of any real type
    inst = Instance(Graph(2, ((0, 1, Fraction(1, 2)),)), (np.float32(1.0), 2), ((0, np.float64(0.5)),) * 2, 1, 3)
    assert inst.coupons == (1.0, 2.0) and inst.attractiveness == ((0.0, 0.5),) * 2
    assert inst.graph.edges == ((0, 1, 0.5),)
    assert all(type(v) is float for v in (*inst.coupons, *inst.attractiveness[0], inst.graph.edges[0][2]))
    config = RelaxationConfig(marginal_samples=np.int64(3))
    assert config.marginal_samples == 3 and type(config.marginal_samples) is int


@pytest.mark.parametrize("bad", ["0.5", True, np.bool_(False), None])
def test_real_fields_refuse_strings_and_bools(bad) -> None:
    # coupons, attractiveness, edge probabilities and B share one rule
    calls = {
        ("coupons", 1, "coupon value must be a real number"):
            lambda: Instance(edgeless(1), (1.0, bad), ((0.2, 0.4),), K=1, B=3.0),
        ("attractiveness", 1, "user 1: attractiveness must be a real number"):
            lambda: Instance(edgeless(2), (1.0,), ((0.2,), (bad,)), K=1, B=3.0),
        ("edges", 0, "edge probability must be a real number"): lambda: Graph(2, ((0, 1, bad),)),
        ("B", None, "B must be positive and finite"): lambda: single_user(0.5, B=bad),
    }
    for (field, index, message), call in calls.items():
        with pytest.raises(InstanceError, match=message) as err:
            call()
        assert (err.value.field, err.value.index) == (field, index)


@pytest.mark.parametrize("field", ["K", "W", "node_count", "edge endpoint"])
@pytest.mark.parametrize("bad", [True, False])
def test_count_fields_refuse_bools(field, bad) -> None:
    # counts share the integer rule, which refuses bool as the real rule does
    calls = {
        "K": lambda: single_user(0.5, K=bad),
        "W": lambda: single_user(0.5, W=bad),
        "node_count": lambda: Graph(bad, ()),
        "edge endpoint": lambda: Graph(2, ((bad, 1 - bad, 0.5),)),
    }
    with pytest.raises(InstanceError, match=f"{field} must be a non-negative integer, got {bad}"):
        calls[field]()


@pytest.mark.parametrize("field, bad", [
    ("beta", False), ("beta", "0.25"), ("delta", True), ("delta", "0.5"),
    ("marginal_samples", True), ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", True),
])
def test_relaxation_config_refuses_bad_values_when_built(field, bad) -> None:
    # beta and delta follow the real-number rule, marginal_samples and
    # rng_seed the count rule
    with pytest.raises(ValueError, match=field):
        RelaxationConfig(**{field: bad})


def test_actions_that_do_not_fit_the_instance_are_refused() -> None:
    # every function that takes actions from a caller refuses, naming the
    # action, a user or coupon index the instance does not have
    inst = uniform_instance(3, (1.0, 2.0), ((0.2, 0.4),) * 3, K=2, B=3.0)
    fits = act(0, 0)
    for bad in (Action(-1, (0,)), Action(3, (0,)), Action(0, (5,)), Action(1, (0, 2))):
        y = {bad: 0.0, fits: 0.5}
        calls = (
            lambda: estimate_marginals(inst, y, RelaxationConfig(marginal_samples=5)),
            lambda: solve_lp({fits: 1.0, bad: 1.0}, inst, 0.25),
            lambda: exact_expected_cost(inst, bad),
            lambda: multilinear_value_exact(inst, y),
            lambda: concave_extension_exact(inst, y),
            lambda: multilinear_value_exact(inst, dict.fromkeys([fits, bad], 1)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"{bad} does not fit the instance")):
                call()


def test_probe_sequence_must_increase() -> None:
    with pytest.raises(ValueError, match="strictly increasing"):
        Action(0, (1, 0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Action(0, (0, 0))
    with pytest.raises(ValueError, match="at least one coupon"):
        Action(0, ())
    action = Action(0, (np.int64(0), np.int32(2)))
    assert action.coupons == (0, 2) and all(type(i) is int for i in action.coupons)


# ------------------------------------------------------------ offers and accepts


def _planned_at_one(inst: Instance, plan, extended: bool = False) -> Alg1Policy:
    """An Alg1Policy whose plan puts mass 1 on these actions and 0 on every other."""
    return planned(inst, {a: int(a in plan) for a in build_action_space(inst)}, extended)


def _probe(inst: Instance, plan, thresholds) -> Steps:
    """run_block's Steps in worlds with these user thresholds, for a plan at
    mass 1 and zero rounding uniforms: each planned action is present, wins
    contention and runs, in user order."""
    policy = _planned_at_one(inst, plan)
    thresholds = np.asarray(thresholds, dtype=float)
    uniforms = np.zeros((len(thresholds), ROUNDING_DRAWS, len(policy.fractional)))
    return policy.run_block(thresholds, uniforms)[2]


# attractiveness (0.5, 0.8) for coupons 1 and 2: a threshold up to 0.5 takes
# the first offer, one up to 0.8 the second, and one above declines both
_THRESHOLD_CASES = [
    (0.2, [0, -1], True, 1.0),
    (0.5, [0, -1], True, 1.0),
    (0.6, [0, 1], True, 2.0),
    (0.8, [0, 1], True, 2.0),
    (0.9, [0, 1], False, 0.0),
]


@pytest.mark.parametrize("threshold, offers, accepted, spend", _THRESHOLD_CASES,
                         ids=[str(case[0]) for case in _THRESHOLD_CASES])
def test_probe_threshold_semantics(threshold, offers, accepted, spend) -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    steps = _probe(inst, [act(0, 0, 1)], [[threshold]])
    assert steps.user.tolist() == [[0]]
    assert steps.offers.tolist() == [[offers]]
    assert steps.accepted.tolist() == [[accepted]]
    assert steps.spend.tolist() == [[spend]]


def test_accepts_are_upward_closed_in_value() -> None:
    # every coupon up to the lowest one whose attractiveness reaches the
    # user's threshold is offered, and that one is accepted
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.7),), K=2, B=10.0)
    steps = _probe(inst, [act(0, 0, 1)], [[0.55]])
    assert steps.offers.tolist() == [[[0, 1]]] and steps.accepted.tolist() == [[True]]
    gen = np.random.default_rng(5)
    rand = uniform_instance(
        2, (1.0, 2.0, 3.0),
        (tuple(sorted(gen.uniform(size=3))), tuple(sorted(gen.uniform(size=3)))),
        K=3, B=10.0,
    )
    thresholds = gen.random((200, 2))
    steps = _probe(rand, [act(0, 0, 1, 2), act(1, 0, 1, 2)], thresholds)
    assert (steps.user == [0, 1]).all()
    for r, row in enumerate(thresholds.tolist()):
        for v, t in enumerate(row):
            reached = [c for c in range(3) if rand.attractiveness[v][c] >= t]
            last = reached[0] if reached else 2
            assert [c for c in steps.offers[r, v].tolist() if c >= 0] == list(range(last + 1))
            assert steps.accepted[r, v] == bool(reached)
            assert steps.spend[r, v] == (rand.coupons[last] if reached else 0.0)


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
    # the one action order, which every draw over the actions follows
    assert [a.coupons for a in actions if a.user == 0] == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert [a.user for a in actions] == [0] * 6 + [1] * 6

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
            "the action space needs 2097150 actions (n = 2, "
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
    action = act(0, 0, 1)
    assert exact_expected_cost(inst, action, mode="threshold") == pytest.approx(1.1)
    assert exact_expected_cost(inst, action, mode="paper") == pytest.approx(1.3)


def test_expected_cost_single_coupon_agrees_across_modes() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    action = act(0, 1)
    assert exact_expected_cost(inst, action, mode="threshold") == pytest.approx(0.8 * 2.0)
    assert exact_expected_cost(inst, action, mode="paper") == pytest.approx(0.8 * 2.0)


def test_expected_cost_rejects_unknown_mode() -> None:
    inst = single_user(0.5)
    with pytest.raises(ValueError):
        exact_expected_cost(inst, act(0, 0), mode="midpoint")


def test_exact_expected_cost_is_rational() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=10.0)
    cost = exact_expected_cost(inst, act(0, 0, 1))
    assert isinstance(cost, Fraction)
    assert float(cost) == pytest.approx(1.1)


def _power_of_two_scaling(values: list[float]) -> list[int]:
    # the scaling the direction LP once applied to float weights: each
    # as_integer_ratio numerator times the largest denominator over its own
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios]


def test_scaled_integers_on_floats_equal_the_power_of_two_scaling() -> None:
    gen = np.random.default_rng(22)
    pool = np.array([0.0, 5e-324, 2.2e-308, 0.1, 0.3, 1.0, 3.0, 1e300])
    for _ in range(2000):
        size = int(gen.integers(0, 10))
        mixed = gen.choice(pool, size) * gen.choice([-1.0, 1.0], size)
        scaled = gen.random(size) * 10.0 ** gen.integers(-300, 300, size).astype(float)
        values = [float(v) for v in np.where(gen.random(size) < 0.5, mixed, scaled)]
        assert scaled_integers(values) == _power_of_two_scaling(values)
    # numpy reals are read as their floats
    assert scaled_integers([np.float32(0.1), np.float64(0.3)]) == _power_of_two_scaling([float(np.float32(0.1)), 0.3])
    # rationals scale by the LCM of their denominators, mixed with floats too
    assert scaled_integers([Fraction(1, 6), Fraction(3, 4), 2, np.int64(1)]) == [2, 9, 24, 12]
    assert scaled_integers([0.5, Fraction(1, 3)]) == [3, 2]
    assert scaled_integers([]) == []


# ------------------------------------------------------- traces and checking


def _toy_instance() -> Instance:
    # five users, coupons 1 and 2, per-user cap 1, budget 3
    return uniform_instance(5, (1.0, 2.0), ((0.5, 0.8),) * 5, K=1, B=3.0)


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
    policy = _planned_at_one(inst, [act(0, 0, 1), act(1, 0)], extended=True)
    _, _, steps = next(run_blocks(policy, 50, 3))
    assert (steps.user >= 0).all()  # both users probed, in either order
    seeded = seeded_by(steps, inst.n_users)
    for r in range(50):
        assert check_trace(inst, steps_trace(inst, steps, seeded, r), extended=True) == []


# ------------------------------------------------ refusals and empty inputs

_EDGE_CASES = {
    "alg2-K-zero": (lambda: Alg2Policy(single_user(0.5, K=0)), "probing requires K >= 1"),
    "alg2-dp-W-negative": (lambda: alg2_dp(single_user(0.5), {0: 1.0}, W=-1), "W must be non-negative"),
    "ledger-wrong-length": (
        lambda: check_trace(single_user(0.5), PolicyTrace(steps=[ProbeStep(0, 1.0, False)])),
        ["budget ledger length differs from step count"]),
    "extended-check-without-W": (
        lambda: check_trace(single_user(0.5), PolicyTrace(), extended=True),
        ["extended check requested but instance has no W"]),
    "no-coupons": (lambda: uniform_instance(1, (), ((),), K=1, B=1.0), "at least one coupon value is required"),
    "simplex-short-row": (lambda: simplex.maximize([1, 1], [[1]], [1]), "row 0 has wrong width"),
    "simplex-rhs-mismatch": (
        lambda: simplex.maximize([1], [[1]], [1, 1]), "rhs length does not match number of rows"),
    "opt-oracle-simulated": (
        lambda: make_policy("opt-oracle", single_user(0.5), RelaxationConfig()),
        "'opt-oracle' is not world-simulated"),
    "marginals-empty-y": (lambda: estimate_marginals(single_user(0.5), {}, RelaxationConfig()), {}),
    "mc-stats-no-seeds": (lambda: influence_mc_stats(edgeless(2), [], samples=10, rng_seed=0), (0.0, 0.0)),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_refusals_and_empty_inputs(case) -> None:
    # a string is the message of the ValueError the call must raise; any
    # other value is what the call must return
    call, want = _EDGE_CASES[case]
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(want)):
            call()
    else:
        assert call() == want


# every entry point with an extended mode, each of which reads its cap from
# Instance.user_cap
_EXTENDED_ENTRY_POINTS = {
    "Alg1Policy": lambda inst: Alg1Policy(inst, RelaxationConfig(), extended=True),
    "Alg2Policy": lambda inst: Alg2Policy(inst, extended=True),
    "StochCpPolicy": lambda inst: StochCpPolicy(inst, RelaxationConfig(), extended=True),
    "solve_lp": lambda inst: solve_lp(dict.fromkeys(build_action_space(inst), 1.0), inst, 0.25, use_W=True),
    "continuous_greedy": lambda inst: continuous_greedy(inst, RelaxationConfig(), use_W=True),
    "optimal_adaptive_value": lambda inst: optimal_adaptive_value(inst, use_W=True),
    "concave_relaxation_optimum": lambda inst: concave_relaxation_optimum(inst, use_W=True),
}


@pytest.mark.parametrize("entry", list(_EXTENDED_ENTRY_POINTS))
def test_extended_entry_points_refuse_an_instance_without_w(entry) -> None:
    # both routes apply (coupon 1 is low-value, 3 fits B), so stoch-cp builds both
    inst = uniform_instance(2, (1.0, 3.0), ((0.5, 0.6), (0.4, 0.7)), K=1, B=4.0)
    assert inst.W is None and inst.user_cap(False) is None
    with pytest.raises(ValueError) as err:
        _EXTENDED_ENTRY_POINTS[entry](inst)
    assert str(err.value) == "extended mode requires an instance with W set"
