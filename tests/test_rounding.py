from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest

from couponprobe.model import (
    Steps,
    build_action_space,
    check_steps,
    exact_expected_cost,
    low_value_coupons,
)
from couponprobe.relaxation import RelaxationConfig
from couponprobe.rounding import ROUNDING_DRAWS, Alg1Policy
from couponprobe.sequencing import evaluate_policy

from helpers import (
    act,
    alg1_trace,
    check_trace,
    make_world,
    oracle4_shaped,
    planned,
    random_tiny_instance,
    relax48_shaped,
    run_blocks,
    seeded_by,
    single_user,
    steps_trace,
    uniform_instance,
)

F = Fraction


# ------------------------------------------------- the gated execution


def _run(policy: Alg1Policy, thresholds, gen):
    """run_block on these thresholds with fresh uniforms from gen: the
    present actions, the survivors, the Steps and their seed matrix."""
    uniforms = gen.random((len(thresholds), ROUNDING_DRAWS, len(policy.fractional)))
    present, chosen, steps = policy.run_block(np.asarray(thresholds, dtype=float), uniforms)
    return present, chosen, steps, seeded_by(steps, policy.instance.n_users)


def test_execute_empty_set() -> None:
    inst = single_user(0.5, coupon=1.0, B=3.0)
    policy = planned(inst, {act(0, 0): F(1, 2)})
    # presence uniforms of 1.0 are never below y: nothing is present
    present, chosen, steps = policy.run_block(np.full((1, 1), 0.4), np.ones((1, ROUNDING_DRAWS, 1)))
    assert not present.any() and (chosen == -1).all()
    assert steps.user.shape == (1, 0)
    seeded = seeded_by(steps, 1)
    assert not seeded.any()
    assert not check_steps(inst, steps, seeded).any()
    assert check_trace(inst, steps_trace(inst, steps, seeded, 0)) == []


def test_execute_budget_gate_discards_without_probing() -> None:
    # three always-accepting users at 1.4 each against budget 3: after two
    # redemptions the remaining 0.2 is below B/2, so one user is never offered
    inst = uniform_instance(3, (1.4,), ((1.0,),) * 3, K=1, B=3.0)
    policy = planned(inst, {act(v, 0): F(1) for v in range(3)})
    present, chosen, steps, seeded = _run(policy, np.full((20, 3), 0.5), np.random.default_rng(11))
    assert present.all() and (chosen >= 0).all()  # every user's action survives contention
    assert (steps.accepted.sum(axis=1) == 2).all()
    assert (seeded.sum(axis=0) == 2).all()
    assert ((steps.user >= 0).sum(axis=1) == 2).all()  # the third user saw no offer at all
    assert steps.spend.sum(axis=1) == pytest.approx([2.8] * 20)
    assert not check_steps(inst, steps, seeded).any()


def test_execute_never_overspends_on_random_runs() -> None:
    inst = uniform_instance(
        4, (1.0, 1.4), (
            (0.3, 0.6), (0.5, 0.9), (0.2, 0.4), (0.7, 0.8),
        ), K=2, B=3.0,
    )
    policy = planned(inst, {a: F(1, 16) for a in build_action_space(inst)})
    gen = np.random.default_rng(23)
    _, _, steps, seeded = _run(policy, gen.random((300, 4)), gen)
    assert (steps.spend.sum(axis=1) <= inst.B).all()
    assert not check_steps(inst, steps, seeded).any()


def test_budget_gate_discard_probability_markov_bound() -> None:
    # coupons at most B/2 and spend mass at most beta*B: the gate fires with
    # probability at most 2*beta
    beta = 0.25
    inst = uniform_instance(3, (1.4,), ((1.0,),) * 3, K=1, B=3.0)
    actions = [act(v, 0) for v in range(3)]
    # b = 1.4 per action; 3 * y * 1.4 <= beta * 3 needs y <= beta/1.4
    y_val = F(15, 100)
    assert 3 * y_val * F(1.4) <= F(beta) * F(3.0)
    policy = planned(inst, {a: y_val for a in actions})
    gen = np.random.default_rng(31)
    _, chosen, steps, _ = _run(policy, gen.random((10_000, 3)), gen)
    resolved_count = int((chosen >= 0).sum())
    discarded = resolved_count - int((steps.user >= 0).sum())
    assert resolved_count > 0
    assert discarded / resolved_count <= 2 * beta + 0.02


# ------------------------------------------------------------------- alg1


def test_alg1_vacuous_without_low_coupons() -> None:
    inst = uniform_instance(2, (2.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    policy = Alg1Policy(inst, RelaxationConfig(marginal_samples=50))
    assert policy.vacuous
    result = evaluate_policy(inst, policy, worlds=100, rng_seed=0)
    assert (result.mean, result.violations) == (0.0, 0)
    assert result.branch_counts == {"alg1-vacuous": 100}


def test_alg1_seeds_both_users_when_everyone_accepts() -> None:
    inst = uniform_instance(2, (1.0,), ((1.0,), (1.0,)), K=1, B=20.0)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=0)
    policy = Alg1Policy(inst, config)
    actions = build_action_space(inst)
    assert all(policy.fractional[a] == 1 for a in actions)
    _, _, steps, seeded = _run(policy, np.full((10, 2), 0.9), np.random.default_rng(0))
    assert seeded.all()
    assert not check_steps(inst, steps, seeded).any()


def test_alg1_one_shot_is_deterministic_and_feasible() -> None:
    gen = np.random.default_rng(2)
    inst = random_tiny_instance(gen, users=3)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=3)
    thresholds = np.random.default_rng([9, 0]).random((50, inst.n_users))
    (present, chosen, steps, seeded), again = (
        _run(Alg1Policy(inst, config), thresholds, np.random.default_rng([9, 1])) for _ in range(2)
    )
    for x, y in zip((present, chosen, *steps, seeded), (again[0], again[1], *again[2], again[3])):
        assert np.array_equal(x, y)
    assert not check_steps(inst, steps, seeded).any()


def test_alg1_extended_respects_w() -> None:
    inst = uniform_instance(
        3, (1.0,), ((0.9,), (0.9,), (0.9,)), K=1, B=3.0, W=1,
    )
    config = RelaxationConfig(delta=0.25, marginal_samples=80, rng_seed=1)
    policy = Alg1Policy(inst, config, extended=True)
    gen = np.random.default_rng(0)
    _, _, steps, seeded = _run(policy, gen.random((50, 3)), gen)
    assert ((steps.user >= 0).sum(axis=1) <= 1).all()
    assert not check_steps(inst, steps, seeded, extended=True).any()
    assert evaluate_policy(inst, policy, worlds=500, rng_seed=1).violations == 0


# ------------------------------------------------------- alg1 in blocks

_SHAPED = {
    "relax48": lambda: (relax48_shaped(48, W=3), RelaxationConfig(delta=1 / 48, marginal_samples=10, rng_seed=1)),
    "oracle4": lambda: (oracle4_shaped(4), RelaxationConfig(delta=0.25, marginal_samples=50, rng_seed=1)),
    # total mass W / 2 = 1/2, so the W rule binds in about one world in sixteen
    "oracle4-W1": lambda: (oracle4_shaped(4, W=1), RelaxationConfig(beta=0.5, delta=0.25, marginal_samples=50)),
}


@functools.lru_cache(maxsize=None)
def _shaped_policy(case: str, extended: bool) -> Alg1Policy:
    inst, config = _SHAPED[case]()
    return Alg1Policy(inst, config, extended=extended)


# the benchmark shapes in both matroid modes, for the floors
_MODES = [(case, extended) for case in ("relax48", "oracle4") for extended in (False, True)]


@pytest.mark.parametrize("case,extended", _MODES)
def test_alg1_offers_are_low_value(case, extended) -> None:
    # an action runs only while at least B/2 is left, so no run overspends
    # as long as no offer is worth more than B/2; both instances have a
    # coupon above B/2
    policy = _shaped_policy(case, extended)
    inst = policy.instance
    assert max(inst.coupons) > inst.B / 2
    offered = policy._offers >= 0
    assert offered[:, 0].all()
    assert (np.array(inst.coupons)[policy._offers[offered]] <= inst.B / 2).all()
    assert (policy._values <= inst.B / 2).all()


@pytest.mark.parametrize("case,extended", _MODES + [("oracle4-W1", True)])
def test_run_block_rows_replay_one_world_at_a_time(case, extended) -> None:
    policy = _shaped_policy(case, extended)
    inst = policy.instance
    gen = np.random.default_rng(5)
    thresholds = gen.random((1200, inst.n_users))
    # a threshold equal to the attractiveness of a coupon accepts it
    hit = gen.random(thresholds.shape) < 0.3
    coupons = gen.integers(len(inst.coupons), size=int(hit.sum()))
    thresholds[hit] = np.array(inst.attractiveness)[np.nonzero(hit)[1], coupons]
    uniforms = gen.random((1200, ROUNDING_DRAWS, len(policy.fractional)))
    _, _, steps = policy.run_block(thresholds, uniforms)
    seeded = seeded_by(steps, inst.n_users)
    verdicts = check_steps(inst, steps, seeded, extended)
    for r in range(len(thresholds)):
        want = alg1_trace(policy, make_world(thresholds[r].tolist()), uniforms[r].tolist())
        assert steps_trace(inst, steps, seeded, r) == want
        assert verdicts[r] == bool(check_trace(inst, want, extended=extended))
    assert not verdicts.any()


def _corrupt(inst, steps, seeded, extended):
    """A block's step arrays and seed matrix with rows broken by hand.

    Returns them with a dict: each break's row.  Most rows break one rule of
    check_trace alone: accepts that overspend B, a user offered K+1
    coupons at one position, a user at two positions apart, an offer after
    an accept, an offer not above the last, two equal offers at one
    position, a seed that accepted nothing, a ledger that misses an accept,
    a ledger that debits an accept early, at a position with no offers, and
    W+1 users probed.  Two more rows break several rules, or none: a
    position repeated at the end, and a position split in two adjacent ones,
    which reads as the same trace.
    """
    n = inst.n_users
    user = np.pad(steps.user, ((0, 0), (0, n)), constant_values=-1)
    offers = np.pad(steps.offers, ((0, 0), (0, n), (0, 1)), constant_values=-1)
    accepted = np.pad(steps.accepted, ((0, 0), (0, n)))
    spend = np.pad(steps.spend, ((0, 0), (0, n)))
    seeded = seeded.copy()
    made = (offers >= 0).sum(axis=2)
    count = (made > 0).sum(axis=1)
    spent = steps.spend.sum(axis=1)
    top = max(low_value_coupons(inst))
    rows: dict[str, int] = {}

    def pick(name, ok, newcomers=0, cap=inst.W if extended else n):
        # a fresh row with room for the newcomers: by default inside W in
        # extended mode, so that they break no other rule
        room = count + newcomers <= cap
        rows[name] = next(int(r) for r in np.flatnonzero(ok & room) if r not in rows.values())
        return rows[name]

    def probe(r, u, coupons, accept=False, paid=None):
        p = count[r]
        user[r, p], offers[r, p, :len(coupons)], accepted[r, p] = u, coupons, accept
        spend[r, p] = (inst.coupons[coupons[-1]] if accept else 0.0) if paid is None else paid
        seeded[u, r] |= accept
        count[r] += 1

    def newcomer(r, skip=()):
        return next(u for u in range(n) if u not in user[r] and u not in skip)

    needed = np.floor((inst.B - spent) / inst.coupons[top]).astype(int) + 1
    r = pick("overspend", count + needed <= n, cap=n)
    for _ in range(needed[r]):
        probe(r, newcomer(r), [top], accept=True)
    full = (made == inst.K) & ~accepted & (offers[:, :, inst.K - 1] < len(inst.coupons) - 1)
    r = pick("K+1 offers", full.any(axis=1))
    p = int(np.flatnonzero(full[r])[0])
    offers[r, p, inst.K] = offers[r, p, inst.K - 1] + 1
    r = pick("apart", count >= 0, newcomers=2)
    u = newcomer(r)
    probe(r, u, [0])
    probe(r, newcomer(r), [0])
    probe(r, u, [1])
    r = pick("after accept", spent + inst.coupons[0] <= inst.B, newcomers=1)
    u = newcomer(r)
    probe(r, u, [0], accept=True)
    probe(r, u, [1])
    r = pick("not increasing", count >= 0, newcomers=1)
    u = newcomer(r)
    probe(r, u, [1])
    probe(r, u, [0])
    r = pick("equal offers", count >= 0, newcomers=1)
    probe(r, newcomer(r), [0, 0])
    r = pick("seed", count >= 0, newcomers=1)
    seeded[newcomer(r), r] = True
    r = pick("ledger", spent + inst.coupons[0] <= inst.B, newcomers=1)
    probe(r, newcomer(r), [0], accept=True, paid=0.0)
    r = pick("early debit", spent + inst.coupons[1] <= inst.B, newcomers=1)
    spend[r, count[r]] = inst.coupons[0]  # at a position with no offers
    count[r] += 1
    probe(r, newcomer(r), [0, 1], accept=True, paid=inst.coupons[1] - inst.coupons[0])
    r = pick("W+1 users", count <= inst.W, cap=n)
    while count[r] <= inst.W:
        probe(r, newcomer(r), [0])
    r = pick("repeated", count >= 2)
    probe(r, user[r, 0], list(offers[r, 0][offers[r, 0] >= 0]))
    # the last position's last offer moved to a position of its own
    ends = np.take_along_axis(made, np.maximum(count - 1, 0)[:, None], axis=1)[:, 0]
    r = pick("split", (count > 0) & (ends >= 2))
    p = count[r] - 1
    u, coupon = user[r, p], offers[r, p, ends[r] - 1]
    offers[r, p, ends[r] - 1] = -1
    probe(r, u, [coupon], accept=bool(accepted[r, p]))
    accepted[r, p], spend[r, p] = False, 0.0
    return Steps(user, offers, accepted, spend), seeded, rows


@pytest.mark.parametrize("case,extended", _MODES)
def test_check_steps_flags_corrupted_rows_as_check_trace_does(case, extended) -> None:
    policy = _shaped_policy(case, extended)
    inst = policy.instance
    _, _, steps = next(run_blocks(policy, 2000, 7))
    seeded = seeded_by(steps, inst.n_users)
    steps, seeded, rows = _corrupt(inst, steps, seeded, extended)
    verdicts = check_steps(inst, steps, seeded, extended)
    want = [bool(check_trace(inst, steps_trace(inst, steps, seeded, r), extended=extended))
            for r in range(len(verdicts))]
    assert verdicts.tolist() == want
    flagged = {name for name, r in rows.items() if verdicts[r]}
    assert flagged == set(rows) - {"split"} - (set() if extended else {"W+1 users"})
    assert verdicts.sum() == len(flagged)


def test_check_steps_reads_the_cap_rule_in_extended_mode() -> None:
    # without W, extended mode is refused as Instance.user_cap refuses it,
    # not read as every row breaking the cap; threshold mode has no cap
    policy = _shaped_policy("oracle4", False)
    inst = dataclasses.replace(policy.instance, W=None)
    _, _, steps = next(run_blocks(policy, 200, 7))
    seeded = seeded_by(steps, inst.n_users)
    with pytest.raises(ValueError, match="^extended mode requires an instance with W set$"):
        check_steps(inst, steps, seeded, extended=True)
    assert not check_steps(inst, steps, seeded).any()


@functools.cache
def _action_counts(case: str, extended: bool):
    """Per action, over 100,000 run_block worlds: how often it was present,
    survived contention and was executed; and every world's spend.  Drawn
    once per mode and shared by the tests, so the arrays are read-only."""
    policy = _shaped_policy(case, extended)
    m = len(policy.fractional)
    present = np.zeros(m, dtype=np.int64)
    resolved = np.zeros(m, dtype=np.int64)
    executed = np.zeros(m, dtype=np.int64)
    spends = []
    for here, chosen, steps in run_blocks(policy, 100_000, 11):
        present += here.sum(axis=0)
        resolved += np.bincount(chosen[chosen >= 0], minlength=m)
        probed = steps.user >= 0
        executed += np.bincount(chosen[np.nonzero(probed)[0], steps.user[probed]], minlength=m)
        spends.append(steps.spend.sum(axis=1))
    counts = present, resolved, executed, np.concatenate(spends)
    for array in counts:
        array.flags.writeable = False
    return counts


_LEAST = 400  # a rate is tested only over at least this many tries


def _assert_floor(hits, tries, floor) -> None:
    """Each tested action's rate hits/tries reaches its floor within a
    4-stderr binomial margin."""
    tested = tries >= _LEAST
    assert tested.sum() >= 2
    floor = np.broadcast_to(floor, tries.shape)[tested]
    rate = hits[tested] / tries[tested]
    short = rate < floor - 4 * np.sqrt(floor * (1 - floor) / tries[tested])
    assert not short.any(), f"{short.sum()} of {tested.sum()} actions short: rate {rate[short]} floor {floor[short]}"


# The direction LP caps each user's mass at 1, not beta (solve_lp), so one-
# matroid contention is not bound to 1 - beta: on these instances a user
# carries 0.71-0.75 and some actions survive 0.68 of their presences.
_USER_MASS_GAP = pytest.mark.xfail(strict=True, reason="a user's mass in y may exceed beta")


@pytest.mark.parametrize("case,extended", [
    pytest.param(case, extended, marks=() if extended else _USER_MASS_GAP) for case, extended in _MODES
])
def test_contention_survival_floor_per_action(case, extended) -> None:
    # a present action survives contention with probability at least
    # 1 - beta, or (1 - beta)^2 with the W rule, when y lies in beta P
    beta = _shaped_policy(case, extended).config.resolved_beta(extended)
    present, resolved, _, _ = _action_counts(case, extended)
    _assert_floor(resolved, present, (1 - beta) ** (2 if extended else 1))


@pytest.mark.parametrize("case", list(_SHAPED))
def test_contention_survival_follows_user_mass(case) -> None:
    # a present action wins with probability E[1 / (1 + X)], X the count of
    # its user's other present actions, which by Jensen is at least
    # 1 / (1 + their mass)
    policy = _shaped_policy(case, False)
    present, resolved, _, _ = _action_counts(case, False)
    mass = np.array(list(policy.fractional.values())).reshape(policy.instance.n_users, -1)
    others = (mass.sum(axis=1, keepdims=True) - mass).ravel()
    _assert_floor(resolved, present, 1 / (1 + others))


@pytest.mark.parametrize("case,extended", _MODES)
def test_gate_survival_floor_per_action(case, extended) -> None:
    # the others' spend before a survivor is at most their raw spend, whose
    # mean is at most beta B, so by Markov the gate passes it with
    # probability at least 1 - 2 beta
    beta = _shaped_policy(case, extended).config.resolved_beta(extended)
    _, resolved, executed, _ = _action_counts(case, extended)
    _assert_floor(executed, resolved, 1 - 2 * beta)


@pytest.mark.parametrize("case,extended", _MODES)
def test_spend_stays_within_budget_and_expected_cost(case, extended) -> None:
    # the executed set is part of the raw set, so a world spends at most what
    # its raw set would, whose mean is sum_a y_a cost_a <= beta B
    policy = _shaped_policy(case, extended)
    inst = policy.instance
    *_, spends = _action_counts(case, extended)
    assert (spends <= inst.B).all()
    expected = sum(y * exact_expected_cost(inst, a) for a, y in policy.fractional.items())
    assert expected <= policy.config.resolved_beta(extended) * inst.B + 1e-9
    stderr = spends.std() / np.sqrt(len(spends))
    assert spends.mean() <= expected + 4 * stderr
