"""Rounding the fractional solution into a feasible probe set and running it.

The pipeline is: include each action independently with its fractional mass,
resolve contention so at most one action per user (and, in the budget-of-users
mode, at most W actions overall) survives, then execute survivors in random
order behind a half-budget gate.  Low-value coupons plus the gate guarantee
the run never overspends, whatever the randomness does.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

import numpy as np

from .model import (
    Action,
    Instance,
    PolicyTrace,
    World,
    low_value_coupons,
    probe_user,
)
from .relaxation import RelaxationConfig, continuous_greedy


def independent_round(y: Mapping[Action, float], rng) -> frozenset[Action]:
    """Include each action independently with probability equal to its mass.

    One uniform draw per action, in y's iteration order.  y is taken as
    already checked (continuous_greedy checks its output).
    """
    draws = np.random.default_rng(rng).random(len(y)).tolist()
    return frozenset(action for (action, p), u in zip(y.items(), draws) if u < p)


def contention_resolve(
    raw: Collection[Action],
    matroids: str = "one",
    W: int | None = None,
    rng=0,
) -> frozenset[Action]:
    """Drop actions until the survivors are independent in every constraint matroid.

    Per user, one uniformly random contender survives.  In two-matroid mode an
    independent uniform choice keeps at most W of the raw actions, and an
    action must be kept by both rules.  Both rules retain any element less
    often as the raw set grows, which is what makes their guarantees compose.
    """
    if matroids not in ("one", "two"):
        raise ValueError("matroids must be 'one' or 'two'")
    gen = np.random.default_rng(rng)

    ordered = sorted(raw)
    by_user: dict[int, list[Action]] = {}
    for action in ordered:
        by_user.setdefault(action.user, []).append(action)
    survivors: set[Action] = set()
    for group in by_user.values():  # ascending user, as ordered is sorted
        survivors.add(group[gen.integers(len(group))] if len(group) > 1 else group[0])

    if matroids == "two":
        if W is None:
            raise ValueError("two-matroid resolution needs W")
        if len(ordered) > W:
            idx = gen.choice(len(ordered), size=W, replace=False)
            kept = {ordered[i] for i in idx}
        else:
            kept = set(ordered)
        survivors &= kept

    return frozenset(survivors)


def execute_probe_set(
    instance: Instance, resolved: Collection[Action], world: World, order_seed
) -> PolicyTrace:
    """Probe the surviving actions in seeded random order behind the budget gate.

    An action is acted on only while the remaining budget is at least B/2;
    since every offered coupon is worth at most B/2, the run can never
    overspend.  Sets with two actions for one user, or with coupons above
    B/2, are rejected outright.
    """
    users = [action.user for action in resolved]
    if len(set(users)) != len(users):
        raise ValueError("execute_probe_set expects at most one action per user")
    half = instance.B / 2.0
    for action in resolved:
        for i in action.sequence.coupon_indices:
            if instance.coupons[i] > half:
                raise ValueError(
                    f"action for user {action.user} offers coupon value "
                    f"{instance.coupons[i]} > B/2 = {half}"
                )
    gen = np.random.default_rng(order_seed)
    ordered = sorted(resolved)
    order = gen.permutation(len(ordered))
    trace = PolicyTrace()
    budget = instance.B
    seeds: set[int] = set()
    for pos in order:
        action = ordered[pos]
        if budget < half:
            continue  # discarded by the gate; no offer is made
        value, steps = probe_user(instance, world, action, budget)
        for step in steps:
            if step.accepted:
                budget -= step.coupon_value
            trace.steps.append(step)
            trace.budget_after.append(budget)
        if value is not None:
            seeds.add(action.user)
    trace.seeds = frozenset(seeds)
    return trace


class Alg1Policy:
    """Fractional-route policy: relax once, then round its float plan and execute per world."""

    name = "alg1"

    def __init__(self, instance: Instance, config: RelaxationConfig, extended: bool = False):
        if extended and instance.W is None:
            raise ValueError("extended mode requires an instance with W set")
        self.instance = instance
        self.config = config
        self.extended = extended
        self.vacuous = not low_value_coupons(instance) or instance.K < 1
        self.fractional: dict[Action, float] | None = None
        if not self.vacuous:
            y = continuous_greedy(instance, config, use_W=extended)
            self.fractional = {action: float(mass) for action, mass in y.items()}

    def generate(self, world: World, rng) -> PolicyTrace:
        if self.vacuous:
            return PolicyTrace(note="alg1-vacuous")
        gen = np.random.default_rng(rng)
        raw = independent_round(self.fractional, gen)
        resolved = contention_resolve(
            raw,
            matroids="two" if self.extended else "one",
            W=self.instance.W if self.extended else None,
            rng=gen,
        )
        return execute_probe_set(self.instance, resolved, world, gen)
