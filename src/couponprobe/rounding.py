"""Rounding the fractional solution into a feasible probe set and running it.

The pipeline is: include each action independently with its fractional mass,
resolve contention so at most one action per user (and, in the budget-of-users
mode, at most W actions overall) survives, then execute survivors in random
order behind a half-budget gate.  Low-value coupons plus the gate guarantee
the run never overspends, whatever the randomness does.

Alg1Policy.run_block runs the pipeline for a block of worlds at once from
four uniforms per world and action (ROUNDING_DRAWS): a presence uniform, a
contention key, a W key and an order key.  The functions below run it for
one world from a generator, for callers that round a single plan.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

import numpy as np

from . import influence
from .model import (
    Action,
    Instance,
    PolicyTrace,
    Steps,
    World,
    low_value_coupons,
    probe_user,
)
from .relaxation import RelaxationConfig, continuous_greedy

# run_block's uniforms per world and action: presence, contention key, W key
# and order key.
ROUNDING_DRAWS = 4


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
    """Fractional-route policy: relax once, then round its float plan and execute it in each world.

    The plan is the checked y as floats in action order, where every user
    holds the same number of actions, contiguously; per action the policy
    also keeps its offers as arrays for run_block.
    """

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
            self._mass = np.array(list(self.fractional.values()))
            # per action and offer slot, padded past its sequence's end: the
            # coupon index (-1), the user's attractiveness for it (inf, which
            # no threshold exceeds) and its value (0.0)
            longest = max(len(a.sequence) for a in y)
            self._offers = np.full((len(y), longest), -1, dtype=np.intp)
            self._attract = np.full((len(y), longest), np.inf)
            for i, action in enumerate(y):
                coupons = action.sequence.coupon_indices
                self._offers[i, :len(coupons)] = coupons
                self._attract[i, :len(coupons)] = [instance.attractiveness[action.user][c] for c in coupons]
            self._lengths = (self._offers >= 0).sum(axis=1)
            self._values = np.where(self._offers >= 0, np.array(instance.coupons)[self._offers], 0.0)

    @property
    def chunk_rows(self) -> int:
        """Worlds per run_block call: the most, at least 1, whose uniforms fit
        in influence.KERNEL_BYTES, the byte bound of every other block array."""
        return max(1, influence.KERNEL_BYTES // (8 * ROUNDING_DRAWS * len(self._mass)))

    def run_block(self, thresholds: np.ndarray, uniforms: np.ndarray):
        """Round, resolve and execute the plan in a block of worlds.

        thresholds[r] holds world r's user thresholds and uniforms[r] its
        (ROUNDING_DRAWS, |S|) draws.  Action a is present when its presence
        uniform is below y_a.  Among a user's present actions the smallest
        contention key wins; in two-matroid mode the winner must also be
        among the W smallest W keys of all present actions, a rule
        independent of the first, as contention_resolve's two are.
        Survivors run in ascending order key, each only while at least half
        the budget is left, offering its coupons until the first accept.
        Ties go to the lower action index.  Returns the present actions
        (rows, |S|), the surviving action per user (rows, n; -1 for none)
        and the run's Steps.
        """
        inst = self.instance
        rows, n = thresholds.shape
        m = len(self._mass)
        every = np.arange(rows)[:, None]
        present = uniforms[:, 0] < self._mass
        keys = np.where(present, uniforms[:, 1], 2.0).reshape(rows, n, m // n)
        chosen = keys.argmin(axis=2) + np.arange(0, m, m // n)
        alive = present.reshape(rows, n, m // n).any(axis=2)
        if self.extended:
            ranked = np.argsort(np.where(present, uniforms[:, 2], 2.0), axis=1, kind="stable")
            kept = np.zeros((rows, m), dtype=bool)
            np.put_along_axis(kept, ranked[:, :inst.W], True, axis=1)
            alive &= kept[every, chosen]
        chosen = np.where(alive, chosen, -1)

        positions = int(alive.sum(axis=1).max(initial=0))
        users = np.argsort(np.where(alive, uniforms[:, 3][every, chosen], 2.0), axis=1, kind="stable")[:, :positions]
        acts = chosen[every, users]
        user = np.full((rows, positions), -1, dtype=np.intp)
        offers = np.full((rows, positions, self._offers.shape[1]), -1, dtype=np.intp)
        accepted = np.zeros((rows, positions), dtype=bool)
        spend = np.zeros((rows, positions))
        budget = np.full(rows, inst.B)
        slots = np.arange(self._offers.shape[1])
        for p in range(positions):
            r = np.flatnonzero((acts[:, p] >= 0) & (budget >= inst.B / 2.0))
            a, u = acts[r, p], users[r, p]
            declined = (self._attract[a] < thresholds[r, u][:, None]).sum(axis=1)
            took = declined < self._lengths[a]
            user[r, p] = u
            offers[r, p] = np.where(slots <= declined[:, None], self._offers[a], -1)
            accepted[r, p] = took
            paid = np.where(took, self._values[a, np.minimum(declined, self._lengths[a] - 1)], 0.0)
            spend[r, p] = paid
            budget[r] -= paid
        return present, chosen, Steps(user, offers, accepted, spend)

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
