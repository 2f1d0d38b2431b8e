"""Rounding the fractional solution into a feasible probe set and running it.

The pipeline is: include each action independently with its fractional mass,
resolve contention so at most one action per user (and, in the budget-of-users
mode, at most W actions overall) survives, then execute survivors in random
order behind a half-budget gate.  Low-value coupons plus the gate guarantee
the run never overspends, whatever the randomness does.

Alg1Policy.run_block runs the pipeline for a block of worlds at once from
four uniforms per world and action (ROUNDING_DRAWS): a presence uniform, a
contention key, a W key and an order key.  This is the contention-resolution
composition of Chekuri, Vondrak and Zenklusen (SICOMP 2014).
"""

from __future__ import annotations

import numpy as np

from .model import Action, Instance, Steps, low_value_coupons
from .relaxation import RelaxationConfig, continuous_greedy

# run_block's uniforms per world and action: presence, contention key, W key
# and order key.
ROUNDING_DRAWS = 4


class Alg1Policy:
    """Fractional-route policy: relax once, then round its float plan and execute it in each world.

    The plan is the checked y as floats in action order, where every user
    holds the same number of actions, contiguously; per action the policy
    also keeps its offers as arrays for run_block.
    """

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
            longest = max(len(a.coupons) for a in y)
            self._offers = np.full((len(y), longest), -1, dtype=np.intp)
            self._attract = np.full((len(y), longest), np.inf)
            for i, action in enumerate(y):
                coupons = action.coupons
                self._offers[i, :len(coupons)] = coupons
                self._attract[i, :len(coupons)] = [instance.attractiveness[action.user][c] for c in coupons]
            self._lengths = (self._offers >= 0).sum(axis=1)
            self._values = np.where(self._offers >= 0, np.array(instance.coupons)[self._offers], 0.0)

    def run_block(self, thresholds: np.ndarray, uniforms: np.ndarray):
        """Round, resolve and execute the plan in a block of worlds.

        thresholds[r] holds world r's user thresholds and uniforms[r] its
        (ROUNDING_DRAWS, |S|) draws.  Action a is present when its presence
        uniform is below y_a.  Among a user's present actions the smallest
        contention key wins; in two-matroid mode the winner must also be
        among the W smallest W keys of all present actions, a rule
        independent of the first.  Each rule keeps any one action less often
        as more actions are present, which is what makes their guarantees
        compose.
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
