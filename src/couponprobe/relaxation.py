"""Continuous relaxation of the probing problem and its greedy ascent.

The fractional solution lives on the action space (user, coupon sequence).
Marginal utilities are estimated by Monte Carlo with common random numbers,
the direction-finding LP is solved exactly over rationals, and the ascent
accumulates in exact arithmetic so the scaled constraints hold with no slack.

One ascent step costs about 2 ms with 10 marginal samples and 13 ms with the
default 200 on a 48-action instance (8 users, K=2; 2-core x86 host, Python
3.11), nearly all of it in the marginal samples.  The default step 1/|S|^2
takes 2304 steps there: 30 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from . import simplex
from .influence import realized_influence
from .model import (
    COST_MODE_THRESHOLD,
    COST_MODES,
    Action,
    Instance,
    World,
    build_action_space,
    exact_expected_cost,
    realize,
    sample_world,
)
from .simplex import ONE, ZERO


def default_beta_basic() -> float:
    """Scaling constant maximizing beta*(1-beta)*(1-2*beta) on [0, 1/2]."""
    return (3.0 - math.sqrt(3.0)) / 6.0


@lru_cache(maxsize=1)
def default_beta_extended() -> float:
    """Scaling constant maximizing beta*(1-beta)^2*(1-2*beta) on [0, 1/2].

    Found numerically: the derivative 1 - 8b + 15b^2 - 8b^3 has a single sign
    change on the interval.
    """

    def deriv(b: float) -> float:
        return 1.0 - 8.0 * b + 15.0 * b * b - 8.0 * b ** 3

    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class RelaxationConfig:
    """Knobs for the fractional stage.

    beta and delta default to None and are resolved against the instance:
    beta to the mode's optimized constant, delta to 1/|S|^2 where S is the
    action space.  That default step size is safe but slow (|S|^2 steps of
    marginal_samples samples each: 30 s at |S| = 48 with 200 samples); larger
    values trade the guarantee for speed.
    """

    beta: float | None = None
    delta: float | None = None
    marginal_samples: int = 200
    rng_seed: int = 0
    cost_mode: str = COST_MODE_THRESHOLD

    def __post_init__(self) -> None:
        if self.beta is not None and not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")
        if self.delta is not None and not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.marginal_samples < 1:
            raise ValueError("marginal_samples must be positive")
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")

    def resolved_beta(self, use_W: bool) -> float:
        if self.beta is not None:
            return self.beta
        return default_beta_extended() if use_W else default_beta_basic()

    def resolved_delta(self, n_actions: int) -> float:
        if self.delta is not None:
            return self.delta
        return 1.0 / float(n_actions * n_actions)


def user_mass(y: Mapping[Action, Fraction]) -> dict[int, Fraction]:
    """Total fractional mass per user of a point y on the action space."""
    mass: dict[int, Fraction] = {}
    for action, value in y.items():
        mass[action.user] = mass.get(action.user, Fraction(0)) + Fraction(value)
    return mass


def check_fractional(y: Mapping[Action, Fraction]) -> None:
    """Raise ValueError unless every mass lies in [0, 1] and no user carries
    more than one unit."""
    for action, value in y.items():
        if not 0 <= Fraction(value) <= 1:
            raise ValueError(f"mass for {action} outside [0, 1]: {value}")
    for user, mass in user_mass(y).items():
        if mass > 1:
            raise ValueError(f"user {user} carries fractional mass {mass} > 1")


def action_set_utility(instance: Instance, actions: Iterable[Action], world: World) -> int:
    """Realized spread when the given actions are all probed in one world.

    A user seeds iff their threshold is met by the best coupon any of their
    actions would offer; the budget is deliberately not consulted here.
    """
    best: dict[int, int] = {}
    for action in actions:
        top = action.sequence.coupon_indices[-1]
        if best.get(action.user, -1) < top:
            best[action.user] = top
    seeds = [v for v, idx in best.items() if realize(instance, world, v, idx)]
    if not seeds:
        return 0
    return realized_influence(instance.graph, seeds, world.live_mask)


def estimate_marginals(
    instance: Instance,
    y: Mapping[Action, Fraction],
    config: RelaxationConfig,
    iteration: int = 0,
) -> dict[Action, float]:
    """Monte Carlo estimate of each action's marginal utility at y.

    Sample s keys its RNG stream by (rng_seed, iteration, s); within one
    sample the same world and the same random base set serve every action, so
    the estimates share their noise.  The base-set draws follow y's iteration
    order, which for continuous_greedy's y is build_action_space's order.
    Each sample adds, for every action outside the base set, its gain
    action_set_utility(base + [action]) - action_set_utility(base).
    Attractiveness rows are non-decreasing, so that gain is zero unless the
    action newly seeds its user, and then it is the same for every action of
    that user: one reach-mask union per user and sample gives it.  Marginals
    are therefore non-negative sample by sample.
    """
    actions = list(y)
    probs = [float(p) for p in y.values()]
    users = [a.user for a in actions]
    tops = [a.sequence.coupon_indices[-1] for a in actions]
    attractiveness = instance.attractiveness
    totals = [0.0] * len(actions)
    for s in range(config.marginal_samples):
        rng = np.random.default_rng([config.rng_seed, iteration, s])
        world = sample_world(instance, rng)
        present = [u < p for u, p in zip(rng.random(len(actions)).tolist(), probs)]
        best: dict[int, int] = {}
        for v, top, inside in zip(users, tops, present):
            if inside and best.get(v, -1) < top:
                best[v] = top
        thresholds = world.thresholds
        seeded = {v for v, top in best.items() if attractiveness[v][top] >= thresholds[v]}
        reach = instance.graph.reach_masks(world.live_mask)
        union = 0
        for v in seeded:
            union |= reach[v]
        base_value = union.bit_count()
        gains: dict[int, int] = {}
        for i, (v, top, inside) in enumerate(zip(users, tops, present)):
            if inside or v in seeded or attractiveness[v][top] < thresholds[v]:
                continue
            if v not in gains:
                gains[v] = (union | reach[v]).bit_count() - base_value
            totals[i] += gains[v]
    n = config.marginal_samples
    return {a: totals[i] / n for i, a in enumerate(actions)}


def action_costs_exact(
    instance: Instance, actions: Iterable[Action], cost_mode: str = COST_MODE_THRESHOLD
) -> dict[Action, Fraction]:
    return {a: exact_expected_cost(instance, a, cost_mode) for a in actions}


# A point of a user's upper hull: (cost, weight, action index or None for the
# origin, which stands for leaving mass unassigned).
_HullPoint = tuple[Fraction, Fraction, int | None]


def _slope(p: _HullPoint, q: _HullPoint) -> Fraction:
    return (q[1] - p[1]) / (q[0] - p[0])


def _unique_knapsack_optimum(
    actions: list[Action], weights: list[Fraction], costs: list[Fraction], budget: Fraction
) -> list[Fraction] | None:
    """Optimum of the direction LP without the W row, if that optimum is unique.

    Without W the LP is a multiple-choice knapsack LP: each user picks a point
    in the convex hull of the origin and its actions' (cost, weight) points.
    Walking every user's upper hull, steepest segment first, until the budget
    runs out reaches an optimum in which at most one user is split between two
    hull points (Sinha & Zoltners 1979).  The split segment's slope lam (0
    when the budget is slack) and pi_u = max(0, max_a w_a - lam*c_a) are then
    an optimal dual, so the optimal face is every feasible point that uses
    only tight actions (w_a - lam*c_a = pi_u), gives a user with pi_u > 0 its
    whole unit and, when lam > 0, spends the whole budget.  Each user's free
    directions number its tight points less one, the origin counting as a
    point when pi_u = 0.  The split user has exactly one, between the split
    segment's endpoints, and the budget equation pins it since they differ in
    cost; so the optimum is unique iff the free directions number 1 with a
    split and 0 without.  Returns None otherwise: on a tie the simplex picks
    its own vertex.
    """
    by_user: dict[int, list[int]] = {}
    for i, a in enumerate(actions):
        by_user.setdefault(a.user, []).append(i)

    hulls: dict[int, list[_HullPoint]] = {}
    segments: list[tuple[Fraction, int, int]] = []  # (slope, user, hull position)
    for user, idx in by_user.items():
        start: _HullPoint = (ZERO, ZERO, None)
        for i in idx:
            if costs[i] == 0 and weights[i] > start[1]:
                start = (ZERO, weights[i], i)
        hull = [start]
        for i in sorted((i for i in idx if costs[i] > 0), key=lambda i: (costs[i], -weights[i])):
            point = (costs[i], weights[i], i)
            if point[1] <= hull[-1][1]:
                continue  # dominated: costs at least as much for no more weight
            while len(hull) > 1 and _slope(hull[-2], hull[-1]) <= _slope(hull[-1], point):
                hull.pop()
            hull.append(point)
        hulls[user] = hull
        segments.extend((_slope(p, q), user, k) for k, (p, q) in enumerate(itertools.pairwise(hull)))
    segments.sort(key=lambda seg: seg[0], reverse=True)

    position = dict.fromkeys(hulls, 0)
    left = budget
    lam = ZERO
    split: tuple[int, Fraction] | None = None
    for slope, user, k in segments:
        step = hulls[user][k + 1][0] - hulls[user][k][0]
        if step > left:
            lam, split = slope, (user, left / step)
            break
        left -= step
        position[user] = k + 1

    allowed = 0 if split is None else 1
    free = 0
    for user, idx in by_user.items():
        reduced = [weights[i] - lam * costs[i] for i in idx]
        pi = max(ZERO, max(reduced))
        free += sum(1 for r in reduced if r == pi) - (1 if pi > 0 else 0)
        if free > allowed:
            return None

    x = [ZERO] * len(actions)
    for user, k in position.items():
        at = hulls[user][k][2]
        if at is not None:
            x[at] = ONE
    if split is not None:
        user, theta = split
        k = position[user]
        at, to = hulls[user][k][2], hulls[user][k + 1][2]
        if at is not None:
            x[at] = ONE - theta
        x[to] = theta
    return x


def solve_lp(
    weights: Mapping[Action, float],
    instance: Instance,
    beta: float,
    use_W: bool = False,
    cost_mode: str = COST_MODE_THRESHOLD,
    costs: Mapping[Action, Fraction] | None = None,
) -> dict[Action, Fraction]:
    """Exact optimum of the direction-finding LP.

    Maximizes sum(weights * y) subject to: per-user mass at most 1, expected
    cost at most beta*B, every coordinate in [0, 1], and (when use_W is set)
    total mass at most beta*W.  The solution is returned as exact rationals.
    costs, when given, holds every action's exact expected cost under
    cost_mode (continuous_greedy builds it once); otherwise it is built here.

    Without the W row a unique optimum comes from the exact hull greedy of
    _unique_knapsack_optimum; the W row, and a tie among optima, go to the
    simplex, so the returned vertex is always the one the simplex would pick.
    """
    actions = list(weights)
    for a in actions:
        if not math.isfinite(weights[a]):
            raise ValueError(f"non-finite weight for {a}")
    if use_W and instance.W is None:
        raise ValueError("use_W requires an instance with W set")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")

    if costs is None:
        costs = action_costs_exact(instance, actions, cost_mode)
    objective = [Fraction(float(weights[a])) for a in actions]
    cost_row = [costs[a] for a in actions]
    budget = Fraction(beta) * Fraction(instance.B)
    if not use_W:
        x = _unique_knapsack_optimum(actions, objective, cost_row, budget)
        if x is not None:
            return dict(zip(actions, x))
    lhs: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    users = sorted({a.user for a in actions})
    for user in users:
        lhs.append([Fraction(1 if a.user == user else 0) for a in actions])
        rhs.append(Fraction(1))
    lhs.append(cost_row)
    rhs.append(budget)
    if use_W:
        lhs.append([Fraction(1)] * len(actions))
        rhs.append(Fraction(beta) * Fraction(instance.W))
    _, x = simplex.maximize(objective, lhs, rhs)
    return dict(zip(actions, x))


def continuous_greedy(
    instance: Instance,
    config: RelaxationConfig,
    use_W: bool = False,
    on_step: Callable[[float, dict[Action, Fraction]], None] | None = None,
) -> dict[Action, Fraction]:
    """Measured continuous greedy over the scaled feasible region.

    Runs ceil(1/delta) rounds; each round estimates marginals at the current
    point, solves the LP exactly, and advances by the step size.  The result
    is a convex combination of exactly feasible LP vertices, so it satisfies
    the scaled constraints exactly (the output stays rational end to end).
    """
    actions = build_action_space(instance)
    if not actions:
        raise ValueError("action space is empty; the fractional route has nothing to probe")
    beta = config.resolved_beta(use_W)
    delta = Fraction(config.resolved_delta(len(actions)))
    costs = action_costs_exact(instance, actions, config.cost_mode)
    y = {a: Fraction(0) for a in actions}
    t = Fraction(0)
    iteration = 0
    while t < 1:
        step = min(delta, 1 - t)
        omega = estimate_marginals(instance, y, config, iteration=iteration)
        direction = solve_lp(
            omega, instance, beta, use_W=use_W, cost_mode=config.cost_mode, costs=costs
        )
        y = {a: y[a] + step * direction[a] for a in actions}
        t += step
        iteration += 1
        if on_step is not None:
            on_step(float(t), y)
    check_fractional(y)
    return y
