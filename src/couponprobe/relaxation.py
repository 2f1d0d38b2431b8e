"""Continuous relaxation of the probing problem and its greedy ascent.

The fractional solution lives on the action space (user, coupon sequence).
Marginal utilities are estimated by Monte Carlo with common random numbers,
a block of samples at a time; the direction-finding LP is solved exactly, on
integers or over rationals; and the ascent accumulates in exact arithmetic so
the scaled constraints hold with no slack.

One ascent step costs 0.6-1.2 ms with 10 marginal samples and about 1.1 ms
with the default 200 on a 48-action instance (8 users, K=2; 2-core x86 host,
Python 3.11, numpy 2.4, where repeated runs differ by up to 2x): the marginal
samples take 0.35-0.7 ms of it and the direction LP 0.15-0.35 ms.  The
default step 1/|S|^2 takes 2305 steps there: 2.1-2.4 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from . import simplex
from .influence import BLOCK, _sampled_reach, _seeded_union, live_edges
from .model import (
    COST_MODE_THRESHOLD,
    COST_MODES,
    Action,
    Instance,
    build_action_space,
    exact_expected_cost,
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
    marginal_samples samples each: 2.1-2.4 s at |S| = 48 with 200 samples);
    larger values trade the guarantee for speed.
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


def estimate_marginals(
    instance: Instance,
    y: Mapping[Action, float | Fraction],
    config: RelaxationConfig,
    iteration: int = 0,
) -> dict[Action, float]:
    """Monte Carlo estimate of each action's marginal utility at y.

    y's masses may be floats or Fractions; they are read as floats.

    Samples are drawn in blocks of BLOCK.  Block b draws one row per sample
    in one call on the stream keyed by (rng_seed, iteration, b): each user's
    threshold, one uniform per uncertain edge (live when below its
    probability), then one presence uniform per action in y's order, so
    sample s depends only on (rng_seed, iteration, s).  Within a sample the
    same world and the same random base set serve every action, so the
    estimates share their noise.  Each sample adds, for every action outside
    the base set, the realized spread of the base set with the action less
    that of the base set alone.  A user is seeded when the best top coupon
    among their present actions meets their threshold; the budget is not
    consulted.  Attractiveness rows are non-decreasing, so an action's gain
    is zero unless it would newly seed its user, and then it is what that
    user's reach adds to the union of the seeded users' reach: one
    reach-kernel pass per block gives every sample's union and every user's
    gain.  Marginals are therefore
    non-negative sample by sample.
    """
    actions = list(y)
    if not actions:
        return {}
    graph = instance.graph
    n, m = instance.n_users, len(actions)
    unc = len(graph.uncertain_edges)
    probs = np.array([float(p) for p in y.values()])
    users = np.array([a.user for a in actions], dtype=np.intp)
    top_accept = np.array([instance.attractiveness[a.user][a.sequence.coupon_indices[-1]] for a in actions])
    # actions grouped by user, for one any() per user and sample
    order = np.argsort(users, kind="stable")
    group_users, group_starts = np.unique(users[order], return_index=True)
    totals = np.zeros(m, dtype=np.int64)
    for b, start in enumerate(range(0, config.marginal_samples, BLOCK)):
        rows = min(BLOCK, config.marginal_samples - start)
        draws = np.random.default_rng([config.rng_seed, iteration, b]).random((rows, n + unc + m))
        accepts = top_accept >= draws[:, users]  # thresholds are columns 0..n-1
        present = draws[:, n + unc:] < probs
        seeded = np.zeros((n, rows), dtype=bool)
        seeded[group_users] = np.logical_or.reduceat((present & accepts)[:, order], group_starts, axis=1).T
        candidates = accepts & ~present
        for first, reach in _sampled_reach(graph, live_edges(graph, draws[:, n:n + unc])):
            cols = slice(first, first + reach.shape[2])
            union = _seeded_union(reach, seeded[:, cols])
            gains = np.bitwise_count(union | reach).sum(axis=1, dtype=np.int64)
            gains -= np.bitwise_count(union).sum(axis=0, dtype=np.int64)
            totals += np.where(candidates[cols], gains[users].T, 0).sum(axis=0)
    return dict(zip(actions, (totals / config.marginal_samples).tolist()))


class ActionCosts(Mapping[Action, Fraction]):
    """Each action's exact expected cost, read-only, with the integer form the
    hull LP walks: every cost times the LCM of their denominators, in the
    mapping's action order.  Built once, it serves every step of a greedy.
    """

    def __init__(self, costs: Mapping[Action, Fraction]):
        self._costs = dict(costs)
        self.actions = list(self._costs)
        self.scale = math.lcm(*(c.denominator for c in self._costs.values()))
        self.scaled = [c.numerator * (self.scale // c.denominator) for c in self._costs.values()]

    def __getitem__(self, action: Action) -> Fraction:
        return self._costs[action]

    def __iter__(self):
        return iter(self._costs)

    def __len__(self) -> int:
        return len(self._costs)


def action_costs_exact(
    instance: Instance, actions: Iterable[Action], cost_mode: str = COST_MODE_THRESHOLD
) -> ActionCosts:
    return ActionCosts({a: exact_expected_cost(instance, a, cost_mode) for a in actions})


# A point of a user's upper hull in integer units: (cost, weight, action
# index or None for the origin, which stands for leaving mass unassigned).
_HullPoint = tuple[int, int, int | None]


def _integer_weights(weights: list[float]) -> list[int]:
    """The weights times one common power of two, as exact ints.

    A float's as_integer_ratio denominator is a power of two, so the largest
    one is a multiple of every other.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios]


def _integer_costs(
    actions: list[Action], costs: Mapping[Action, Fraction], budget: Fraction
) -> tuple[list[int], int]:
    """The actions' costs and the budget times the LCM of their denominators,
    as exact ints.  An ActionCosts over the same actions in the same order
    gives its integer costs as they are, or times one factor when the
    budget's denominator needs it."""
    if not (isinstance(costs, ActionCosts) and costs.actions == actions):
        costs = ActionCosts({a: costs[a] for a in actions})
    factor = budget.denominator // math.gcd(costs.scale, budget.denominator)
    scale = costs.scale * factor
    scaled = costs.scaled if factor == 1 else [c * factor for c in costs.scaled]
    return scaled, budget.numerator * (scale // budget.denominator)


def _by_slope(s: tuple[int, int, int, int], t: tuple[int, int, int, int]) -> int:
    """Compare two segments (weight rise, cost rise, ...) by slope; rises in cost are positive."""
    return s[0] * t[1] - t[0] * s[1]


def _knapsack_optimum(
    actions: list[Action], weights: list[int], costs: list[int], budget: int
) -> list[Fraction]:
    """An optimum of the direction LP without the W row.

    Without W the LP is a multiple-choice knapsack LP: each user picks a point
    in the convex hull of the origin and its actions' (cost, weight) points.
    Walking every user's upper hull, steepest segment first, until the budget
    runs out reaches an optimal vertex in which at most one user is split
    between two hull points (Sinha & Zoltners 1979).  Any optimal vertex
    serves the continuous greedy's guarantee (Calinescu, Chekuri, Pal and
    Vondrak 2011), so on a tie the walk returns its own, by a fixed rule:
    a user's hull starts at their first zero-cost action of highest weight,
    or at the origin when no zero-cost action has positive weight; among
    points of equal cost and weight the lowest action index is kept; a point
    on the segment between two others is dropped, so only extreme hull points
    get mass; and segments of equal slope are taken in the order of their
    users' first actions, so the user who comes first in action order is
    filled first.

    The walk is exact on integers: weights, costs and budget come scaled by
    positive constants (_integer_weights, _integer_costs), which changes no
    comparison and no split fraction.  Slopes are compared by
    cross-multiplication.
    """
    by_user: dict[int, list[int]] = {}
    for i, a in enumerate(actions):
        by_user.setdefault(a.user, []).append(i)

    hulls: dict[int, list[_HullPoint]] = {}
    segments: list[tuple[int, int, int, int]] = []  # (weight rise, cost rise, user, hull position)
    for user, idx in by_user.items():
        start: _HullPoint = (0, 0, None)
        for i in idx:
            if costs[i] == 0 and weights[i] > start[1]:
                start = (0, weights[i], i)
        hull = [start]
        for i in sorted((i for i in idx if costs[i] > 0), key=lambda i: (costs[i], -weights[i])):
            c, w = costs[i], weights[i]
            if w <= hull[-1][1]:
                continue  # dominated: costs at least as much for no more weight
            while len(hull) > 1:
                (c0, w0, _), (c1, w1, _) = hull[-2:]
                if (w1 - w0) * (c - c1) > (w - w1) * (c1 - c0):
                    break  # the last point stays: slope(-2, -1) > slope(-1, new)
                hull.pop()
            hull.append((c, w, i))
        hulls[user] = hull
        segments.extend(
            (q[1] - p[1], q[0] - p[0], user, k) for k, (p, q) in enumerate(itertools.pairwise(hull))
        )
    segments.sort(key=cmp_to_key(_by_slope), reverse=True)  # stable: equal slopes keep user order

    position = dict.fromkeys(hulls, 0)
    left = budget
    split: tuple[int, Fraction] | None = None
    for _, step, user, k in segments:
        if step > left:
            split = (user, Fraction(left, step))
            break
        left -= step
        position[user] = k + 1

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
    cost_mode; otherwise it is built here.  continuous_greedy builds it once,
    as an ActionCosts, so every step reuses its integer costs.

    Without the W row the hull walk of _knapsack_optimum solves it on
    integers and returns its own optimal vertex, by its stated tie rule; with
    the W row the simplex solves it and returns the simplex's vertex.
    """
    actions = list(weights)
    for a, w in weights.items():
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight for {a}")
    if use_W and instance.W is None:
        raise ValueError("use_W requires an instance with W set")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")

    if costs is None:
        costs = action_costs_exact(instance, actions, cost_mode)
    floats = [float(w) for w in weights.values()]
    budget = Fraction(beta) * Fraction(instance.B)
    if not use_W:
        int_costs, int_budget = _integer_costs(actions, costs, budget)
        x = _knapsack_optimum(actions, _integer_weights(floats), int_costs, int_budget)
    else:
        users = sorted({a.user for a in actions})
        lhs = [[Fraction(1 if a.user == user else 0) for a in actions] for user in users]
        lhs += [[costs[a] for a in actions], [Fraction(1)] * len(actions)]
        rhs = [Fraction(1)] * len(users) + [budget, Fraction(beta) * Fraction(instance.W)]
        _, x = simplex.maximize([Fraction(w) for w in floats], lhs, rhs)
    return dict(zip(actions, x))


def continuous_greedy(
    instance: Instance,
    config: RelaxationConfig,
    use_W: bool = False,
    on_step: Callable[[float, dict[Action, Fraction]], None] | None = None,
) -> dict[Action, Fraction]:
    """Measured continuous greedy over the scaled feasible region.

    Runs ceil(1/delta) rounds; each round estimates marginals at the current
    point, solves the LP exactly, and advances by the step size along the
    direction's nonzero entries, a few per round.  on_step receives (t, y)
    after each round, y as a dict of its own that later rounds leave alone.
    Every action's exact cost, and its integer form for the LP, is computed
    once, and the marginals read a float copy of y that is updated only where
    y moves.  The result is a convex combination of exactly feasible LP
    vertices, so it satisfies the scaled constraints exactly (the output
    stays rational end to end).
    """
    actions = build_action_space(instance)
    if not actions:
        raise ValueError("action space is empty; the fractional route has nothing to probe")
    beta = config.resolved_beta(use_W)
    delta = Fraction(config.resolved_delta(len(actions)))
    costs = action_costs_exact(instance, actions, config.cost_mode)
    y = {a: Fraction(0) for a in actions}
    probs = dict.fromkeys(actions, 0.0)  # y as floats, for the marginals
    t = Fraction(0)
    iteration = 0
    while t < 1:
        step = min(delta, 1 - t)
        omega = estimate_marginals(instance, probs, config, iteration=iteration)
        direction = solve_lp(
            omega, instance, beta, use_W=use_W, cost_mode=config.cost_mode, costs=costs
        )
        y = dict(y)  # a fresh snapshot for on_step
        for a, d in direction.items():
            if d:
                y[a] += step * d
                probs[a] = float(y[a])
        t += step
        iteration += 1
        if on_step is not None:
            on_step(float(t), y)
    check_fractional(y)
    return y
