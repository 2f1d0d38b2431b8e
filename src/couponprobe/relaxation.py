"""Continuous relaxation of the probing problem and its greedy ascent.

The fractional solution lives on the action space (user, coupon sequence).
Marginal utilities are estimated by Monte Carlo with common random numbers,
the direction-finding LP is solved exactly over rationals, and the ascent
accumulates in exact arithmetic so the scaled constraints hold with no slack.
"""

from __future__ import annotations

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
    action space.  That default step size is safe but slow; larger values
    trade the guarantee for speed.
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
    the estimates share their noise.  Marginals are non-negative sample by
    sample because adding an action can only improve a user's best coupon.
    """
    actions = sorted(y)
    probs = [float(y[a]) for a in actions]
    totals = [0.0] * len(actions)
    for s in range(config.marginal_samples):
        rng = np.random.default_rng([config.rng_seed, iteration, s])
        world = sample_world(instance, rng)
        draws = rng.random(len(actions))
        base = [a for a, u, p in zip(actions, draws, probs) if u < p]
        base_value = action_set_utility(instance, base, world)
        for i, action in enumerate(actions):
            if draws[i] < probs[i]:
                continue  # already present: zero marginal this sample
            totals[i] += action_set_utility(instance, base + [action], world) - base_value
    n = config.marginal_samples
    return {a: totals[i] / n for i, a in enumerate(actions)}


def action_costs_exact(
    instance: Instance, actions: Iterable[Action], cost_mode: str = COST_MODE_THRESHOLD
) -> dict[Action, Fraction]:
    return {a: exact_expected_cost(instance, a, cost_mode) for a in actions}


def solve_lp(
    weights: Mapping[Action, float],
    instance: Instance,
    beta: float,
    use_W: bool = False,
    cost_mode: str = COST_MODE_THRESHOLD,
) -> dict[Action, Fraction]:
    """Exact optimum of the direction-finding LP.

    Maximizes sum(weights * y) subject to: per-user mass at most 1, expected
    cost at most beta*B, every coordinate in [0, 1], and (when use_W is set)
    total mass at most beta*W.  The solution is returned as exact rationals.
    """
    actions = sorted(weights)
    for a in actions:
        if not math.isfinite(weights[a]):
            raise ValueError(f"non-finite weight for {a}")
    if use_W and instance.W is None:
        raise ValueError("use_W requires an instance with W set")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")

    costs = action_costs_exact(instance, actions, cost_mode)
    objective = [Fraction(float(weights[a])) for a in actions]
    lhs: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    users = sorted({a.user for a in actions})
    for user in users:
        lhs.append([Fraction(1 if a.user == user else 0) for a in actions])
        rhs.append(Fraction(1))
    lhs.append([costs[a] for a in actions])
    rhs.append(Fraction(beta) * Fraction(instance.B))
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
    y = {a: Fraction(0) for a in actions}
    t = Fraction(0)
    iteration = 0
    while t < 1:
        step = min(delta, 1 - t)
        omega = estimate_marginals(instance, y, config, iteration=iteration)
        direction = solve_lp(omega, instance, beta, use_W=use_W, cost_mode=config.cost_mode)
        y = {a: y[a] + step * direction[a] for a in actions}
        t += step
        iteration += 1
        if on_step is not None:
            on_step(float(t), y)
    check_fractional(y)
    return y
