"""Problem instances, sampled worlds, and the mechanics of offering coupons.

A user accepts the first offered coupon whose attractiveness reaches their
privately drawn threshold.  Thresholds are drawn once per user, so acceptance
across coupon values is correlated: accepting some value implies accepting
every larger value.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .influence import Graph, sample_live_mask

COST_MODE_THRESHOLD = "threshold"
COST_MODE_PAPER = "paper"
COST_MODES = (COST_MODE_THRESHOLD, COST_MODE_PAPER)


def _count(value, message: str) -> int:
    """A non-negative integer of any integer type (numpy's too), as a plain int."""
    try:
        count = int(operator.index(value))
    except TypeError:
        raise ValueError(message) from None
    if count < 0:
        raise ValueError(message)
    return count


@dataclass(frozen=True)
class Instance:
    """A coupon probing problem.

    attractiveness[v][i] is the probability that user v accepts coupon i when
    offered it fresh.  Rows must be non-decreasing across coupons (a rational
    user never turns down a better deal they would have taken at a worse one).
    """

    graph: Graph
    coupons: tuple[float, ...]
    attractiveness: tuple[tuple[float, ...], ...]
    K: int
    B: float
    W: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupons", tuple(float(c) for c in self.coupons))
        object.__setattr__(
            self, "attractiveness", tuple(tuple(float(p) for p in row) for row in self.attractiveness)
        )
        if not self.coupons:
            raise ValueError("at least one coupon value is required")
        for i, c in enumerate(self.coupons):
            if c <= 0.0:
                raise ValueError(f"coupon {i} has non-positive value {c}")
            if i > 0 and c <= self.coupons[i - 1]:
                raise ValueError("coupon values must be strictly increasing")
        if len(self.attractiveness) != self.graph.node_count:
            raise ValueError(
                f"expected {self.graph.node_count} attractiveness rows, got {len(self.attractiveness)}"
            )
        for v, row in enumerate(self.attractiveness):
            if len(row) != len(self.coupons):
                raise ValueError(f"user {v}: expected {len(self.coupons)} attractiveness values")
            for i, p in enumerate(row):
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"user {v}: attractiveness {p} for coupon {i} outside [0, 1]")
                if i > 0 and p < row[i - 1]:
                    raise ValueError(
                        f"user {v}: attractiveness decreases from coupon value "
                        f"{self.coupons[i - 1]} ({row[i - 1]}) to {self.coupons[i]} ({p}); "
                        "rows must be non-decreasing"
                    )
        object.__setattr__(self, "K", _count(self.K, "K must be a non-negative integer"))
        if not self.B > 0.0:
            raise ValueError("B must be positive")
        if self.W is not None:
            object.__setattr__(self, "W", _count(self.W, "W must be a non-negative integer when given"))

    @property
    def n_users(self) -> int:
        return self.graph.node_count

    @property
    def c_max_index(self) -> int:
        return len(self.coupons) - 1


@dataclass(frozen=True)
class World:
    """A fully resolved random state: one threshold per user plus the live
    edges of the cascade, as an int mask (bit i set when edge i is live)."""

    thresholds: tuple[float, ...]
    live_mask: int


def sample_world(instance: Instance, rng: np.random.Generator) -> World:
    thresholds = tuple(float(x) for x in rng.random(instance.n_users))
    return World(thresholds, sample_live_mask(instance.graph, rng))


def realize(instance: Instance, world: World, user: int, coupon_index: int) -> bool:
    """Whether the user accepts this coupon in this world."""
    return instance.attractiveness[user][coupon_index] >= world.thresholds[user]


@dataclass(frozen=True, order=True)
class ProbeSequence:
    """Coupon indices offered to one user, in strictly increasing order."""

    coupon_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupon_indices", tuple(int(i) for i in self.coupon_indices))
        if not self.coupon_indices:
            raise ValueError("a probe sequence must contain at least one coupon")
        for a, b in itertools.pairwise(self.coupon_indices):
            if b <= a:
                raise ValueError("coupon indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.coupon_indices)


@dataclass(frozen=True, order=True)
class Action:
    """One user paired with one probe sequence."""

    user: int
    sequence: ProbeSequence


class ProbeStep(NamedTuple):
    user: int
    coupon_value: float
    accepted: bool


@dataclass
class PolicyTrace:
    """Record of one policy run: offers made, budget left after each, seeds won."""

    steps: list[ProbeStep] = field(default_factory=list)
    budget_after: list[float] = field(default_factory=list)
    seeds: frozenset[int] = frozenset()
    note: str | None = None


def low_value_coupons(instance: Instance) -> list[int]:
    """Indices of coupons worth at most half the budget."""
    return [i for i, c in enumerate(instance.coupons) if c <= instance.B / 2.0]


def build_action_space(instance: Instance) -> list[Action]:
    """All (user, sequence) actions over low-value coupons, sequences of length 1..K.

    Empty when there are no low-value coupons or no probes are allowed; callers
    treat an empty space as "this route has nothing to offer".
    """
    low = low_value_coupons(instance)
    actions: list[Action] = []
    for user in range(instance.n_users):
        for k in range(1, min(instance.K, len(low)) + 1):
            for combo in itertools.combinations(low, k):
                actions.append(Action(user, ProbeSequence(combo)))
    return actions


def expected_cost(instance: Instance, action: Action, mode: str = COST_MODE_THRESHOLD) -> float:
    """Expected amount redeemed when probing one user through one sequence.

    The threshold mode is exact under the correlated acceptance model: the
    user accepts coupon i (paying c_i) iff their threshold falls in
    (p_{i-1}, p_i].  The paper mode instead compounds independent rejections,
    which is not exact under the model but is kept as a selectable variant.
    """
    return float(exact_expected_cost(instance, action, mode))


def exact_expected_cost(instance: Instance, action: Action, mode: str = COST_MODE_THRESHOLD) -> Fraction:
    """expected_cost as an exact rational, for constraint bookkeeping."""
    if mode not in COST_MODES:
        raise ValueError(f"unknown cost mode {mode!r}; expected one of {COST_MODES}")
    row = instance.attractiveness[action.user]
    total = Fraction(0)
    if mode == COST_MODE_THRESHOLD:
        prev = Fraction(0)
        for i in action.sequence.coupon_indices:
            p = Fraction(row[i])
            total += (p - prev) * Fraction(instance.coupons[i])
            prev = p
    else:
        alive = Fraction(1)
        for i in action.sequence.coupon_indices:
            p = Fraction(row[i])
            total += alive * p * Fraction(instance.coupons[i])
            alive *= 1 - p
    return total


def probe_user(
    instance: Instance, world: World, action: Action, remaining_budget: float
) -> tuple[float | None, list[ProbeStep]]:
    """Offer the sequence's coupons in increasing order, stopping at the first accept.

    Returns the redeemed value (None if every offer was declined) and the list
    of offers made.
    """
    if remaining_budget < 0.0:
        raise ValueError("remaining budget must be non-negative")
    steps: list[ProbeStep] = []
    for i in action.sequence.coupon_indices:
        value = instance.coupons[i]
        accepted = realize(instance, world, action.user, i)
        steps.append(ProbeStep(action.user, value, accepted))
        if accepted:
            return value, steps
    return None, steps


def run_fixed_plan(instance: Instance, world: World, actions: Iterable[Action]) -> PolicyTrace:
    """Execute actions in the given order under plain budget feasibility.

    Each offer is made only while its coupon value still fits in the remaining
    budget (offers are in increasing value order, so the first unaffordable
    coupon ends that user's sequence).  No other gating is applied.
    """
    trace = PolicyTrace()
    budget = instance.B
    seeds: set[int] = set()
    for action in actions:
        for i in action.sequence.coupon_indices:
            value = instance.coupons[i]
            if value > budget:
                break
            accepted = realize(instance, world, action.user, i)
            trace.steps.append(ProbeStep(action.user, value, accepted))
            if accepted:
                budget -= value
                seeds.add(action.user)
                trace.budget_after.append(budget)
                break
            trace.budget_after.append(budget)
    trace.seeds = frozenset(seeds)
    return trace


def check_trace(instance: Instance, trace: PolicyTrace, extended: bool = False) -> list[str]:
    """Constraint violations in a trace; empty when the run was feasible.

    Checks: total redeemed within budget, at most K offers per user, each
    user's offers contiguous and strictly increasing in value, budget ledger
    consistent, seeds exactly the accepting users, and (extended mode) at most
    W distinct users probed.
    """
    problems: list[str] = []
    if len(trace.budget_after) != len(trace.steps):
        problems.append("budget ledger length differs from step count")
        return problems
    budget = instance.B
    offers: dict[int, int] = {}
    last_value: dict[int, float] = {}
    blocks: list[int] = []
    accepted_users: set[int] = set()
    for idx, step in enumerate(trace.steps):
        if not blocks or blocks[-1] != step.user:
            blocks.append(step.user)
        if step.user in accepted_users:
            problems.append(f"step {idx}: user {step.user} probed after accepting")
        offers[step.user] = offers.get(step.user, 0) + 1
        if step.user in last_value and step.coupon_value <= last_value[step.user]:
            problems.append(f"step {idx}: offers to user {step.user} not strictly increasing")
        last_value[step.user] = step.coupon_value
        if step.accepted:
            accepted_users.add(step.user)
            budget -= step.coupon_value
        if abs(trace.budget_after[idx] - budget) > 1e-9:
            problems.append(
                f"step {idx}: ledger budget {trace.budget_after[idx]} != recomputed {budget}"
            )
    if budget < -1e-9:
        problems.append(f"total redeemed exceeds budget by {-budget}")
    for user, n in offers.items():
        if n > instance.K:
            problems.append(f"user {user} received {n} offers, cap is {instance.K}")
    if len(blocks) != len(set(blocks)):
        problems.append("offers to some user are not consecutive")
    if frozenset(accepted_users) != trace.seeds:
        problems.append("seed set does not match accepting users")
    if extended:
        if instance.W is None:
            problems.append("extended check requested but instance has no W")
        elif len(offers) > instance.W:
            problems.append(f"probed {len(offers)} distinct users, cap is {instance.W}")
    return problems
