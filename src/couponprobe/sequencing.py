"""Single-coupon probing policies and the randomized combiner.

The high-value route probes users one at a time with the largest coupon,
most influential first, and stops at the first acceptance.  With a cap on how
many users may be probed, the subset is chosen by dynamic programming.  The
combiner flips a fair coin between this route and the fractional one, falling
back to whichever applies when the other is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .influence import realized_influence, singleton_influence_table
from .model import (
    Instance,
    PolicyTrace,
    ProbeStep,
    World,
    check_trace,
    low_value_coupons,
    realize,
    sample_world,
)
from .relaxation import RelaxationConfig
from .rounding import Alg1Policy


class UnsolvableError(ValueError):
    """Raised when neither route of the combiner applies to an instance."""


@dataclass(frozen=True)
class ProbeOrder:
    """Users to probe, in order, all with the same coupon."""

    users: tuple[int, ...]
    coupon_index: int


@dataclass(frozen=True)
class DpTable:
    """Values of the user-cap dynamic program.

    users lists the scan order (ascending influence); values[i][l] is the best
    expected spread using the first i scanned users and at most l probes.
    """

    users: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]


def first_accept_value(probs: Sequence, influences: Sequence):
    """Expected spread of probing candidates in order, stopping at the first accept.

    Works over floats or Fractions alike; position i contributes its influence
    weighted by every earlier candidate declining.
    """
    total = 0
    alive = 1
    for p, inf in zip(probs, influences):
        total = total + alive * p * inf
        alive = alive * (1 - p)
    return total


def budgeted_first_accept_plan(probs: Sequence, influences: Sequence, cap: int):
    """DP over candidates given in ascending-influence order.

    Taking candidate i places it before every earlier (lower-influence) taken
    candidate in the eventual probe order, which is exactly the optimal
    arrangement.  Returns the value table and the taken positions.
    """
    n = len(probs)
    values = [[0] * (cap + 1)]
    take = [[False] * (cap + 1)]
    for i in range(1, n + 1):
        p, inf = probs[i - 1], influences[i - 1]
        row = [0] * (cap + 1)
        trow = [False] * (cap + 1)
        for l in range(1, cap + 1):
            skip = values[i - 1][l]
            cand = p * inf + (1 - p) * values[i - 1][l - 1]
            if cand > skip:
                row[l], trow[l] = cand, True
            else:
                row[l] = skip
        values.append(row)
        take.append(trow)
    chosen: list[int] = []
    l = cap
    for i in range(n, 0, -1):
        if l > 0 and take[i][l]:
            chosen.append(i - 1)
            l -= 1
    chosen.reverse()
    return values, chosen


def _descending_influence(instance: Instance, table: Mapping[int, float]) -> list[int]:
    # ties broken by user id so plans are reproducible
    return sorted(range(instance.n_users), key=lambda v: (-table[v], v))


def alg2_plan(instance: Instance, singleton_table: Mapping[int, float]) -> ProbeOrder:
    """Probe everyone with the largest coupon, most influential user first."""
    return ProbeOrder(
        users=tuple(_descending_influence(instance, singleton_table)),
        coupon_index=instance.c_max_index,
    )


def alg2_value(instance: Instance, order: ProbeOrder, singleton_table: Mapping[int, float]) -> float:
    """Closed-form expected spread of a stop-at-first-accept probe order."""
    probs = [instance.attractiveness[v][order.coupon_index] for v in order.users]
    influences = [singleton_table[v] for v in order.users]
    return float(first_accept_value(probs, influences))


def alg2_execute(instance: Instance, order: ProbeOrder, world: World) -> PolicyTrace:
    """Run a probe order in a world, stopping at (and seeding) the first accept."""
    value = instance.coupons[order.coupon_index]
    if value > instance.B:
        raise ValueError(f"coupon value {value} exceeds the budget {instance.B}")
    if instance.K < 1:
        raise ValueError("probing requires K >= 1")
    trace = PolicyTrace()
    budget = instance.B
    for v in order.users:
        accepted = realize(instance, world, v, order.coupon_index)
        trace.steps.append(ProbeStep(v, value, accepted))
        if accepted:
            budget -= value
            trace.budget_after.append(budget)
            trace.seeds = frozenset([v])
            return trace
        trace.budget_after.append(budget)
    return trace


def alg2_dp(
    instance: Instance, singleton_table: Mapping[int, float], W: int
) -> tuple[DpTable, ProbeOrder]:
    """Best at-most-W-user probe plan for the largest coupon.

    Users are scanned in ascending influence order; the returned plan lists
    the selected users in the order they should be probed (descending).
    """
    if W < 0:
        raise ValueError("W must be non-negative")
    scan = list(reversed(_descending_influence(instance, singleton_table)))
    ci = instance.c_max_index
    # exact rationals inside: the table is then reproducible bit for bit
    probs = [Fraction(instance.attractiveness[v][ci]) for v in scan]
    influences = [Fraction(singleton_table[v]) for v in scan]
    values, chosen = budgeted_first_accept_plan(probs, influences, W)
    table = DpTable(
        users=tuple(scan),
        values=tuple(tuple(float(x) for x in row) for row in values),
    )
    picked = [scan[i] for i in chosen]
    picked.reverse()  # probe in descending influence order
    return table, ProbeOrder(users=tuple(picked), coupon_index=ci)


class Alg2Policy:
    """Largest-coupon route; caps the candidate set at W when given one."""

    def __init__(
        self,
        instance: Instance,
        singleton_table: Mapping[int, float] | None = None,
        W: int | None = None,
    ):
        value = instance.coupons[instance.c_max_index]
        if value > instance.B:
            raise ValueError(
                f"largest coupon {value} exceeds the budget {instance.B}; this route is off"
            )
        if instance.K < 1:
            raise ValueError("probing requires K >= 1")
        if W is not None and W < 0:
            raise ValueError("W must be non-negative")
        self.instance = instance
        self.table = dict(singleton_table) if singleton_table is not None else singleton_influence_table(instance.graph)
        self.W = W
        self.extended = W is not None
        self.name = "e-alg2" if self.extended else "alg2"
        if W is None:
            self.order = alg2_plan(instance, self.table)
            self.dp_table = None
        else:
            self.dp_table, self.order = alg2_dp(instance, self.table, W)

    def generate(self, world: World, rng) -> PolicyTrace:
        return alg2_execute(self.instance, self.order, world)


class StochCpPolicy:
    """Fair randomization between the fractional and largest-coupon routes.

    When one route is degenerate (no low-value coupons, or the largest coupon
    cannot fit in the budget) the other runs with probability one; when every
    coupon is low-value the fractional route already covers the whole action
    space and is used alone.  If neither route applies the instance cannot be
    served by this method.
    """

    def __init__(self, instance: Instance, config: RelaxationConfig, extended: bool = False):
        if extended and instance.W is None:
            raise ValueError("extended mode requires an instance with W set")
        self.instance = instance
        self.extended = extended
        self.name = "e-stoch-cp" if extended else "stoch-cp"
        c_max = instance.coupons[instance.c_max_index]
        alg1_ok = bool(low_value_coupons(instance)) and instance.K >= 1
        alg2_ok = c_max <= instance.B and instance.K >= 1
        if not alg1_ok and not alg2_ok:
            raise UnsolvableError(
                "neither route applies: every coupon exceeds B/2 and the largest "
                "exceeds B (or K = 0); the instance is unsolvable by this method"
            )
        if alg1_ok and c_max <= instance.B / 2.0:
            self.alg1_weight = 1.0  # every coupon is low-value; nothing left for the other route
        elif not alg2_ok:
            self.alg1_weight = 1.0
        elif not alg1_ok:
            self.alg1_weight = 0.0
        else:
            self.alg1_weight = 0.5
        self.branch_alg1 = (
            Alg1Policy(instance, config, use_W=extended) if self.alg1_weight > 0.0 else None
        )
        self.branch_alg2 = (
            Alg2Policy(instance, W=instance.W if extended else None)
            if self.alg1_weight < 1.0
            else None
        )

    def generate(self, world: World, rng) -> PolicyTrace:
        gen = np.random.default_rng(rng)
        use_alg1 = gen.random() < self.alg1_weight
        if use_alg1:
            trace = self.branch_alg1.generate(world, gen)
            trace.note = "alg1"
        else:
            trace = self.branch_alg2.generate(world, gen)
            trace.note = "alg2"
        return trace


@dataclass
class PolicyEvaluation:
    mean: float
    stderr: float
    worlds: int
    violations: int
    branch_counts: dict[str, int] = field(default_factory=dict)


def evaluate_policy(
    instance: Instance, policy, worlds: int, rng_seed: int = 0
) -> PolicyEvaluation:
    """Mean realized spread of a policy over independent worlds.

    World i and the policy's own randomness draw from streams keyed by
    (rng_seed, i), so results do not depend on evaluation order.  Each trace
    is generated and scored in the same world, and checked for feasibility.
    """
    if worlds < 1:
        raise ValueError("worlds must be positive")
    generate = policy.generate if hasattr(policy, "generate") else policy
    extended = getattr(policy, "extended", False)
    total = 0.0
    total_sq = 0.0
    violations = 0
    branch_counts: dict[str, int] = {}
    for i in range(worlds):
        world = sample_world(instance, np.random.default_rng([rng_seed, i, 0]))
        trace = generate(world, np.random.default_rng([rng_seed, i, 1]))
        value = float(realized_influence(instance.graph, trace.seeds, world.live_mask))
        total += value
        total_sq += value * value
        if check_trace(instance, trace, extended=extended):
            violations += 1
        if trace.note:
            branch_counts[trace.note] = branch_counts.get(trace.note, 0) + 1
    mean = total / worlds
    var = max(0.0, total_sq / worlds - mean * mean)
    stderr = (var / worlds) ** 0.5
    return PolicyEvaluation(
        mean=mean,
        stderr=stderr,
        worlds=worlds,
        violations=violations,
        branch_counts=branch_counts,
    )
