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

from .influence import BLOCK, live_edges, live_masks, realized_influence, sampled_spreads
from .model import (
    Instance,
    PolicyTrace,
    ProbeStep,
    World,
    check_trace,
    low_value_coupons,
    realize,
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
    """Largest-coupon route; in extended mode probes at most W users, chosen by the DP."""

    def __init__(
        self,
        instance: Instance,
        singleton_table: Mapping[int, float] | None = None,
        extended: bool = False,
    ):
        if extended and instance.W is None:
            raise ValueError("extended mode requires an instance with W set")
        value = instance.coupons[instance.c_max_index]
        if value > instance.B:
            raise ValueError(
                f"largest coupon {value} exceeds the budget {instance.B}; this route is off"
            )
        if instance.K < 1:
            raise ValueError("probing requires K >= 1")
        self.instance = instance
        self.table = dict(instance.graph.singleton_table if singleton_table is None else singleton_table)
        self.extended = extended
        self.name = "e-alg2" if extended else "alg2"
        if extended:
            self.dp_table, self.order = alg2_dp(instance, self.table, instance.W)
        else:
            self.order = alg2_plan(instance, self.table)
            self.dp_table = None

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
            Alg1Policy(instance, config, extended=extended) if self.alg1_weight > 0.0 else None
        )
        self.branch_alg2 = Alg2Policy(instance, extended=extended) if self.alg1_weight < 1.0 else None

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

    Worlds are drawn in blocks of BLOCK: block b draws every user threshold
    and every uncertain-edge uniform of its worlds in one call on a stream
    keyed by (rng_seed, b, 0), one row per world, so world i depends only on
    (rng_seed, i), neither on `worlds` nor on the policy, and policies
    evaluated with one seed see the same worlds.  stoch-cp's coin is one
    uniform per world from the block's stream keyed by (rng_seed, b, 2).
    alg2 worlds are scored a block at a time (see _alg2_block); every other
    world runs the policy's generate(world, rng) with rng = [rng_seed, i, 1],
    a seed for its own generator, and is scored by a search from its seeds.
    Each trace is checked for feasibility.
    """
    if worlds < 1:
        raise ValueError("worlds must be positive")
    total = 0
    total_sq = 0
    violations = 0
    branch_counts: dict[str, int] = {}
    for values, bad, notes in _simulate(instance, policy, worlds, rng_seed):
        total += int(values.sum())
        total_sq += int((values * values).sum())
        violations += bad
        for note, count in notes.items():
            branch_counts[note] = branch_counts.get(note, 0) + count
    # spreads are integers, so these sums are exact in any order
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


def _simulate(instance: Instance, policy, worlds: int, rng_seed: int):
    """Per block of worlds, in order: each world's realized spread (int64),
    the number of infeasible traces and the count of each trace note."""
    graph = instance.graph
    n = instance.n_users
    extended = getattr(policy, "extended", False)
    # stoch-cp notes each world's branch; its alg1 branch runs world by world
    stoch = isinstance(policy, StochCpPolicy)
    if stoch:
        one_by_one, alg2 = policy.branch_alg1, policy.branch_alg2
    elif isinstance(policy, Alg2Policy):
        one_by_one, alg2 = None, policy
    else:
        one_by_one, alg2 = policy, None
    generate = getattr(one_by_one, "generate", one_by_one)
    verdicts: dict[int, bool] = {}
    for b, start in enumerate(range(0, worlds, BLOCK)):
        rows = min(BLOCK, worlds - start)
        draws = np.random.default_rng([rng_seed, b, 0]).random((rows, n + len(graph.uncertain_edges)))
        thresholds, live = draws[:, :n], live_edges(graph, draws[:, n:])
        if stoch:
            singly = np.random.default_rng([rng_seed, b, 2]).random(rows) < policy.alg1_weight
        else:
            singly = np.full(rows, alg2 is None)
        values = np.zeros(rows, dtype=np.int64)
        bad = 0
        notes: dict[str, int] = {}
        in_block = np.flatnonzero(~singly)
        if len(in_block):
            seeds, bad = _alg2_block(instance, alg2.order, thresholds, in_block, extended, verdicts)
            values[in_block] = sampled_spreads(graph, live[in_block], seeds)
            if stoch:
                notes["alg2"] = len(in_block)
        for r, mask in zip(np.flatnonzero(singly).tolist(), live_masks(graph, live[singly])):
            trace = generate(World(tuple(thresholds[r].tolist()), mask), [rng_seed, start + r, 1])
            if stoch:
                trace.note = "alg1"
            values[r] = realized_influence(graph, trace.seeds, mask)
            if check_trace(instance, trace, extended=extended):
                bad += 1
            if trace.note:
                notes[trace.note] = notes.get(trace.note, 0) + 1
        yield values, bad, notes


def _alg2_block(
    instance: Instance,
    order: ProbeOrder,
    thresholds: np.ndarray,
    rows: np.ndarray,
    extended: bool,
    verdicts: dict[int, bool],
) -> tuple[np.ndarray, int]:
    """The seed (or -1) and the infeasible-trace count of a probe order in
    the given rows of a block of worlds' thresholds.

    A world's first accept is the first user in the order whose threshold
    is at most its attractiveness.  The trace depends only on that position,
    so check_trace runs once per position (verdicts keeps each position's
    result across blocks), on the trace alg2_execute makes in a world there;
    that trace reads thresholds only, so the world has no live edges.
    """
    users = np.array(order.users + (-1,), dtype=np.intp)  # last position: nobody accepts
    p = np.array([row[order.coupon_index] for row in instance.attractiveness])
    accepts = np.ones((len(rows), len(users)), dtype=bool)
    accepts[:, :-1] = (thresholds <= p)[np.ix_(rows, users[:-1])]
    positions = accepts.argmax(axis=1)
    counts = np.bincount(positions, minlength=len(users))
    bad = 0
    for k in np.flatnonzero(counts).tolist():
        if k not in verdicts:
            r = rows[np.argmax(positions == k)]
            world = World(tuple(thresholds[r].tolist()), 0)
            verdicts[k] = bool(check_trace(instance, alg2_execute(instance, order, world), extended=extended))
        if verdicts[k]:
            bad += int(counts[k])
    return users[positions], bad
