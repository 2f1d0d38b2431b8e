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

from .influence import BLOCK, _chunk_columns, _count, _positive, live_edges, sampled_spreads
from .model import Instance, Steps, check_steps, low_value_coupons
from .relaxation import RelaxationConfig
from .rounding import ROUNDING_DRAWS, Alg1Policy


class UnsolvableError(ValueError):
    """Raised when neither route of the combiner applies to an instance."""


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


def alg2_plan(instance: Instance, singleton_table: Mapping[int, float]) -> tuple[int, ...]:
    """Every user, most influential first, to be probed with the largest
    coupon; ties go to the lower user id, so plans are reproducible."""
    return tuple(sorted(range(instance.n_users), key=lambda v: (-singleton_table[v], v)))


def alg2_value(instance: Instance, order: Sequence[int], singleton_table: Mapping[int, float]) -> float:
    """Closed-form expected spread of probing the users in order with the
    largest coupon, stopping at the first accept."""
    probs = [instance.attractiveness[v][instance.c_max_index] for v in order]
    influences = [singleton_table[v] for v in order]
    return float(first_accept_value(probs, influences))


def alg2_dp(
    instance: Instance, singleton_table: Mapping[int, float], W: int
) -> tuple[list[list[float]], tuple[int, ...]]:
    """Best at-most-W-user probe plan for the largest coupon.

    Users are scanned in ascending influence order.  Returns the DP's values,
    where values[i][l] is the best expected spread using the first i scanned
    users and at most l probes, and the selected users in the order they
    should be probed (descending influence).
    """
    if W < 0:
        raise ValueError("W must be non-negative")
    scan = alg2_plan(instance, singleton_table)[::-1]
    ci = instance.c_max_index
    # exact rationals inside: the table is then reproducible bit for bit
    probs = [Fraction(instance.attractiveness[v][ci]) for v in scan]
    influences = [Fraction(singleton_table[v]) for v in scan]
    values, chosen = budgeted_first_accept_plan(probs, influences, W)
    return [[float(x) for x in row] for row in values], tuple(scan[i] for i in reversed(chosen))


class Alg2Policy:
    """Largest-coupon route.  order is the tuple of users it probes with the
    largest coupon, all of them by descending influence (alg2_plan), or in
    extended mode at most W of them, chosen by the DP (alg2_dp); table is the
    singleton influence table it ranks them by."""

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
        if extended:
            _, self.order = alg2_dp(instance, self.table, instance.W)
        else:
            self.order = alg2_plan(instance, self.table)


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
    """Mean realized spread of an Alg1Policy, Alg2Policy or StochCpPolicy
    over independent worlds; any other policy raises TypeError.

    Worlds are keyed in blocks of BLOCK: block b draws every user threshold
    and every uncertain-edge uniform of its worlds, a chunk of rows at a
    time, on a stream keyed by (rng_seed, b, 0), so world i depends only on
    (rng_seed, i), neither on `worlds` nor on the policy, and policies
    evaluated with one seed see the same worlds.  stoch-cp's coin is one
    uniform per world from the block's stream keyed by (rng_seed, b, 2).
    An alg2 world, stoch-cp's alg2 branch included, is seeded by its first
    accept, read off the thresholds.  An alg1 world, stoch-cp's alg1 branch
    included, is rounded and executed by Alg1Policy.run_block from row
    i % BLOCK of its block's rounding draws: ROUNDING_DRAWS uniforms per
    action, drawn on a stream keyed by (rng_seed, b, 1) for every row of the
    block, whatever the coin says, so this too depends only on (rng_seed, i).
    Worlds are then scored a chunk at a time, one reach-kernel pass each,
    and checked for feasibility by check_steps (see _simulate).
    """
    worlds = _positive(worlds, "worlds")
    rng_seed = _count(rng_seed, "rng_seed")
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
    """Per chunk of worlds, in order: each world's realized spread (int64),
    the number of infeasible runs and the count of each branch taken.

    A chunk is as many worlds of one block as influence._chunk_columns gives
    for what a world holds; the block's generators are drawn a chunk of rows
    at a time, in order, so chunks change no draw.  Each world's seeds fill
    its column of a bool (n, rows) seed matrix that one sampled_spreads call
    scores.  An alg2 world's run, and so its verdict, depends only on its
    first accept's position in the order, so check_steps judges each position
    once per evaluation; it judges every alg1 run (_alg1_chunk).
    """
    graph = instance.graph
    n = instance.n_users
    unc = len(graph.uncertain_edges)
    stoch = isinstance(policy, StochCpPolicy)
    if stoch:
        alg1, alg2 = policy.branch_alg1, policy.branch_alg2
    elif isinstance(policy, Alg1Policy):
        alg1, alg2 = policy, None
    elif isinstance(policy, Alg2Policy):
        alg1, alg2 = None, policy
    else:
        raise TypeError(
            f"evaluate_policy takes an Alg1Policy, Alg2Policy or StochCpPolicy, not {type(policy).__name__}"
        )
    if alg2 is not None:
        users = np.array(alg2.order, dtype=np.intp)
        accept_at = np.array([instance.attractiveness[v][instance.c_max_index] for v in alg2.order])
        bad_at = _position_verdicts(instance, alg2.order, policy.extended)
    m = len(alg1.fractional) if alg1 is not None and not alg1.vacuous else 0
    # a world holds its draws, its coin and, for alg1, its rounding draws at
    # 8 bytes, and its live edges, seeds and branch at 1
    step = _chunk_columns(graph, 8 * (n + unc + 1 + ROUNDING_DRAWS * m) + unc + n + 1)
    for b, start in enumerate(range(0, worlds, BLOCK)):
        rows = min(BLOCK, worlds - start)
        stream = np.random.default_rng([rng_seed, b, 0])
        coins = (np.random.default_rng([rng_seed, b, 2]).random(rows) < policy.alg1_weight if stoch
                 else np.full(rows, alg2 is None))
        # rounding draws for every row of a block with an alg1 world
        rounding = np.random.default_rng([rng_seed, b, 1]) if m and coins.any() else None
        for first in range(0, rows, step):
            size = min(step, rows - first)
            draws = stream.random((size, n + unc))
            thresholds, live = draws[:, :n], live_edges(graph, draws[:, n:])
            singly = coins[first:first + size]
            seeded = np.zeros((n, size), dtype=bool)
            bad = 0
            notes: dict[str, int] = {}
            in_block = np.flatnonzero(~singly)
            if len(in_block):
                accepts = np.ones((len(in_block), len(users) + 1), dtype=bool)  # last: nobody accepts
                accepts[:, :-1] = thresholds[np.ix_(in_block, users)] <= accept_at
                positions = accepts.argmax(axis=1)
                took = positions < len(users)
                seeded[users[positions[took]], in_block[took]] = True
                bad = int(bad_at[positions].sum())
                if stoch:
                    notes["alg2"] = len(in_block)
            picked = np.flatnonzero(singly)
            if rounding is not None:
                bad += _alg1_chunk(instance, alg1, rounding, thresholds, picked, seeded)
            if len(picked):
                if alg1.vacuous:
                    notes["alg1-vacuous"] = len(picked)
                if stoch:
                    notes["alg1"] = len(picked)
            yield sampled_spreads(graph, live, seeded), bad, notes


def _alg1_chunk(instance: Instance, policy: Alg1Policy, rounding, thresholds, picked, seeded) -> int:
    """Draw a chunk's rounding uniforms, every world's whatever the coin says,
    run alg1 in the rows that picked lists, write their seeds into seeded and
    return how many runs check_steps flags; its arrays go when it returns."""
    uniforms = rounding.random((len(thresholds), ROUNDING_DRAWS, len(policy.fractional)))
    if len(picked) < len(thresholds):  # stoch-cp's alg2 worlds leave their draws unused
        uniforms = uniforms[picked]
    _, _, steps = policy.run_block(thresholds[picked], uniforms)
    won = steps.accepted
    seeded[steps.user[won], picked[np.nonzero(won)[0]]] = True
    return int(check_steps(instance, steps, seeded[:, picked], policy.extended).sum())


def _position_verdicts(instance: Instance, order: Sequence[int], extended: bool) -> np.ndarray:
    """Whether check_steps flags the run of the order that first accepts at
    each position: row k of one Steps block offers the largest coupon to the
    users at positions 0..k, once each, and only the last of them accepts;
    the extra last row offers it to every user and nobody accepts."""
    ci = instance.c_max_index
    users = np.array(order, dtype=np.intp)
    rows = np.arange(len(users) + 1)[:, None]
    probed = np.arange(len(users)) <= rows
    accepted = np.arange(len(users)) == rows
    seeded = np.zeros((instance.n_users, len(rows)), dtype=bool)
    seeded[users, np.arange(len(users))] = True
    steps = Steps(
        user=np.where(probed, users, -1),
        offers=np.where(probed, ci, -1)[:, :, None],
        accepted=accepted,
        spend=np.where(accepted, instance.coupons[ci], 0.0),
    )
    return check_steps(instance, steps, seeded, extended)
