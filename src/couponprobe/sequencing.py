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

from .influence import BLOCK, _chunk_columns, _count, _positive, exact_singletons, live_edges, sampled_spreads
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
        cap = instance.user_cap(extended)
        if (refusal := self.refusal(instance)) is not None:
            raise ValueError(refusal)
        self.table = dict(instance.graph.singleton_table if singleton_table is None else singleton_table)
        self.extended = extended
        self.order = alg2_plan(instance, self.table) if cap is None else alg2_dp(instance, self.table, cap)[1]

    @staticmethod
    def refusal(instance: Instance) -> str | None:
        """Why the route does not apply (largest coupon above B, or K = 0), or None."""
        value = instance.coupons[instance.c_max_index]
        if value > instance.B:
            return f"largest coupon {value} exceeds the budget {instance.B}; this route is off"
        if instance.K < 1:
            return "probing requires K >= 1"
        return None


class StochCpPolicy:
    """Fair randomization between the fractional and largest-coupon routes.

    When one route does not apply (Alg1Policy.applies, Alg2Policy.refusal)
    the other runs with probability one; when every coupon is low-value the
    fractional route covers the whole action space and runs alone.  When
    neither applies, it raises UnsolvableError, before any W refusal.
    """

    def __init__(self, instance: Instance, config: RelaxationConfig, extended: bool = False):
        self.extended = extended
        alg1_ok = Alg1Policy.applies(instance)
        alg2_ok = Alg2Policy.refusal(instance) is None
        if not alg1_ok and not alg2_ok:
            raise UnsolvableError(
                "neither route applies: every coupon exceeds B/2 and the largest "
                "exceeds B (or K = 0); the instance is unsolvable by this method"
            )
        every_low = instance.c_max_index in low_value_coupons(instance)  # then alg1 applies
        self.alg1_weight = 1.0 if every_low or not alg2_ok else 0.5 if alg1_ok else 0.0
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
    """Mean spread of an Alg1Policy, Alg2Policy or StochCpPolicy over
    independent worlds, with its standard error; any other policy raises
    TypeError.

    Worlds are keyed in blocks of BLOCK: block b draws every user threshold
    and every uncertain-edge uniform of its worlds, a chunk of rows at a
    time, on the stream _stream(rng_seed, b, 0), so world i depends only on
    (rng_seed, i), neither on `worlds` nor on the policy, and policies
    evaluated with one seed see the same worlds.  stoch-cp's coin is one
    uniform per world from _stream(rng_seed, b, 2).  An alg2 world,
    stoch-cp's alg2 branch included, is seeded by its first accept, read off
    the thresholds.  An alg1 world, stoch-cp's alg1 branch included, is
    rounded and executed by Alg1Policy.run_block from row i % BLOCK of its
    block's rounding draws: ROUNDING_DRAWS uniforms per action, drawn from
    _stream(rng_seed, b, 1) for every row of the block, whatever the coin
    says, so this too depends only on (rng_seed, i).

    Where graph.singleton_table is exact (exact_singletons), an alg2 world
    scores its first accepter's exact spread, and 0 when nobody accepts:
    its seeds do not depend on its live edges, so that is its expected
    spread given its thresholds, with the same mean as the realized spread
    and less variance (_accepter_spreads).  Every other world scores its
    realized spread, in one reach-kernel pass per chunk, and every run is
    checked for feasibility by check_steps (see _simulate).  Both sums are
    exact: realized spreads are integers, and exact spreads are added once,
    per first-accept position, over their common power-of-two denominator,
    so the report depends on no chunking.
    """
    worlds = _positive(worlds, "worlds")
    rng_seed = _count(rng_seed, "rng_seed")
    spreads = _accepter_spreads(instance, policy)
    total = 0
    total_sq = 0
    at_position = 0  # alg2 worlds per first-accept position, where spreads score them
    violations = 0
    alg1_worlds = 0
    for values, positions, bad, alg1 in _simulate(instance, policy, worlds, rng_seed):
        total += int(values.sum())
        total_sq += int((values * values).sum())
        if positions is not None:
            at_position = at_position + np.bincount(positions, minlength=len(spreads))
        violations += bad
        alg1_worlds += alg1
    scale = 1  # the common denominator of every score
    if spreads is not None:
        ratios = [s.as_integer_ratio() for s in spreads]
        scale = max(q for _, q in ratios)
        scaled = [p * (scale // q) for p, q in ratios]
        total = total * scale + sum(c * s for c, s in zip(at_position.tolist(), scaled))
        total_sq = total_sq * scale * scale + sum(c * s * s for c, s in zip(at_position.tolist(), scaled))
    if isinstance(policy, StochCpPolicy):
        counts = {"alg1": alg1_worlds, "alg2": worlds - alg1_worlds}
    else:
        counts = {"alg1-vacuous": alg1_worlds if isinstance(policy, Alg1Policy) and policy.vacuous else 0}
    # integer over integer rounds once, so neither depends on summation order
    mean = total / (worlds * scale)
    var = max(0.0, total_sq / (worlds * scale * scale) - mean * mean)
    stderr = (var / worlds) ** 0.5
    return PolicyEvaluation(
        mean=mean,
        stderr=stderr,
        worlds=worlds,
        violations=violations,
        branch_counts={branch: count for branch, count in counts.items() if count},
    )


def _routes(policy) -> tuple[Alg1Policy | None, Alg2Policy | None]:
    """The policy's alg1 and alg2 routes, None where it has none; any policy
    but the three classes raises TypeError."""
    if isinstance(policy, StochCpPolicy):
        return policy.branch_alg1, policy.branch_alg2
    if isinstance(policy, Alg1Policy):
        return policy, None
    if isinstance(policy, Alg2Policy):
        return None, policy
    raise TypeError(
        f"evaluate_policy takes an Alg1Policy, Alg2Policy or StochCpPolicy, not {type(policy).__name__}"
    )


def _accepter_spreads(instance: Instance, policy) -> list[float] | None:
    """The score of an alg2 world by its first-accept position: the exact
    spread, from graph.singleton_table, of the user at each position of the
    order, then 0 for nobody; None where the policy has no alg2 route or the
    table is not exact.  A Monte Carlo table's own error is not in the
    per-world variance, so there worlds keep their realized spread."""
    alg2 = _routes(policy)[1]
    if alg2 is None or not exact_singletons(instance.graph):
        return None
    table = instance.graph.singleton_table
    return [table[v] for v in alg2.order] + [0.0]


def _stream(rng_seed: int, block: int, kind: int) -> np.random.Generator:
    """Evaluation stream `kind` of a block: 0 its worlds, 1 its rounding
    draws, 2 stoch-cp's coins.  It is seeded by rng_seed with the spawn key
    (block, kind), which SeedSequence keeps apart from every list-keyed
    stream: the greedy's [rng_seed, iteration, block], which the CLI seeds
    with the same number, and _mc_reach's [rng_seed, block], which
    graph.singleton_table seeds with 0, the CLI's default."""
    return np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(block, kind)))


def _simulate(instance: Instance, policy, worlds: int, rng_seed: int):
    """Per chunk of worlds, in order: each world's realized spread (int64),
    each world's first-accept position (or None), the number of infeasible
    runs and the number of alg1 worlds.

    Where _accepter_spreads scores alg2 worlds, their realized spread reads
    0, and the positions hold each alg2 world's first-accept position and
    len(order), which scores 0, for every alg1 world; elsewhere they are
    None.  A chunk is as many worlds of one block as
    influence._chunk_columns gives for what a world holds; the block's
    generators are drawn a chunk of rows at a time, in order, so chunks
    change no draw.  Each realized world's seeds fill its column of a bool
    (n, rows) seed matrix that one sampled_spreads call scores; a chunk
    where no such world has a seed samples no live edge and takes no kernel
    pass.  An alg2 world's run, and so its verdict, depends only on its
    first accept's position in the order, so check_steps judges each
    position once per evaluation; it judges every alg1 run (_alg1_chunk).
    """
    graph = instance.graph
    n = instance.n_users
    unc = len(graph.uncertain_edges)
    alg1, alg2 = _routes(policy)
    stoch = isinstance(policy, StochCpPolicy)
    gather = _accepter_spreads(instance, policy) is not None
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
        stream = _stream(rng_seed, b, 0)
        coins = (_stream(rng_seed, b, 2).random(rows) < policy.alg1_weight if stoch
                 else np.full(rows, alg2 is None))
        # rounding draws for every row of a block with an alg1 world
        rounding = _stream(rng_seed, b, 1) if m and coins.any() else None
        for first in range(0, rows, step):
            size = min(step, rows - first)
            draws = stream.random((size, n + unc))
            thresholds = draws[:, :n]
            singly = coins[first:first + size]
            seeded = np.zeros((n, size), dtype=bool)
            positions = np.full(size, len(users)) if gather else None
            bad = 0
            in_block = np.flatnonzero(~singly)
            if len(in_block):
                # every row's, as taking whole columns is cheaper than picking rows too
                accepts = np.ones((size, len(users) + 1), dtype=bool)  # last: nobody accepts
                accepts[:, :-1] = thresholds[:, users] <= accept_at
                at = accepts.argmax(axis=1)[in_block]
                bad = int(bad_at[at].sum())
                if gather:
                    positions[in_block] = at
                else:
                    took = at < len(users)
                    seeded[users[at[took]], in_block[took]] = True
            picked = np.flatnonzero(singly)
            if rounding is not None:
                bad += _alg1_chunk(instance, alg1, rounding, thresholds, picked, seeded)
            values = (sampled_spreads(graph, live_edges(graph, draws[:, n:]), seeded) if seeded.any()
                      else np.zeros(size, dtype=np.int64))
            yield values, positions, bad, len(picked)


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
