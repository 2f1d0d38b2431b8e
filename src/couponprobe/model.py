"""Problem instances, actions, and the feasibility rules of a probing run.

A user accepts the first offered coupon whose attractiveness reaches their
privately drawn threshold.  Thresholds are drawn once per user, so acceptance
across coupon values is correlated: accepting some value implies accepting
every larger value.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .influence import Graph, InstanceError, _admit, _count, _is_real, _real

COST_MODE_THRESHOLD = "threshold"
COST_MODE_PAPER = "paper"
COST_MODES = (COST_MODE_THRESHOLD, COST_MODE_PAPER)

# The most actions build_action_space enumerates.  Every marginal estimate
# draws one float64 per action for each of a block's 1024 samples, so 4096
# actions put a block's draws near 32 MB.  At 4096 actions (512 users, 8
# low-value coupons, K = 1; 2-core x86 host, Python 3.11) the space took
# 6-11 ms to build, and a greedy at influence.MAX_KERNEL_WORK 2.7 s and +41
# MB max RSS with 200 samples a step, 3.6 s and +120 MB with a whole block.
MAX_ACTIONS = 4096


@dataclass(frozen=True)
class Instance:
    """A coupon probing problem.

    attractiveness[v][i] is the probability that user v accepts coupon i when
    offered it fresh.  Rows must be non-decreasing across coupons (a rational
    user never turns down a better deal they would have taken at a worse one).
    Every rule is checked here; a broken one raises InstanceError naming the
    entry.
    """

    graph: Graph
    coupons: tuple[float, ...]
    attractiveness: tuple[tuple[float, ...], ...]
    K: int
    B: float
    W: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coupons", tuple(_real(c, "coupons", i, "coupon value") for i, c in enumerate(self.coupons))
        )
        object.__setattr__(self, "attractiveness", tuple(
            tuple(_real(p, "attractiveness", v, f"user {v}: attractiveness") for p in row)
            for v, row in enumerate(self.attractiveness)
        ))
        coupons = self.coupons
        if not coupons:
            raise InstanceError("at least one coupon value is required", "coupons")
        for i, c in enumerate(coupons):
            if not math.isfinite(c):
                raise InstanceError(f"coupon value {c} is not finite", "coupons", i)
            if c <= 0.0:
                raise InstanceError(f"coupon value {c} is not positive", "coupons", i)
            if i > 0 and c <= coupons[i - 1]:
                raise InstanceError(
                    f"coupon values must be strictly increasing ({coupons[i - 1]} then {c})", "coupons", i
                )
        n = self.graph.node_count
        if len(self.attractiveness) != n:
            raise InstanceError(
                f"expected {n} attractiveness rows, one per user, got {len(self.attractiveness)}",
                "attractiveness", min(n, len(self.attractiveness)),
            )
        for v, row in enumerate(self.attractiveness):
            if len(row) != len(coupons):
                raise InstanceError(
                    f"user {v}: expected {len(coupons)} attractiveness values, got {len(row)}",
                    "attractiveness", v,
                )
            for i, p in enumerate(row):
                if not 0.0 <= p <= 1.0:
                    raise InstanceError(f"user {v}: attractiveness {p} outside [0, 1]", "attractiveness", v)
                if i > 0 and p < row[i - 1]:
                    raise InstanceError(
                        f"user {v}: attractiveness drops from {row[i - 1]} at coupon value "
                        f"{coupons[i - 1]} to {p} at coupon value {coupons[i]}; rows must be non-decreasing",
                        "attractiveness", v,
                    )
        object.__setattr__(self, "K", _count(self.K, "K"))
        B = float(self.B) if _is_real(self.B) else math.nan
        if not (math.isfinite(B) and B > 0.0):
            raise InstanceError(f"B must be positive and finite, got {self.B!r}", "B")
        object.__setattr__(self, "B", B)
        if self.W is not None:
            object.__setattr__(self, "W", _count(self.W, "W"))

    @property
    def n_users(self) -> int:
        return self.graph.node_count

    @property
    def c_max_index(self) -> int:
        return len(self.coupons) - 1

    def user_cap(self, extended: bool) -> int | None:
        """The most distinct users a run may probe: W in extended mode, which
        refuses an instance without W, and None, no cap, otherwise."""
        if extended and self.W is None:
            raise ValueError("extended mode requires an instance with W set")
        return self.W if extended else None


@dataclass(frozen=True, order=True)
class Action:
    """One user paired with the coupon indices offered to them, in strictly
    increasing order, until the first accept."""

    user: int
    coupons: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupons", tuple(int(i) for i in self.coupons))
        if not self.coupons:
            raise ValueError("a probe sequence must contain at least one coupon")
        for a, b in itertools.pairwise(self.coupons):
            if b <= a:
                raise ValueError("coupon indices must be strictly increasing")


def low_value_coupons(instance: Instance) -> list[int]:
    """Indices of coupons worth at most half the budget."""
    return [i for i, c in enumerate(instance.coupons) if c <= instance.B / 2.0]


def build_action_space(instance: Instance) -> list[Action]:
    """All (user, sequence) actions over low-value coupons, sequences of length 1..K.

    Sorted by user, then by coupon indices: the one action order, which y, its
    marginals and the LP direction inherit and every draw over them follows.
    Empty when there are no low-value coupons or no probes are allowed; callers
    treat an empty space as "this route has nothing to offer".  Raises
    ValueError, before enumerating, when the space would hold more than
    MAX_ACTIONS actions.
    """
    low = low_value_coupons(instance)
    lengths = range(1, min(instance.K, len(low)) + 1)
    _admit(instance.n_users * sum(math.comb(len(low), k) for k in lengths), MAX_ACTIONS, "the action space", "actions",
           f"n = {instance.n_users}, L = {len(low)} low-value coupons, K = {instance.K}")
    sequences = sorted(combo for k in lengths for combo in itertools.combinations(low, k))
    return [Action(user, coupons) for user in range(instance.n_users) for coupons in sequences]


def user_groups(actions: Iterable[Action]) -> dict[int, list[int]]:
    """Each user's action indices, users in the order of their first action."""
    groups: dict[int, list[int]] = {}
    for i, action in enumerate(actions):
        groups.setdefault(action.user, []).append(i)
    return groups


def check_actions(instance: Instance, actions: Iterable[Action]) -> None:
    """Raise ValueError naming the first action whose user or coupon index
    the instance does not have."""
    n, m = instance.n_users, len(instance.coupons)
    for action in actions:
        if not 0 <= action.user < n:
            raise ValueError(f"{action} does not fit the instance: its users are 0..{n - 1}")
        if not 0 <= action.coupons[0] <= action.coupons[-1] < m:
            raise ValueError(f"{action} does not fit the instance: its coupon indices are 0..{m - 1}")


def exact_expected_cost(instance: Instance, action: Action, mode: str = COST_MODE_THRESHOLD) -> Fraction:
    """Expected amount redeemed when probing one user through one sequence,
    as an exact rational.

    The threshold mode is exact under the correlated acceptance model: the
    user accepts coupon i (paying c_i) iff their threshold falls in
    (p_{i-1}, p_i].  The paper mode instead compounds independent rejections,
    which is not exact under the model but is kept as a selectable variant.
    """
    if mode not in COST_MODES:
        raise ValueError(f"unknown cost mode {mode!r}; expected one of {COST_MODES}")
    check_actions(instance, (action,))
    row = instance.attractiveness[action.user]
    total = Fraction(0)
    if mode == COST_MODE_THRESHOLD:
        prev = Fraction(0)
        for i in action.coupons:
            p = Fraction(row[i])
            total += (p - prev) * Fraction(instance.coupons[i])
            prev = p
    else:
        alive = Fraction(1)
        for i in action.coupons:
            p = Fraction(row[i])
            total += alive * p * Fraction(instance.coupons[i])
            alive *= 1 - p
    return total


def scaled_integers(values: Iterable[numbers.Real]) -> list[int]:
    """The values, rationals as they are and other reals as their floats,
    times the LCM of their denominators: the smallest positive scale that
    makes them all ints, so no comparison and no ratio between them moves."""
    exact = [Fraction(v) if isinstance(v, numbers.Rational) else Fraction(float(v)) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact]


class Steps(NamedTuple):
    """The probes of a block of runs: row r is one run, column p its p-th
    position in probing order.

    user[r, p] is the user probed there (-1: nobody), offers[r, p] the coupon
    indices offered, in order, padded with -1 at the end, accepted[r, p]
    whether the last of them was accepted and spend[r, p] what the run
    debited for it (0.0 when nothing).  The run's ledger after each offer is
    B less the spend of every position up to it, a position's own spend
    counted from its last offer.
    """

    user: np.ndarray
    offers: np.ndarray
    accepted: np.ndarray
    spend: np.ndarray


def check_steps(instance: Instance, steps: Steps, seeded: np.ndarray, extended: bool = False) -> np.ndarray:
    """Whether each row breaks a rule of a feasible run, for every row at once.

    seeded is the block's bool (n, rows) seed matrix: column r holds row r's
    seeds.  A row is flagged when its ledger after some offer is more than
    1e-9 from B less the accepted coupons so far, when those total more than
    B + 1e-9, when a user is offered more than K coupons, or offers that do not
    strictly increase, or offers after an accept, or offers with another
    user's between, when its seeds are not exactly the accepting users, and,
    in extended mode, when more than W distinct users are probed or the
    instance has no W.  Each rule is one test over the step arrays.
    """
    user, offers, accepted, spend = steps
    rows, positions = user.shape
    n = instance.n_users
    made = (offers >= 0).sum(axis=2)
    probed = made > 0
    last = np.take_along_axis(offers, np.maximum(made - 1, 0)[:, :, None], axis=2)[:, :, 0]
    won = probed & accepted
    debit = np.where(won, np.array(instance.coupons)[last], 0.0)

    bad = np.zeros(rows, dtype=bool)
    ledger = np.full(rows, instance.B)  # the run's own, less spend
    budget = ledger.copy()  # recomputed from the accepted offers
    for p in range(positions):
        # a position's offers before its last carry the ledger from before it
        bad |= probed[:, p] & (made[:, p] > 1) & (np.abs(ledger - budget) > 1e-9)
        ledger = ledger - spend[:, p]
        budget = budget - debit[:, p]
        bad |= probed[:, p] & (np.abs(ledger - budget) > 1e-9)
    bad |= budget < -1e-9
    bad |= ((offers[:, :, 1:] >= 0) & (offers[:, :, 1:] <= offers[:, :, :-1])).any(axis=(1, 2))

    every = np.broadcast_to(np.arange(rows)[:, None], user.shape)
    cells = (every * n + user)[probed]
    offered = np.bincount(cells, weights=made[probed], minlength=rows * n).reshape(rows, n)
    bad |= (offered > instance.K).any(axis=1)
    accepting = np.zeros((n, rows), dtype=bool)
    accepting[user[won], every[won]] = True
    bad |= (accepting != seeded).any(axis=0)
    if extended:
        bad |= instance.W is None or (offered > 0).sum(axis=1) > instance.W

    # rows where a user holds several positions: each pair of that user's
    # positions that are neighbours in one sort
    again = np.flatnonzero((np.bincount(cells, minlength=rows * n).reshape(rows, n) > 1).any(axis=1))
    if len(again):
        user, probed, accepted = user[again], probed[again], accepted[again]
        order = np.argsort(np.where(probed, user * positions + np.arange(positions), n * positions), axis=1)
        earlier, later = order[:, :-1], order[:, 1:]

        def at(values, index):
            return np.take_along_axis(values, index, axis=1)

        pairs = at(probed, later) & (at(user, later) == at(user, earlier))
        rank = np.cumsum(probed, axis=1)
        apart = at(rank, later) != at(rank, earlier) + 1  # another user's offers between
        not_increasing = at(offers[again, :, 0], later) <= at(last[again], earlier)
        bad[again] |= (pairs & (apart | at(accepted, earlier) | not_increasing)).any(axis=1)
    return bad
