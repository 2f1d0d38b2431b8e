"""Ground-truth values for desk-sized instances.

Everything here is brute force on purpose: the optimal adaptive policy by
memoized backward induction, policy values by exhausting the world space, and
the concave relaxation by an exact LP over all action subsets.  These are the
reference points the fast paths are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from . import simplex
from .influence import influence_exact, live_mask_outcomes, realized_influence
from .model import (
    Action,
    Instance,
    PolicyTrace,
    World,
    build_action_space,
    exact_expected_cost,
)

MAX_ORACLE_USERS = 4
MAX_ORACLE_COUPONS = 3
MAX_ORACLE_PROBES = 2
MAX_ENUM_EDGES = 12
MAX_LP_ACTIONS = 12
MAX_WORLD_CELLS = 2_000_000


class OracleSizeError(ValueError):
    """The instance is too large for exact computation; the message says why."""


@dataclass(frozen=True)
class PolicyState:
    """Adaptive-policy knowledge: per user (offers made, largest rejected
    coupon index or -1, accepted coupon index or -1), plus who was probed last
    (-1 when irrelevant)."""

    users: tuple[tuple[int, int, int], ...]
    last_probed: int = -1


def conditional_accept(p_target: float, p_rejected: float) -> float:
    """Acceptance probability of a coupon given the best rejection so far.

    With no rejection yet (p_rejected = 0) this is just the unconditional
    attractiveness.  Dominated offers come out at zero.
    """
    if p_target <= p_rejected:
        return 0.0
    return (p_target - p_rejected) / (1.0 - p_rejected)


def optimal_adaptive_value(
    instance: Instance, restricted: bool = False, use_W: bool = False
) -> float:
    """Value of the best adaptive probing policy, by backward induction.

    The policy may offer any affordable coupon to any eligible user or stop;
    `restricted` additionally forces each user's offers into consecutive
    rounds, and `use_W` caps the number of distinct users probed.
    """
    n = instance.n_users
    if n > MAX_ORACLE_USERS or len(instance.coupons) > MAX_ORACLE_COUPONS or instance.K > MAX_ORACLE_PROBES:
        raise OracleSizeError(
            f"backward induction handles at most {MAX_ORACLE_USERS} users, "
            f"{MAX_ORACLE_COUPONS} coupons and K <= {MAX_ORACLE_PROBES}; "
            f"got {n} users, {len(instance.coupons)} coupons, K = {instance.K}"
        )
    if use_W and instance.W is None:
        raise ValueError("use_W requires an instance with W set")

    coupon_cost = [Fraction(c) for c in instance.coupons]
    budget = Fraction(instance.B)
    spread = _spread_table(instance)
    memo: dict[PolicyState, float] = {}

    def best(state: PolicyState) -> float:
        cached = memo.get(state)
        if cached is not None:
            return cached
        accepted_mask = 0
        spent = Fraction(0)
        probed = 0
        for v, (offers, _, acc) in enumerate(state.users):
            if acc >= 0:
                accepted_mask |= 1 << v
                spent += coupon_cost[acc]
            if offers > 0:
                probed += 1
        remaining = budget - spent
        value = spread(accepted_mask)  # stopping is always allowed
        for v, (offers, rej, acc) in enumerate(state.users):
            if acc >= 0 or offers >= instance.K:
                continue
            if restricted and state.last_probed >= 0 and v != state.last_probed and offers > 0:
                continue
            if use_W and offers == 0 and probed >= instance.W:
                continue
            p_rej = instance.attractiveness[v][rej] if rej >= 0 else 0.0
            for j in range(len(instance.coupons)):
                if coupon_cost[j] > remaining:
                    break  # coupons are sorted; nothing later is affordable
                q = conditional_accept(instance.attractiveness[v][j], p_rej)
                if q <= 0.0:
                    continue  # a sure rejection only burns an offer
                last = v if restricted else -1
                taken = state.users[:v] + ((offers + 1, rej, j),) + state.users[v + 1 :]
                val_acc = best(PolicyState(taken, last))
                if q >= 1.0:
                    cand = val_acc
                else:
                    declined = state.users[:v] + ((offers + 1, j, -1),) + state.users[v + 1 :]
                    cand = q * val_acc + (1.0 - q) * best(PolicyState(declined, last))
                if cand > value:
                    value = cand
        memo[state] = value
        return value

    start = PolicyState(tuple((0, -1, -1) for _ in range(n)))
    return best(start)


def enumerate_worlds(instance: Instance) -> Iterator[tuple[float, World]]:
    """Yield (probability, world) pairs covering the world space exactly.

    Thresholds only matter through which coupons they admit, so each user
    contributes one cell per distinct attractiveness interval, represented by
    the interval's right endpoint.  Cascades are the graph's live-edge
    outcomes.
    """
    unc = instance.graph.uncertain_edges
    if len(unc) > MAX_ENUM_EDGES:
        raise OracleSizeError(
            f"world enumeration handles at most {MAX_ENUM_EDGES} uncertain edges, got {len(unc)}"
        )
    user_cells: list[list[tuple[float, float]]] = []
    for row in instance.attractiveness:
        breaks = sorted({p for p in row if p > 0.0})
        cells = []
        prev = 0.0
        for b in breaks:
            cells.append((b - prev, b))
            prev = b
        if prev < 1.0:
            cells.append((1.0 - prev, 1.0))
        user_cells.append(cells)

    total_cells = 1
    for cells in user_cells:
        total_cells *= len(cells)
    total_cells *= 1 << len(unc)
    if total_cells > MAX_WORLD_CELLS:
        raise OracleSizeError(f"world enumeration would need {total_cells} cells")

    cascades = [(w, mask) for w, mask in live_mask_outcomes(instance.graph) if w > 0.0]

    for combo in itertools.product(*user_cells):
        t_weight = 1.0
        thresholds = []
        for w, rep in combo:
            t_weight *= w
            thresholds.append(rep)
        if t_weight == 0.0:
            continue
        for c_weight, mask in cascades:
            yield t_weight * c_weight, World(tuple(thresholds), mask)


def exact_policy_value(
    instance: Instance, trace_generator: Callable[[World], PolicyTrace]
) -> float:
    """Exact expected spread of a deterministic-per-world policy."""
    total = 0.0
    for weight, world in enumerate_worlds(instance):
        trace = trace_generator(world)
        total += weight * realized_influence(instance.graph, trace.seeds, world.live_mask)
    return total


def _spread_table(instance: Instance) -> Callable[[int], float]:
    """Exact spread of a seed set given as a user bitmask, memoized per mask."""
    memo: dict[int, float] = {0: 0.0}

    def spread(mask: int) -> float:
        if mask not in memo:
            seeds = [v for v in range(instance.n_users) if mask >> v & 1]
            memo[mask] = influence_exact(instance.graph, seeds)
        return memo[mask]

    return spread


def exact_action_set_value_frac(
    instance: Instance, actions: Iterable[Action], spread=None
) -> Fraction:
    """Exact expected spread of probing a fixed action set (no budget)."""
    if spread is None:
        spread = _spread_table(instance)
    return _top_coupon_value(instance, _top_coupons(actions), spread)


def _top_coupons(actions: Iterable[Action]) -> dict[int, int]:
    """Each probed user's largest offered coupon index: all the value depends on."""
    best: dict[int, int] = {}
    for action in actions:
        top = action.sequence.coupon_indices[-1]
        if best.get(action.user, -1) < top:
            best[action.user] = top
    return best


def _top_coupon_value(
    instance: Instance, best: Mapping[int, int], spread: Callable[[int], float]
) -> Fraction:
    """Exact expected spread when each user v in best is offered coupon best[v]."""
    users = sorted(best)
    accept = [Fraction(instance.attractiveness[v][best[v]]) for v in users]
    total = Fraction(0)
    for sub in range(1 << len(users)):
        weight = Fraction(1)
        mask = 0
        for pos, (v, q) in enumerate(zip(users, accept)):
            if sub >> pos & 1:
                weight *= q
                mask |= 1 << v
            else:
                weight *= 1 - q
        if weight:
            total += weight * Fraction(spread(mask))
    return total


def exact_action_set_value(instance: Instance, actions: Iterable[Action]) -> float:
    return float(exact_action_set_value_frac(instance, actions))


def _subset_value_table(instance: Instance, actions: list[Action]) -> list[Fraction]:
    """Exact value of every action subset, indexed by subset bitmask.

    Subsets that give every user the same top coupon share one evaluation.
    """
    if len(actions) > MAX_LP_ACTIONS:
        raise OracleSizeError(
            f"subset enumeration handles at most {MAX_LP_ACTIONS} actions, got {len(actions)}"
        )
    spread = _spread_table(instance)
    by_tops: dict[tuple[tuple[int, int], ...], Fraction] = {}
    table = []
    for mask in range(1 << len(actions)):
        best = _top_coupons(a for i, a in enumerate(actions) if mask >> i & 1)
        key = tuple(sorted(best.items()))
        if key not in by_tops:
            by_tops[key] = _top_coupon_value(instance, best, spread)
        table.append(by_tops[key])
    return table


def concave_extension_exact(instance: Instance, y: Mapping[Action, object]) -> Fraction:
    """Tightest concave upper envelope of the set utility, evaluated at y.

    Solves, exactly: distribute at most one unit of probability over action
    subsets so that each action's total inclusion stays within y, maximizing
    expected utility.
    """
    actions = list(y)
    table = _subset_value_table(instance, actions)
    n_sub = len(table)
    objective = table
    lhs: list[list[Fraction]] = [[Fraction(1)] * n_sub]
    rhs: list[Fraction] = [Fraction(1)]
    for i, action in enumerate(actions):
        lhs.append([Fraction(1) if mask >> i & 1 else Fraction(0) for mask in range(n_sub)])
        cap = Fraction(y[action])
        if cap < 0 or cap > 1:
            raise ValueError(f"mass for {action} outside [0, 1]")
        rhs.append(cap)
    value, _ = simplex.maximize(objective, lhs, rhs)
    return value


def multilinear_value_exact(instance: Instance, y: Mapping[Action, object]) -> Fraction:
    """Exact expected utility of independently rounding y, by enumeration."""
    actions = list(y)
    table = _subset_value_table(instance, actions)
    total = Fraction(0)
    for mask in range(len(table)):
        weight = Fraction(1)
        for i, action in enumerate(actions):
            p = Fraction(y[action])
            weight *= p if mask >> i & 1 else 1 - p
            if weight == 0:
                break
        if weight:
            total += weight * table[mask]
    return total


def concave_relaxation_optimum(instance: Instance, use_W: bool = False) -> Fraction:
    """Exact optimum of the concave relaxation over the unscaled feasible region.

    Maximizes the concave envelope over all fractional assignments satisfying
    the per-user, budget, and (optionally) user-count constraints.  Upper
    bounds every feasible non-adaptive action set.
    """
    actions = build_action_space(instance)
    table = _subset_value_table(instance, actions)
    if use_W and instance.W is None:
        raise ValueError("use_W requires an instance with W set")
    n_sub = len(table)
    lhs: list[list[Fraction]] = [[Fraction(1)] * n_sub]
    rhs: list[Fraction] = [Fraction(1)]
    for user in sorted({a.user for a in actions}):
        idx = [i for i, a in enumerate(actions) if a.user == user]
        lhs.append(
            [Fraction(sum(1 for i in idx if mask >> i & 1)) for mask in range(n_sub)]
        )
        rhs.append(Fraction(1))
    costs = [exact_expected_cost(instance, a) for a in actions]
    lhs.append(
        [
            sum((costs[i] for i in range(len(actions)) if mask >> i & 1), Fraction(0))
            for mask in range(n_sub)
        ]
    )
    rhs.append(Fraction(instance.B))
    if use_W:
        lhs.append([Fraction((mask).bit_count()) for mask in range(n_sub)])
        rhs.append(Fraction(instance.W))
    value, _ = simplex.maximize(table, lhs, rhs)
    return value
