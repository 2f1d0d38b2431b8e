"""Ground-truth values for desk-sized instances.

The optimal adaptive policy comes from memoized backward induction.  Each
user has a few local states: fresh, finished, accepted coupon j, and (offers
made, coupon last rejected) while an offer is left.  A state is one
mixed-radix integer over the users' local states and indexes a flat memo;
each user's moves from each local state are precomputed as integer deltas to
the accept and reject states.  B and the coupon values are scaled by the LCM
of their exact denominators, so budget tests run exactly on ints.  A user who
can be offered nothing more is finished, or accepted, whatever the history;
so, in restricted mode, is a user the policy leaves for a fresh one, so no
state records who was probed last.  Merged states have the same futures, so
every value is float for float the per-history one.  On oracle4-shaped
instances (4 users, 3 coupons, K = 2; median of 32) a warm call takes about
1.3 ms over 1,473 of the memo's 2,401 states, 0.7 ms restricted and 0.3 ms
with the W cap (2-core x86 host shared with other tenants, Python 3.11,
numpy 2.4; its speed moves such times by up to 1.6x).

Counts computed before the work bound it, each admitted by influence._admit
and refused with OracleSizeError.  The induction's steps, at most
MAX_ORACLE_STEPS = 800,000, are its memo's states, the product over users of
their local-state counts, plus the moves in the users' tables, each built
once, plus the moves over the memo, each user's moves once per state of the
other users.  The spread table's cells, one per non-empty subset of the
users and live-edge outcome, each subset counted as at least 2^8 outcomes,
are at most MAX_SPREAD_CELLS = 2^26, and its kernel call is admitted as
influence._admit_exact admits it.  The profile LPs take at most
MAX_LP_COLUMNS = 4,096 profiles; at that size the relaxation optimum took
0.11-0.16 s and +3.6 MB (6 users with 3 actions each), and the extension's
simplex stops at its own budget of cell updates, simplex.MAX_PIVOT_CELLS,
with a ValueError.  On the same host, one call after a warm-up in a fresh
process, in each mode, near the step limit: 1 user with 266,666 coupons at
K = 1 took at most 1.01 s and +72 MB max RSS, 1 user with 892 coupons at
K = 2 took 0.52 s and +88 MB (its table holds every move), and 6 users on a
path with 3 coupons at K = 2 took 0.49 s and +4.4 MB; the spread table took
0.52-0.70 s at 2^26 cells over 6 to 12 users, and 5.5-8.0 s and +56 MB over
18 users and at most 8 uncertain edges; both limits at once took at most
0.92 s and +4.3 MB.

The multilinear extension, which at a 0/1 point is the value of that action
set, the concave extension and the concave relaxation's optimum are exact
rationals, and the last two are LPs over action profiles, at most one action
per user.  The extension is solved by the rational simplex; the optimum, a
multiple-choice knapsack LP over the profiles, by the LP solver the
continuous greedy's direction uses (relaxation._ColumnLP), every profile in
one group.  These are the reference points the fast paths are tested
against.

Every entry point reads one spread table, a list indexed by the mask of the
users it needs: the induction by its accepted mask, while the extensions fold
the users out one at a time, each seeding with its own probability (_fold).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Callable, Collection, Mapping

from . import simplex
from .influence import _admit, _admit_exact, _exact_spreads
from .model import (
    Action, Instance, build_action_space, check_actions, exact_expected_cost, scaled_integers, user_groups,
)
from .relaxation import _ColumnLP, _mass

MAX_ORACLE_STEPS = 800_000
MAX_SPREAD_CELLS = 2**26
MAX_LP_COLUMNS = 4096


class OracleSizeError(ValueError):
    """The instance is too large for exact computation; the message says why."""


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
    cap = instance.user_cap(use_W)
    n = instance.n_users
    K = instance.K
    L = len(instance.coupons)
    cap = n if cap is None else cap  # fresh users are offered while fewer are probed; n never binds
    spread_table = _spread_table(instance, range(n))
    # firsts[v][rej]: the first coupon v takes with probability q > 0 after
    # rejecting coupon rej, L if none; rej = -1, the last entry, is a user
    # offered nothing yet.  Rows are non-decreasing, so v takes every coupon
    # from there on.
    firsts = [[bisect.bisect_right(row, p) for p in (*row, 0.0)] for row in instance.attractiveness]
    # A user's local states: 0 fresh, 1 finished, 2 + j accepted coupon j,
    # then one per (offers made m, coupon j last rejected) with an offer left
    # and 0 < m < K; offers rise strictly in probability, so also m < L.  The
    # memo has one entry per combination of local states.
    rounds = range(1, min(K, L))
    left = [[j for j in range(L) if first[j] < L] for first in firsts]
    radices = [2 + L + len(rounds) * len(js) for js in left]
    # the moves in each user's table, from its local states with offers left
    table_moves = [
        (L - first[-1] if K else 0) + len(rounds) * sum(L - first[j] for j in js) for first, js in zip(firsts, left)
    ]
    # the moves over the memo: each state's users' moves from their local
    # states, summed one user at a time
    size, memo_moves = 1, 0
    for radix, count in zip(radices, table_moves):
        size, memo_moves = size * radix, memo_moves * radix + size * count
    tabulated = sum(table_moves)
    _admit(size + tabulated + memo_moves, MAX_ORACLE_STEPS, "backward induction", "steps",
           f"{size} states, {tabulated} moves to tabulate and {memo_moves} over the states", OracleSizeError)
    *costs, budget = scaled_integers((*instance.coupons, instance.B))
    spread = spread_table()
    # A state is the sum over users of local state times stride; users[v]
    # holds v's stride, radix, moves per local state and bit.
    users = []
    stride = 1
    for v, radix in enumerate(radices):
        row = (*instance.attractiveness[v], 0.0)
        part_way = [(m, j) for m in rounds for j in left[v]]
        # the local states with offers left, by (offers made, coupon last
        # rejected); at K = 0 a fresh user has none
        local_of = ({(0, -1): 0} if K else {}) | {key: 2 + L + k for k, key in enumerate(part_way)}
        table: list[tuple] = [()] * radix
        for rej in ([-1] if K else []) + (left[v] if rounds else []):
            # q and 1 - q for every coupon j that v takes with probability
            # q > 0 after rejecting coupon rej, shared by the local states
            # that last rejected it
            first = firsts[v][rej]
            qs = [conditional_accept(p, row[rej]) for p in row[first:L]]
            q_decs = [1.0 - q for q in qs]
            for made in rounds if rej >= 0 else (0,):
                local = local_of[made, rej]
                # (cost, q, 1 - q, accept delta, reject delta, the delta that
                # finishes v after a reject), coupons ascending
                moves = []
                for j, q, q_dec in zip(range(first, L), qs, q_decs):
                    after = local_of.get((made + 1, j), 1)
                    finish = (1 - after) * stride if restricted else 0
                    moves.append((costs[j], q, q_dec, (2 + j - local) * stride, (after - local) * stride, finish))
                table[local] = tuple(moves)
        users.append((stride, radix, table, 1 << v))
        stride *= radix
    memo: list[float | None] = [None] * size

    def best(s: int, accepted: int, remaining: int, probed: int, finish: int) -> float:
        # accepted (user bitmask), remaining (scaled budget) and probed (users
        # offered anything) are running totals over users; finish moves the
        # user part-way through its offers, if any, to finished
        value = memo[s]
        if value is not None:
            return value
        value = spread[accepted]  # stopping is always allowed
        for stride, radix, table, bit in users:
            local = s // stride % radix
            if local:
                base, now = s, probed
            elif probed < cap:
                # a restricted policy that turns to a fresh user never comes
                # back to the one it leaves
                base, now = s + finish, probed + 1
            else:
                continue
            for cost, q, q_dec, to_acc, to_rej, finish_rej in table[local]:
                if cost > remaining:
                    break  # coupons are sorted; nothing later is affordable
                val_acc = best(base + to_acc, accepted | bit, remaining - cost, now, 0)
                if q >= 1.0:
                    cand = val_acc
                else:
                    cand = q * val_acc + q_dec * best(base + to_rej, accepted, remaining, now, finish_rej)
                if cand > value:
                    value = cand
        memo[s] = value
        return value

    return best(0, 0, budget, 0, 0)


def _spread_table(instance: Instance, users: Collection[int]) -> Callable[[], list[float]]:
    """A function that builds the exact spread of every subset of the users,
    indexed by mask, bit k standing for the k-th user given, from one call
    of the reach kernel.

    Refuses first, with OracleSizeError, more than MAX_SPREAD_CELLS cells,
    one per non-empty subset and live-edge outcome, each subset counted as
    at least 2^8 outcomes, and then a kernel call that
    influence._admit_exact does not admit.
    """
    sets, edges = (1 << len(users)) - 1, len(instance.graph.uncertain_edges)
    # a seed set, a list and a few numpy calls a chunk, costs as much as 2^8 outcomes
    _admit(sets << max(edges, 8), MAX_SPREAD_CELLS, "the spread table", "cells",
           f"{len(users)} users, {edges} uncertain edges{'' if edges >= 8 else ', a set at least 2^8 outcomes'}",
           OracleSizeError)
    if sets:
        _admit_exact(instance.graph, sets, OracleSizeError)

    def build() -> list[float]:
        seed_sets = [[v for k, v in enumerate(users) if mask >> k & 1] for mask in range(1, sets + 1)]
        return [0.0, *(_exact_spreads(instance.graph, seed_sets) if seed_sets else ())]

    return build


def _fold(table: list[Fraction], q: Fraction) -> list[Fraction]:
    """The table over every user but its lowest bit's, with that user
    seeding independently with probability q."""
    return [b + q * (a - b) for b, a in zip(table[0::2], table[1::2])]


def _accept(instance: Instance, action: Action) -> Fraction:
    """Probability that the action seeds its user: that of its top coupon."""
    return Fraction(instance.attractiveness[action.user][action.coupons[-1]])


def _by_user(instance: Instance, actions: list[Action]) -> dict[int, list[int]]:
    """Each user's action indices, refusing actions that do not fit the
    instance and more than MAX_LP_COLUMNS profiles.

    A profile is at most one action per user, so there are prod(1 + |S_u|)
    of them, never more than the 2^|S| action subsets.
    """
    check_actions(instance, actions)
    groups = user_groups(actions)
    _admit(math.prod(1 + len(group) for group in groups.values()), MAX_LP_COLUMNS, "the exact LP", "action profiles",
           f"the product over {len(groups)} users of 1 + their actions, {len(actions)} in all", OracleSizeError)
    return groups


def _profile_columns(instance: Instance, actions: list[Action]) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """Every action profile, as indices into actions, with its exact value.

    The utility depends only on each user's top coupon, so a column with two
    actions of one user is dominated by the one that keeps only the
    higher-top action: same value, and no more of any row.  An LP over the
    profiles therefore reaches the optimum of the LP over all action subsets.

    A profile's value is computed user by user: the spread table, over the
    users not yet chosen for, folds its lowest user out once per choice (no
    action, or an action that seeds the user with probability q), and
    profiles that share their first choices share the folded tables.
    Profiles come in itertools.product order, the last user's choice
    varying fastest.
    """
    groups = _by_user(instance, actions)
    accept = [_accept(instance, a) for a in actions]
    level = [((), [Fraction(x) for x in _spread_table(instance, groups)()])]
    for group in groups.values():
        level = [
            (p, t[0::2]) if i is None else (p + (i,), _fold(t, accept[i]))
            for p, t in level
            for i in (None, *group)
        ]
    return [p for p, _ in level], [t[0] for _, t in level]


def concave_extension_exact(instance: Instance, y: Mapping[Action, object]) -> Fraction:
    """Tightest concave upper envelope of the set utility, evaluated at y.

    Solves, exactly: distribute at most one unit of probability over action
    profiles so that each action's total inclusion stays within y, maximizing
    expected utility.
    """
    masses = [_mass(action, mass) for action, mass in y.items()]
    profiles, values = _profile_columns(instance, list(y))
    lhs = [[Fraction(1)] * len(profiles)]
    lhs += [[Fraction(i in p) for p in profiles] for i in range(len(masses))]
    value, _ = simplex.maximize(values, lhs, [Fraction(1), *masses])
    return value


def multilinear_value_exact(instance: Instance, y: Mapping[Action, object]) -> Fraction:
    """Exact expected utility of independently rounding y.

    Users are rounded independently and only each user's top coupon counts,
    so user u seeds independently with probability q_u: walking u's actions
    by descending top coupon, q_u sums none_above * y_a * p(top(a)), where
    none_above is the product of (1 - y) over the actions walked before a;
    each q_u folds u out of the spread table.
    """
    masses = [_mass(action, mass) for action, mass in y.items()]
    actions = list(y)
    check_actions(instance, actions)
    groups = user_groups(actions)
    table = [Fraction(x) for x in _spread_table(instance, groups)()]
    for group in groups.values():
        none_above, q = Fraction(1), Fraction(0)
        for i in sorted(group, key=lambda i: -actions[i].coupons[-1]):
            q += none_above * masses[i] * _accept(instance, actions[i])
            none_above *= 1 - masses[i]
        table = _fold(table, q)
    return table[0]


def concave_relaxation_optimum(instance: Instance, use_W: bool = False) -> Fraction:
    """Exact optimum of the concave relaxation over the unscaled feasible region.

    Maximizes the concave envelope over all fractional assignments satisfying
    the per-user, budget, and (optionally) user-count constraints.  Upper
    bounds every feasible non-adaptive action set.  A profile column holds at
    most one action per user, so the total-mass row implies the per-user rows.

    What is left is the direction LP's _ColumnLP with every profile in one
    group, costing the sum of its actions' costs and sized by its user count,
    with the budget B and, with use_W, the cap W.
    """
    cap = instance.user_cap(use_W)
    actions = build_action_space(instance)
    profiles, values = _profile_columns(instance, actions)
    action_costs = [exact_expected_cost(instance, a) for a in actions]
    costs = [sum((action_costs[i] for i in p), Fraction(0)) for p in profiles]
    lp = _ColumnLP([list(range(len(profiles)))], costs, Fraction(instance.B), [len(p) for p in profiles],
                   None if cap is None else Fraction(cap))
    return sum((values[i] * v for i, v in lp.solve(scaled_integers(values)).items()), Fraction(0))
