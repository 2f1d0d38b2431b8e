"""Shared instance builders and tiny exact oracles for the test suite."""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from couponprobe.influence import Graph
from couponprobe.model import Instance, World
from couponprobe.sequencing import first_accept_value


def edgeless(n: int) -> Graph:
    return Graph(node_count=n, edges=())


def make_world(thresholds, live_mask: int = 0) -> World:
    return World(thresholds=tuple(float(t) for t in thresholds), live_mask=live_mask)


def single_user(p: float, coupon: float = 1.0, B: float = 1.0, K: int = 1,
                W: int | None = None) -> Instance:
    return Instance(
        graph=edgeless(1),
        coupons=(coupon,),
        attractiveness=((p,),),
        K=K,
        B=B,
        W=W,
    )


def uniform_instance(n: int, coupons, p_rows, K: int, B: float,
                     W: int | None = None, edges=()) -> Instance:
    return Instance(
        graph=Graph(node_count=n, edges=tuple(edges)),
        coupons=tuple(float(c) for c in coupons),
        attractiveness=tuple(tuple(float(p) for p in row) for row in p_rows),
        K=K,
        B=B,
        W=W,
    )


def sorted_row(gen: np.random.Generator, m: int) -> tuple[float, ...]:
    # rationality wants p non-decreasing in coupon value
    row = np.sort(gen.uniform(0.05, 0.95, size=m))
    return tuple(round(float(x), 3) for x in row)


def gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact solve of a square rational system; None when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def vertex_enumerate_max(objective, lhs, rhs):
    """Exact LP optimum of max c.x st Ax <= b, x >= 0 by vertex enumeration.

    Independent of the package's simplex on purpose. Only usable for a
    handful of variables; every basis subset gets solved exactly.
    """
    n = len(objective)
    obj = [Fraction(c) for c in objective]
    all_rows = [[Fraction(a) for a in row] for row in lhs]
    all_rhs = [Fraction(b) for b in rhs]
    for i in range(n):  # x_i >= 0 as -x_i <= 0
        all_rows.append([Fraction(-1 if j == i else 0) for j in range(n)])
        all_rhs.append(Fraction(0))
    best = None
    for combo in itertools.combinations(range(len(all_rows)), n):
        point = gauss_solve([all_rows[i] for i in combo], [all_rhs[i] for i in combo])
        if point is None:
            continue
        if any(
            sum(row[j] * point[j] for j in range(n)) > b
            for row, b in zip(all_rows, all_rhs)
        ):
            continue
        value = sum(obj[j] * point[j] for j in range(n))
        if best is None or value > best:
            best = value
    return best


def random_tiny_instance(gen: np.random.Generator, *, users: int = 3,
                         coupons_count: int = 2, K: int = 2,
                         straddle: bool = True, W: int | None = None) -> Instance:
    """Random instance small enough for the adaptive oracle.

    With straddle=True the coupon values bracket B/2 so that both the
    rounding branch and the sequencing branch are live.
    """
    n = int(gen.integers(2, users + 1))
    m = coupons_count
    edges = []
    for s in range(n):
        for t in range(n):
            if s != t and gen.random() < 0.5:
                edges.append((s, t, round(float(gen.uniform(0.1, 0.9)), 3)))
    if straddle:
        B = 3.0
        values = (1.0, 2.0) if m == 2 else (1.0,)
    else:
        B = round(float(gen.uniform(1.5, 4.0)), 3)
        values = tuple(sorted(round(float(v), 3) for v in gen.uniform(0.2, B, size=m)))
        if len(set(values)) < m:
            values = tuple(v + 0.001 * i for i, v in enumerate(values))
    rows = tuple(sorted_row(gen, len(values)) for _ in range(n))
    return Instance(
        graph=Graph(node_count=n, edges=tuple(edges)),
        coupons=values,
        attractiveness=rows,
        K=min(K, len(values)),
        B=B,
        W=W,
    )


def threshold_cost(inst, action) -> Fraction:
    """Expected spend of one action, exact, threshold-consistent accounting."""
    prev = Fraction(0)
    total = Fraction(0)
    for idx in action.sequence.coupon_indices:
        p = Fraction(inst.attractiveness[action.user][idx])
        total += (p - prev) * Fraction(inst.coupons[idx])
        prev = p
    return total


def mirror_lp(inst, weights, beta, use_W=False):
    """Rebuild the direction-finding LP rows the way the package does."""
    actions = sorted(weights)
    obj = [Fraction(float(weights[a])) for a in actions]
    lhs, rhs = [], []
    for user in sorted({a.user for a in actions}):
        lhs.append([Fraction(1 if a.user == user else 0) for a in actions])
        rhs.append(Fraction(1))
    lhs.append([threshold_cost(inst, a) for a in actions])
    rhs.append(Fraction(beta) * Fraction(inst.B))
    if use_W:
        lhs.append([Fraction(1)] * len(actions))
        rhs.append(Fraction(beta) * Fraction(inst.W))
    return actions, obj, lhs, rhs


def dp_brute_force(probs, infl, W) -> Fraction:
    """Best first-accept value over every user subset of size <= W and order."""
    best = Fraction(0)
    for r in range(0, min(W, len(probs)) + 1):
        for subset in itertools.combinations(range(len(probs)), r):
            for perm in itertools.permutations(subset):
                value = first_accept_value(
                    [probs[v] for v in perm], [infl[v] for v in perm]
                )
                best = max(best, value)
    return best
