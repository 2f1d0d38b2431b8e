"""Continuous relaxation of the probing problem and its greedy ascent.

The fractional solution lives on the action space (user, coupon sequence).
Marginal utilities are estimated by Monte Carlo with common random numbers,
a window of samples at a time; the direction-finding LP, a _ColumnLP, which
the oracle's relaxation optimum solves too, is solved exactly on integers,
by a walk over the groups' convex hulls and, when the W row binds, a search
over the W row's Lagrange multiplier made of such walks; and the ascent
accumulates in exact arithmetic so the scaled constraints hold with no
slack.

The ascent runs on action indices.  Its marginal samples do not depend on
the point, so one reach-kernel pass scores a window of rows that may span
steps, and the LP reads each step's integer sample totals as they are.  On
the 48-action relax48 instances (8 users, K=2; 2-core x86 host, Python 3.11,
numpy 2.4, nine runs, which differ by up to 1.6x) one step costs 0.20-0.29
ms with 10 marginal samples, 0.026-0.038 ms of it in the direction LP, and
0.30-0.49 ms with the default 200, 0.029-0.050 ms of it in the LP.  The
default step, exactly 1/|S|^2, takes 2304 steps there: 0.46-0.67 s with 10
samples and 0.69-1.12 s with 200.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import influence
from .influence import BLOCK, _admit, _count, _is_real, _positive, _sampled_reach, _seeded_union, live_edges
from .model import (
    COST_MODE_THRESHOLD,
    COST_MODES,
    Action,
    Instance,
    build_action_space,
    check_actions,
    exact_expected_cost,
    scaled_integers,
    user_groups,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def default_beta_basic() -> float:
    """Scaling constant maximizing beta*(1-beta)*(1-2*beta) on [0, 1/2]."""
    return (3.0 - math.sqrt(3.0)) / 6.0


def default_beta_extended() -> float:
    """Scaling constant maximizing beta*(1-beta)^2*(1-2*beta) on [0, 1/2].

    The derivative 1 - 8b + 15b^2 - 8b^3 = (1 - b)(8b^2 - 7b + 1) changes sign
    on the interval only at the smaller root of the quadratic.
    """
    return (7.0 - math.sqrt(17.0)) / 16.0


@dataclass(frozen=True)
class RelaxationConfig:
    """Knobs for the fractional stage.

    beta and delta default to None and are resolved against the instance:
    beta to the mode's optimized constant, delta to exactly 1/|S|^2 where S
    is the action space.  That default step size is safe but slow (|S|^2
    steps of marginal_samples samples each, which continuous_greedy refuses
    when their work passes influence.MAX_KERNEL_WORK); larger values trade
    the guarantee for speed.  beta and delta are reals but bool,
    marginal_samples and rng_seed counts.
    """

    beta: float | None = None
    delta: float | None = None
    marginal_samples: int = 200
    rng_seed: int = 0
    cost_mode: str = COST_MODE_THRESHOLD

    def __post_init__(self) -> None:
        if self.beta is not None and not (_is_real(self.beta) and 0.0 <= self.beta <= 0.5):
            raise ValueError(f"beta must lie in [0, 1/2], got {self.beta!r}")
        if self.delta is not None and not (_is_real(self.delta) and 0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")
        object.__setattr__(self, "marginal_samples", _positive(self.marginal_samples, "marginal_samples"))
        object.__setattr__(self, "rng_seed", _count(self.rng_seed, "rng_seed"))
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")

    def resolved_beta(self, use_W: bool) -> float:
        if self.beta is not None:
            return self.beta
        return default_beta_extended() if use_W else default_beta_basic()

    def resolved_delta(self, n_actions: int) -> float | Fraction:
        if self.delta is not None:
            return self.delta
        return Fraction(1, n_actions * n_actions)


def user_mass(y: Mapping[Action, Fraction]) -> dict[int, Fraction]:
    """Total fractional mass per user of a point y on the action space, each
    mass read by _mass."""
    mass: dict[int, Fraction] = {}
    for action, value in y.items():
        mass[action.user] = mass.get(action.user, ZERO) + _mass(action, value)
    return mass


def _mass(action: Action, value) -> Fraction:
    """One mass of a point y, a real number (_is_real) in [0, 1], as an exact
    rational; anything else, non-finite values too, raises ValueError naming
    the action."""
    if not _is_real(value):
        raise ValueError(f"mass for {action} must be a real number, got {value!r}")
    if not 0 <= value <= 1:
        raise ValueError(f"mass for {action} outside [0, 1]: {value}")
    return Fraction(value)


def check_fractional(y: Mapping[Action, Fraction]) -> None:
    """Raise ValueError unless every mass is a real number in [0, 1] and no
    user carries more than one unit."""
    for user, mass in user_mass(y).items():
        if mass > 1:
            raise ValueError(f"user {user} carries fractional mass {mass} > 1")


class _Sampler:
    """Marginal estimation over a fixed list of actions, with everything that
    does not depend on the point y built once: each action's user and the
    acceptance of its top coupon, and the action indices of user_groups laid
    end to end, with each group's user and first position, for one any() per
    user and sample.
    """

    def __init__(self, instance: Instance, actions: list[Action], config: RelaxationConfig):
        self.graph = instance.graph
        self.n = instance.n_users
        self.unc = len(self.graph.uncertain_edges)
        self.samples_per_step = config.marginal_samples
        self.rng_seed = config.rng_seed
        self.users = np.array([a.user for a in actions], dtype=np.intp)
        self.top_accept = np.array([instance.attractiveness[a.user][a.coupons[-1]] for a in actions])
        groups = user_groups(actions)
        self.group_users = np.array(list(groups), dtype=np.intp)
        self.order = np.array([i for group in groups.values() for i in group], dtype=np.intp)
        self.group_starts = np.cumsum([0, *(len(group) for group in groups.values())])[:-1]

    def samples(self, first: int, steps: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The samples of iterations first..first+steps-1, in order, as pieces
        (accepts, presence uniforms, reach) of consecutive rows of one
        iteration each.

        Iteration i's samples are estimate_marginals' at iteration i: block b
        is drawn on the stream keyed by (rng_seed, i, b), and the generators
        are built and drawn in (iteration, block) order.  A window takes the
        rows influence._chunk_columns gives for what a row holds, may span
        steps and split a block, and has its reach from one kernel pass.
        totals lets go of each piece before asking for the next, so a window
        is freed before the next is drawn.  Nothing here depends on y.
        """
        n, m = self.n, len(self.users)
        # a row holds its draws and a copy of its accepts' thresholds at 8
        # bytes, and its accepts, live edges and seeds at 1
        limit = influence._chunk_columns(self.graph, 8 * (n + self.unc + 2 * m) + m + self.unc + n)
        window: list[tuple[np.random.Generator, int]] = []  # (a block's generator, rows)
        rows = 0
        for i in range(first, first + steps):
            for b, start in enumerate(range(0, self.samples_per_step, BLOCK)):
                gen = np.random.default_rng([self.rng_seed, i, b])
                left = min(BLOCK, self.samples_per_step - start)
                while left:
                    take = min(left, limit - rows)
                    window.append((gen, take))
                    rows, left = rows + take, left - take
                    if rows == limit:
                        yield from self._window(window, rows)
                        window, rows = [], 0
        if window:
            yield from self._window(window, rows)

    def _window(self, segments: list[tuple[np.random.Generator, int]], rows: int) -> Iterator[tuple]:
        n, unc = self.n, self.unc
        live = np.empty((rows, unc), dtype=bool)
        pieces = []  # (accepts, presence uniforms, first row)
        at = 0
        for gen, segment_rows in segments:
            draws = gen.random((segment_rows, n + unc + len(self.users)))
            live[at:at + segment_rows] = live_edges(self.graph, draws[:, n:n + unc])
            accepts = self.top_accept >= draws[:, self.users]  # thresholds are columns 0..n-1
            pieces.append((accepts, draws[:, n + unc:], at))
            at += segment_rows
        reach = _sampled_reach(self.graph, live)
        for accepts, presence, at in pieces:
            yield accepts, presence, reach[:, :, at:at + len(accepts)]

    def totals(self, probs: np.ndarray, pieces: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
        """Every action's gain summed over one iteration's samples, the next
        pieces that hold samples_per_step rows, as int64, at the point whose
        masses, as floats in action order, are probs: the part of
        estimate_marginals that depends on y, undivided."""
        totals = np.zeros(len(self.users), dtype=np.int64)
        rows = 0
        while rows < self.samples_per_step:
            accepts, presence, reach = next(pieces)
            present = presence < probs
            seeded = np.zeros((self.n, len(present)), dtype=bool)
            seeded[self.group_users] = np.logical_or.reduceat(
                (present & accepts)[:, self.order], self.group_starts, axis=1
            ).T
            union = _seeded_union(reach, seeded)
            gains = np.bitwise_count(union | reach).sum(axis=1, dtype=np.int64)
            gains -= np.bitwise_count(union).sum(axis=0, dtype=np.int64)
            totals += np.where(accepts & ~present, gains[self.users].T, 0).sum(axis=0)
            rows += len(present)
            del accepts, presence, reach  # so the sampler frees its window before drawing the next
        return totals


def estimate_marginals(
    instance: Instance,
    y: Mapping[Action, float | Fraction],
    config: RelaxationConfig,
    iteration: int = 0,
) -> dict[Action, float]:
    """Monte Carlo estimate of each action's marginal utility at y.

    y's masses may be floats or Fractions (_mass); they are read as floats.

    Samples are keyed in blocks of BLOCK.  Block b draws one row per sample
    on the stream keyed by (rng_seed, iteration, b), a chunk of rows at a
    time (_Sampler.samples): each user's threshold, one uniform per
    uncertain edge (live when below its probability), then one presence
    uniform per action in y's order, so sample s depends only on (rng_seed,
    iteration, s).  Within a sample the same world and the same random base
    set serve every action, so the estimates share their noise.  Each sample
    adds, for every action outside the base set, the realized spread of the
    base set with the action less that of the base set alone.  A user is
    seeded when the best top coupon among their present actions meets their
    threshold; the budget is not consulted.  Attractiveness rows are
    non-decreasing, so an action's gain is zero unless it would newly seed
    its user, and then it is what that user's reach adds to the union of the
    seeded users' reach: one reach-kernel pass per chunk gives every
    sample's union and every user's gain.
    Marginals are therefore non-negative sample by sample; each is an int
    total over the samples divided by their count.  continuous_greedy runs
    the same _Sampler on action indices and hands its LP the totals.
    """
    actions = list(y)
    check_actions(instance, actions)
    if not actions:
        return {}
    sampler = _Sampler(instance, actions, config)
    probs = np.array([float(_mass(a, p)) for a, p in y.items()])
    totals = sampler.totals(probs, sampler.samples(iteration, 1))
    return dict(zip(actions, (totals / sampler.samples_per_step).tolist()))


def action_costs_exact(
    instance: Instance, actions: Iterable[Action], cost_mode: str = COST_MODE_THRESHOLD
) -> dict[Action, Fraction]:
    return {a: exact_expected_cost(instance, a, cost_mode) for a in actions}


# A point of a user's upper hull in integer units: (cost, weight, action
# index or None for the origin, which stands for leaving mass unassigned).
_HullPoint = tuple[int, int, int | None]
# A user's actions by integer cost, as the hull walk reads them: the indices
# of their zero-cost actions, and (cost, indices) for each positive cost,
# costs increasing and indices in action order.
_CostRuns = tuple[list[int], list[tuple[int, list[int]]]]


def _cost_runs(groups: Iterable[list[int]], costs: list[int]) -> list[_CostRuns]:
    """Each group's actions split by cost, for _knapsack_optimum."""
    runs: list[_CostRuns] = []
    for idx in groups:
        positive = sorted((i for i in idx if costs[i] > 0), key=costs.__getitem__)  # stable: action order
        runs.append((
            [i for i in idx if costs[i] == 0],
            [(c, list(run)) for c, run in itertools.groupby(positive, key=costs.__getitem__)],
        ))
    return runs


class _Segment:
    """A hull segment in the walk's order: steeper first, then the user
    (group) who comes first."""

    __slots__ = ("rise", "run", "group", "end")

    def __init__(self, hull: list[_HullPoint], group: int, end: int):
        (c0, w0, _), (c1, w1, _) = hull[end - 1], hull[end]
        self.rise, self.run, self.group, self.end = w1 - w0, c1 - c0, group, end

    def __lt__(self, other: _Segment) -> bool:
        ahead = self.rise * other.run - other.rise * self.run
        return ahead > 0 or (ahead == 0 and self.group < other.group)


def _knapsack_optimum(users: list[_CostRuns], weights: list[int], budget: int) -> dict[int, Fraction]:
    """An optimum of the LP (_ColumnLP) without the W row, as its nonzero
    masses by column index.

    Without W the LP is a multiple-choice knapsack LP: each user picks a point
    in the convex hull of the origin and its actions' (cost, weight) points.
    Walking every user's upper hull, steepest segment first, until the budget
    runs out reaches an optimal vertex in which at most one user is split
    between two hull points (Sinha & Zoltners 1979).  Any optimal vertex
    serves the continuous greedy's guarantee (Calinescu, Chekuri, Pal and
    Vondrak 2011), so on a tie the walk returns its own, by a fixed rule:
    a user's hull starts at their first zero-cost action of highest weight,
    or at the origin when no zero-cost action has positive weight; among
    points of equal cost and weight the lowest action index is kept; a point
    on the segment between two others is dropped, so only extreme hull points
    get mass; and segments of equal slope are taken in the order of their
    users' first actions, so the user who comes first in action order is
    filled first.

    users holds each user's actions split by cost (_cost_runs), users in the
    order of their first actions.  A run of equal cost adds at most its
    highest-weight action to the hull, the lowest index on ties; the others
    cost as much for no more weight.  Each hull comes out in decreasing
    slope, so a heap of every user's next segment yields the segments in the
    walk's order, and the walk stops at the split.  The walk is exact on
    integers: weights, costs and budget come scaled by positive constants
    (sample totals, scaled_integers), which changes no comparison and no
    split fraction.  Slopes are compared by cross-multiplication.
    """
    hulls: list[list[_HullPoint]] = []
    heap: list[_Segment] = []
    for g, (zero, runs) in enumerate(users):
        start: _HullPoint = (0, 0, None)
        for i in zero:
            if weights[i] > start[1]:
                start = (0, weights[i], i)
        hull = [start]
        for c, run in runs:
            i = run[0] if len(run) == 1 else max(run, key=weights.__getitem__)
            w = weights[i]
            if w <= hull[-1][1]:
                continue  # dominated: costs at least as much for no more weight
            while len(hull) > 1:
                (c0, w0, _), (c1, w1, _) = hull[-2:]
                if (w1 - w0) * (c - c1) > (w - w1) * (c1 - c0):
                    break  # the last point stays: slope(-2, -1) > slope(-1, new)
                hull.pop()
            hull.append((c, w, i))
        hulls.append(hull)
        if len(hull) > 1:
            heap.append(_Segment(hull, g, 1))
    heapq.heapify(heap)

    position = [0] * len(users)
    left = budget
    split: tuple[int, int] | None = None  # (group, budget into its next segment)
    while heap:
        segment = heap[0]
        g, end = segment.group, segment.end
        if segment.run > left:
            split = (g, left)
            break
        left -= segment.run
        position[g] = end
        if end + 1 < len(hulls[g]):
            heapq.heapreplace(heap, _Segment(hulls[g], g, end + 1))
        else:
            heapq.heappop(heap)

    x = {hull[k][2]: ONE for hull, k in zip(hulls, position)}
    if split is not None:
        g, used = split
        k = position[g]
        (c0, _, at), (c1, _, to) = hulls[g][k:k + 2]
        x[at] = Fraction(c1 - c0 - used, c1 - c0)
        if used:
            x[to] = Fraction(used, c1 - c0)
    x.pop(None, None)  # the origin: mass left unassigned
    return x


def _lagrangian_optimum(lp: _ColumnLP, weights: list[int], heavy: dict[int, Fraction]) -> dict[int, Fraction]:
    """An optimum of the LP with its W row sum(sizes * x) <= cap, given
    heavy, the hull walk's vertex without it, whose size exceeds cap.

    Pricing the W row at mu leaves the LP without it on the weights
    w - mu*s; each vertex x has the line value(x) - mu * size(x) there, and
    the Lagrangian dual is the upper envelope of these lines (plus mu * cap),
    convex in mu.  The search keeps a heavy vertex (size above cap) and a
    light one (size below; at first the empty vertex) and probes where their
    lines meet, a Newton step on the envelope: one hull walk on the integer
    weights q*w - p*s for mu = p/q.  A probe whose value lies on the two
    lines proves that mu minimizes the dual, and the convex combination of
    the two vertices with size exactly cap is then optimal; a probe above
    the lines replaces the vertex on its side of cap, or is itself optimal
    when its size is cap.  Each probe raises the lower of the two lines'
    meeting value, so no pair comes back and the search ends.  mu stays at
    or above 0, where the heavy vertex's line touches the envelope, so the W
    row is priced with the sign its dual needs.
    """
    light: dict[int, Fraction] = {}
    if lp.cap == 0:
        return light

    def line(x: dict[int, Fraction]) -> tuple[Fraction, Fraction]:
        return sum((weights[i] * v for i, v in x.items()), ZERO), sum((lp.sizes[i] * v for i, v in x.items()), ZERO)

    (hv, hm), (lv, lm) = line(heavy), (ZERO, ZERO)
    while True:
        mu = (hv - lv) / (hm - lm)
        p, q = mu.numerator, mu.denominator
        x = _knapsack_optimum(lp.runs, [q * w - p * s for w, s in zip(weights, lp.sizes)], lp.budget)
        v, m = line(x)
        if v - mu * m == hv - mu * hm:
            break
        if m == lp.cap:
            return x
        if m > lp.cap:
            heavy, hv, hm = x, v, m
        else:
            light, lv, lm = x, v, m
    t = (lp.cap - lm) / (hm - lm)
    z = {i: t * v for i, v in heavy.items()}
    for i, v in light.items():
        z[i] = z.get(i, ZERO) + (1 - t) * v
    return z


def _dependence(effects: list[tuple[int, ...]]) -> dict[int, int] | None:
    """Integer coefficients, by position, of a vanishing combination of the
    first linearly dependent effects, or None when all are independent.

    Fraction-free elimination: each effect is reduced by the independent ones
    before it, and its own coefficient, a product of nonzero pivots, never
    vanishes; coefficients that do are left out.
    """
    basis: list[tuple[int, list[int], dict[int, int]]] = []  # (pivot, reduced effect, combination)
    for j, effect in enumerate(effects):
        vec, comb = list(effect), {j: 1}
        for p, bvec, bcomb in basis:
            if vec[p]:
                f, g = bvec[p], vec[p]
                vec = [f * a - g * b for a, b in zip(vec, bvec)]
                comb = {i: f * comb.get(i, 0) - g * bcomb.get(i, 0) for i in comb.keys() | bcomb.keys()}
        if not any(vec):
            return {i: c for i, c in comb.items() if c}
        basis.append((next(p for p, a in enumerate(vec) if a), vec, comb))
    return None


def _vertex(lp: _ColumnLP, z: dict[int, Fraction]) -> dict[int, Fraction]:
    """A vertex of the LP reached from z, an optimum whose W row is tight,
    along the face of optima.

    z moves only along the directions its support leaves free: a group below
    one unit may change each of its masses, and a group at one unit may move
    mass from its first column in the support to another.  Each such move
    changes the W row (by the columns' sizes) and, when the budget row is
    tight, the budget row by integer amounts.  While the moves' effects on
    those rows are linearly dependent, z steps along the first vanishing
    combination (_dependence, moves by group, in column order), in the
    direction that raises the first move in it, until a mass reaches 0, a
    group reaches one unit, or the budget row becomes tight.  Each step ends
    a move or adds the budget row, so the loop ends, at a point whose free
    moves are independent on at most two rows: at most two moves, and every
    fractional group has one, so at most two groups are fractional.  A step
    along a vanishing combination changes no tight row, and its objective
    change is 0 because z is optimal and may step either way.
    """
    costs, sizes = lp.costs, lp.sizes
    while True:
        cost = sum((costs[i] * v for i, v in z.items()), ZERO)
        moves: list[dict[int, int]] = []
        for idx in lp.groups:
            support = [i for i in idx if i in z]
            if sum((z[i] for i in support), ZERO) == 1:
                moves += [{i: 1, support[0]: -1} for i in support[1:]]
            else:
                moves += [{i: 1} for i in support]
        tight = cost == lp.budget
        effects = [(sum(sizes[i] * s for i, s in d.items()), sum(costs[i] * s for i, s in d.items())) for d in moves]
        comb = _dependence([effect[:1 + tight] for effect in effects])
        if comb is None:
            return z
        sign = 1 if comb[min(comb)] > 0 else -1  # the first move of the combination gains
        direction: dict[int, int] = {}
        for j, coefficient in comb.items():
            for i, s in moves[j].items():
                direction[i] = direction.get(i, 0) + sign * coefficient * s
        bounds = [-z[i] / s for i, s in direction.items() if s < 0]
        for idx in lp.groups:
            rise = sum(direction.get(i, 0) for i in idx)
            if rise > 0:
                bounds.append((1 - sum((z[i] for i in idx if i in z), ZERO)) / rise)
        spend = sum(costs[i] * s for i, s in direction.items())
        if spend > 0 and not tight:
            bounds.append((lp.budget - cost) / spend)
        step = min(bounds)
        for i, s in direction.items():
            z[i] = z.get(i, ZERO) + step * s
            if not z[i]:
                del z[i]


class _ColumnLP:
    """Maximize weights * x, x in [0, 1], with at most one unit per group of
    columns, the budget row costs * x <= budget and, unless cap is None, the
    W row sizes * x <= cap: the direction LP (_direction_lp) and the oracle's
    relaxation optimum.  costs and budget are exact and scaled to ints once,
    with each group's cost runs; sizes are ints, 0 only for a column of
    weight 0, which no walk gives mass; weights come as ints."""

    def __init__(
        self, groups: list[list[int]], costs: list[Fraction], budget: Fraction, sizes: list[int], cap: Fraction | None
    ):
        *self.costs, self.budget = scaled_integers([*costs, budget])
        self.groups = groups
        self.runs = _cost_runs(groups, self.costs)
        self.sizes = sizes
        self.cap = cap

    def solve(self, weights: list[int]) -> dict[int, Fraction]:
        """An exact optimum for these integer weights, as its nonzero masses
        by column index: the hull walk's vertex when the W row is absent or
        that vertex meets it, else the vertex _vertex reaches from
        _lagrangian_optimum's combination of two walk vertices."""
        x = _knapsack_optimum(self.runs, weights, self.budget)
        if self.cap is None or sum((self.sizes[i] * v for i, v in x.items()), ZERO) <= self.cap:
            return x
        return _vertex(self, _lagrangian_optimum(self, weights, x))


def _direction_lp(
    instance: Instance, actions: list[Action], beta: float, use_W: bool, costs: Mapping[Action, Fraction]
) -> _ColumnLP:
    """The direction LP over the actions: one group per user, every size 1,
    the budget beta*B and the cap beta*W, or none without use_W."""
    if use_W and instance.W is None:
        raise ValueError("extended mode requires an instance with W set")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")
    scale = Fraction(beta)
    cap = scale * Fraction(instance.W) if use_W else None
    groups = list(user_groups(actions).values())
    return _ColumnLP(groups, [costs[a] for a in actions], scale * Fraction(instance.B), [1] * len(actions), cap)


def solve_lp(
    weights: Mapping[Action, float | Fraction],
    instance: Instance,
    beta: float,
    use_W: bool = False,
    cost_mode: str = COST_MODE_THRESHOLD,
    costs: Mapping[Action, Fraction] | None = None,
) -> dict[Action, Fraction]:
    """Exact optimum of the direction-finding LP.

    Maximizes sum(weights * y) subject to: per-user mass at most 1, expected
    cost at most beta*B, every coordinate in [0, 1], and (when use_W is set)
    total mass at most beta*W.  The solution is returned as exact rationals.
    costs, when given, holds every action's exact expected cost under
    cost_mode; otherwise it is built here.

    The LP is solved on integers by _ColumnLP.solve, without a simplex, and
    each tie goes by a fixed rule.  The weights, ints, Fractions or floats,
    are read exactly (scaled_integers): Fractions that tie are a tie.  The
    result is the hull walk's vertex, with at most one user split, or, when
    the W row binds, a vertex with at most two users fractional.
    continuous_greedy builds the same LP once (_direction_lp) and solves it
    on every step's totals.
    """
    actions = list(weights)
    check_actions(instance, actions)
    for a, w in weights.items():
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight for {a}")
    if costs is None:
        costs = action_costs_exact(instance, actions, cost_mode)
    lp = _direction_lp(instance, actions, beta, use_W, costs)
    x = dict.fromkeys(actions, ZERO)
    for j, v in lp.solve(scaled_integers(weights.values())).items():
        x[actions[j]] = v
    return x


def continuous_greedy(
    instance: Instance,
    config: RelaxationConfig,
    use_W: bool = False,
    on_step: Callable[[float, dict[Action, Fraction]], None] | None = None,
) -> dict[Action, Fraction]:
    """Measured continuous greedy over the scaled feasible region.

    Runs ceil(1/delta) rounds, and refuses with ValueError, before drawing
    anything, when their work passes influence.MAX_KERNEL_WORK word
    operations (influence._admit): per round, each marginal sample's kernel
    columns (influence._kernel_rows, one seed set per user) and gains, a word
    per action, and the LP and the round's own work, measured at about 64
    words per action and 4,096 per round.  Round i takes the marginals
    at the current point, as the int sample totals of estimate_marginals at
    iteration i, solves the LP exactly on them, by solve_lp's tie rule (the
    hull walk's vertex when W is unused or slack, else the vertex reached
    from the combination of two walk vertices), and advances by the step
    size along the direction's nonzero entries, a few per round.  on_step
    receives (t, y) after each round, y as a dict of its own.

    The rounds run on action indices: y is a list of integer numerators in
    action order over one common denominator, which grows only when a step's
    own denominator does not divide it, with a float copy for the marginals,
    updated only where y moves; Fractions are built only for on_step and the
    result.  Every part of the marginals and the LP that does not depend on
    y is built once (_Sampler, _direction_lp).  The samples do not depend on
    y either, so they come a window of rows, which may span rounds, at a
    time.  The result is a convex combination of exactly feasible LP
    vertices, so it satisfies the scaled constraints exactly (the output
    stays rational end to end).
    """
    actions = build_action_space(instance)
    if not actions:
        raise ValueError("action space is empty; the fractional route has nothing to probe")
    beta = config.resolved_beta(use_W)
    delta = Fraction(config.resolved_delta(len(actions)))
    steps = math.ceil(1 / delta)
    per_sample = influence._kernel_rows(instance.graph, instance.n_users)[0] + len(actions)
    lp_work = 64 * (len(actions) + 64)
    _admit(steps * (config.marginal_samples * per_sample + lp_work), influence.MAX_KERNEL_WORK, "the continuous greedy",
           "word operations", f"{steps} steps at delta = {float(delta)!r}, each {config.marginal_samples} samples x "
           f"{per_sample} + {lp_work} for the LP over |S| = {len(actions)} actions; a larger delta (--delta) takes "
           "fewer steps")
    lp = _direction_lp(instance, actions, beta, use_W, action_costs_exact(instance, actions, config.cost_mode))
    sampler = _Sampler(instance, actions, config)
    nums = [0] * len(actions)  # y times den
    den = 1
    probs = np.zeros(len(actions))  # y as floats, for the marginals
    last = 1 - (steps - 1) * delta  # every step but the last is delta
    pieces = sampler.samples(0, steps)
    for i in range(steps):
        direction = lp.solve(sampler.totals(probs, pieces).tolist())
        step = delta if i < steps - 1 else last
        for j, d in direction.items():
            num, dem = step.numerator * d.numerator, step.denominator * d.denominator
            common = math.gcd(num, dem)
            num, dem = num // common, dem // common
            if den % dem:
                scale = dem // math.gcd(den, dem)
                den *= scale
                nums = [v * scale for v in nums]
            nums[j] += num * (den // dem)
            probs[j] = nums[j] / den  # correctly rounded, as float(Fraction) is
        if on_step is not None:
            on_step(float(min(delta * (i + 1), ONE)), _point(actions, nums, den))
    result = _point(actions, nums, den)
    check_fractional(result)
    return result


def _point(actions: list[Action], nums: list[int], den: int) -> dict[Action, Fraction]:
    return {a: Fraction(num, den) for a, num in zip(actions, nums)}
