"""Shared instance builders and tiny exact oracles for the test suite."""
from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple
from unittest import mock

import numpy as np

from couponprobe import influence, rounding, simplex
from couponprobe.influence import (
    BLOCK,
    Graph,
    _seed_list,
    influence_exact,
)
from couponprobe.model import (
    COST_MODE_THRESHOLD,
    Action,
    Instance,
    Steps,
    build_action_space,
    exact_expected_cost,
)
from couponprobe.oracle import OracleSizeError, _profile_columns, _spread_table, conditional_accept
from couponprobe.relaxation import (
    RelaxationConfig,
    action_costs_exact,
    check_fractional,
    estimate_marginals,
    solve_lp,
)
from couponprobe.rounding import ROUNDING_DRAWS, Alg1Policy
from couponprobe.sequencing import (
    Alg2Policy,
    PolicyEvaluation,
    StochCpPolicy,
    first_accept_value,
)


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


def edgeless(n: int) -> Graph:
    return Graph(node_count=n, edges=())


def mixed_graph() -> Graph:
    # forced, dead and ten uncertain edges, interleaved in edge order
    return Graph(node_count=7, edges=(
        (0, 1, 1.0), (0, 2, 0.3), (1, 2, 0.0), (1, 3, 0.6), (2, 3, 0.5),
        (2, 4, 1.0), (3, 4, 0.2), (3, 5, 0.0), (4, 5, 0.7), (4, 6, 0.4),
        (5, 6, 1.0), (5, 0, 0.5), (6, 1, 0.8), (6, 3, 0.1), (1, 5, 0.45),
    ))


def sim16_shaped_graph() -> Graph:
    # 16 nodes, 3 forced and 15 uncertain edges, like the sim16 benchmark
    gen = np.random.default_rng(16)
    pairs = [(u, v) for u in range(16) for v in range(16) if u != v]
    picks = gen.choice(len(pairs), size=18, replace=False)
    edges = [(*pairs[k], 1.0 if n < 3 else round(float(gen.uniform(0.1, 0.7)), 3))
             for n, k in enumerate(picks)]
    return Graph(node_count=16, edges=tuple(edges))


def wide_graph() -> Graph:
    # 130 nodes, so each reach spans three 64-bit words; uncertain edges
    # cross the word boundaries at 63/64 and 127/128
    edges = [(i, i + 1, 1.0) for i in range(0, 129, 2)]
    edges += [(63, 64, 0.5), (127, 128, 0.3), (1, 2, 0.6), (64, 0, 0.25), (5, 100, 0.9),
              (100, 127, 0.4), (129, 7, 0.7), (66, 65, 0.0), (128, 3, 0.35)]
    return Graph(node_count=130, edges=tuple(edges))


# ------------------------------------------------------ one world at a time
#
# The package simulates worlds only in blocks.  These are the per-world forms
# that tests hold the block code against.


@dataclass(frozen=True)
class World:
    """A fully resolved random state: one threshold per user plus the live
    edges of the cascade, as an int mask (bit i set when edge i is live)."""

    thresholds: tuple[float, ...]
    live_mask: int


def forced_live_mask(graph: Graph) -> int:
    return sum(1 << i for i, (_, _, p) in enumerate(graph.edges) if p == 1.0)


def live_mask_outcomes(graph: Graph) -> Iterator[tuple[float, int]]:
    """Every live-edge realization as (probability, mask), one per subset of
    the uncertain edges.

    There are 2^len(graph.uncertain_edges) outcomes; callers bound that count
    before iterating.
    """
    unc = graph.uncertain_edges
    probs = [graph.edges[i][2] for i in unc]
    base = forced_live_mask(graph)
    for combo in range(1 << len(unc)):
        weight = 1.0
        mask = base
        for j, i in enumerate(unc):
            if combo >> j & 1:
                weight *= probs[j]
                mask |= 1 << i
            else:
                weight *= 1.0 - probs[j]
        yield weight, mask


@functools.lru_cache(maxsize=None)
def _out_edges(graph: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node, its out-edges as (edge index, target) pairs."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(graph.node_count)]
    for i, (u, v, _) in enumerate(graph.edges):
        out[u].append((i, v))
    return tuple(tuple(row) for row in out)


def _reach_mask(graph: Graph, seed_ids: list[int], live_mask: int) -> int:
    """Bitmask of the nodes reached from the seeds through the live edges."""
    seen = 0
    for s in seed_ids:
        seen |= 1 << s
    stack = list(seed_ids)
    out_edges = _out_edges(graph)
    while stack:
        for i, v in out_edges[stack.pop()]:
            if live_mask >> i & 1 and not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
    return seen


def realized_influence(graph: Graph, seeds: Iterable[int], live_mask: int) -> int:
    """Number of nodes reached from the seeds through one live-edge realization.

    Bit i of live_mask is set when edge i is live.  The search starts from
    the seeds alone.
    """
    return _reach_mask(graph, _seed_list(graph, seeds), live_mask).bit_count()


def realize(instance: Instance, world: World, user: int, coupon_index: int) -> bool:
    """Whether the user accepts this coupon in this world."""
    return instance.attractiveness[user][coupon_index] >= world.thresholds[user]


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
    for i in action.coupons:
        value = instance.coupons[i]
        accepted = realize(instance, world, action.user, i)
        steps.append(ProbeStep(action.user, value, accepted))
        if accepted:
            return value, steps
    return None, steps


def action_set_utility(instance: Instance, actions: Iterable[Action], world: World) -> int:
    """Realized spread when the given actions are all probed in one world.

    A user seeds iff their threshold is met by the best coupon any of their
    actions would offer; the budget is deliberately not consulted here.
    """
    best: dict[int, int] = {}
    for action in actions:
        top = action.coupons[-1]
        if best.get(action.user, -1) < top:
            best[action.user] = top
    seeds = [v for v, idx in best.items() if realize(instance, world, v, idx)]
    if not seeds:
        return 0
    return realized_influence(instance.graph, seeds, world.live_mask)


MAX_ENUM_EDGES = 12
MAX_WORLD_CELLS = 2_000_000


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


def alg2_execute(instance: Instance, order: tuple[int, ...], world: World) -> PolicyTrace:
    """Offer the largest coupon to the users in order in a world, stopping at
    (and seeding) the first accept."""
    ci = instance.c_max_index
    value = instance.coupons[ci]
    if value > instance.B:
        raise ValueError(f"coupon value {value} exceeds the budget {instance.B}")
    if instance.K < 1:
        raise ValueError("probing requires K >= 1")
    trace = PolicyTrace()
    budget = instance.B
    for v in order:
        accepted = realize(instance, world, v, ci)
        trace.steps.append(ProbeStep(v, value, accepted))
        if accepted:
            budget -= value
            trace.budget_after.append(budget)
            trace.seeds = frozenset([v])
            return trace
        trace.budget_after.append(budget)
    return trace


def act(user: int, *indices: int) -> Action:
    """The action that offers the user the coupons at these indices."""
    return Action(user=user, coupons=indices)


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


def _random_edges(gen: np.random.Generator, n: int, count: int, lo: float, hi: float):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    picks = gen.choice(len(pairs), size=count, replace=False)
    return tuple((*pairs[k], round(float(gen.uniform(lo, hi)), 3)) for k in picks)


def relax48_shaped(seed: int, W: int | None = None) -> Instance:
    # like the relax48 benchmark: 8 users x (3 singles + 3 pairs of the low
    # coupons 1, 2, 3) = 48 actions, 10 edges, B = 7
    gen = np.random.default_rng(seed)
    edges = _random_edges(gen, 8, 10, 0.1, 0.6)
    rows = tuple(sorted_row(gen, 4) for _ in range(8))
    return Instance(Graph(8, edges), (1.0, 2.0, 3.0, 6.0), rows, K=2, B=7.0, W=W)


def forty_users() -> Instance:
    # 40 users over 80 edges with 8 coupons, of which the 4 up to B/2 are
    # low-value, K = 1: 160 actions, each sample or world a few KB of draws
    gen = np.random.default_rng(40)
    edges = _random_edges(gen, 40, 80, 0.05, 0.3)
    rows = tuple(sorted_row(gen, 8) for _ in range(40))
    return Instance(Graph(40, edges), tuple(float(c) for c in range(1, 9)), rows, K=1, B=8.0)


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """call()'s result and the peak bytes tracemalloc saw while it ran;
    tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle4_shaped(seed: int, W: int = 2, users: int = 4) -> Instance:
    # like the oracle4 benchmark: 4 users and 4 edges, low coupons 1 and 2,
    # alg2's 4, K = W = 2; other user counts keep one edge per user
    gen = np.random.default_rng(seed)
    edges = _random_edges(gen, users, users, 0.2, 0.8)
    rows = tuple(sorted_row(gen, 3) for _ in range(users))
    return Instance(Graph(users, edges), (1.0, 2.0, 4.0), rows, K=2, B=4.0, W=W)


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


def guarantee(beta: float, extended: bool) -> float:
    """The combined policy's ratio to the adaptive optimum: (1 - 1/e) *
    (1 - beta)^k * (1 - 2*beta) * beta / 2, with k = 2 once the cap on
    distinct users is in force."""
    shrink = (1.0 - beta) ** (2 if extended else 1)
    return (1.0 - 1.0 / math.e) * shrink * (1.0 - 2.0 * beta) * beta / 2.0


def threshold_cost(inst, action) -> Fraction:
    """Expected spend of one action, exact, threshold-consistent accounting."""
    prev = Fraction(0)
    total = Fraction(0)
    for idx in action.coupons:
        p = Fraction(inst.attractiveness[action.user][idx])
        total += (p - prev) * Fraction(inst.coupons[idx])
        prev = p
    return total


def paper_cost(inst, action) -> Fraction:
    """Expected spend of one action, exact, compounding independent rejections."""
    alive = Fraction(1)
    total = Fraction(0)
    for idx in action.coupons:
        p = Fraction(inst.attractiveness[action.user][idx])
        total += alive * p * Fraction(inst.coupons[idx])
        alive *= 1 - p
    return total


def mirror_lp(inst, weights, beta, use_W=False, cost_mode=COST_MODE_THRESHOLD):
    """Rebuild the direction-finding LP rows the way the package does."""
    cost = threshold_cost if cost_mode == COST_MODE_THRESHOLD else paper_cost
    actions = sorted(weights)
    obj = [Fraction(float(weights[a])) for a in actions]
    lhs, rhs = [], []
    for user in sorted({a.user for a in actions}):
        lhs.append([Fraction(1 if a.user == user else 0) for a in actions])
        rhs.append(Fraction(1))
    lhs.append([cost(inst, a) for a in actions])
    rhs.append(Fraction(beta) * Fraction(inst.B))
    if use_W:
        lhs.append([Fraction(1)] * len(actions))
        rhs.append(Fraction(beta) * Fraction(inst.W))
    return actions, obj, lhs, rhs


def knapsack_optimum_by_fractions(actions, weights, costs, budget):
    """Reference for relaxation._knapsack_optimum: the same hull walk and tie
    rule on Fractions, with slopes as Fractions.  weights, costs and budget
    are Fractions in the LP's own units."""
    def slope(p, q):
        return (q[1] - p[1]) / (q[0] - p[0])

    zero, one = Fraction(0), Fraction(1)
    by_user: dict[int, list[int]] = {}
    for i, a in enumerate(actions):
        by_user.setdefault(a.user, []).append(i)
    hulls = {}
    segments = []  # (slope, user, hull position)
    for user, idx in by_user.items():
        start = (zero, zero, None)
        for i in idx:
            if costs[i] == 0 and weights[i] > start[1]:
                start = (zero, weights[i], i)
        hull = [start]
        for i in sorted((i for i in idx if costs[i] > 0), key=lambda i: (costs[i], -weights[i])):
            point = (costs[i], weights[i], i)
            if point[1] <= hull[-1][1]:
                continue
            while len(hull) > 1 and slope(hull[-2], hull[-1]) <= slope(hull[-1], point):
                hull.pop()
            hull.append(point)
        hulls[user] = hull
        segments.extend((slope(p, q), user, k) for k, (p, q) in enumerate(itertools.pairwise(hull)))
    segments.sort(key=lambda seg: seg[0], reverse=True)
    position = dict.fromkeys(hulls, 0)
    left, split = budget, None
    for _, user, k in segments:
        step = hulls[user][k + 1][0] - hulls[user][k][0]
        if step > left:
            split = (user, left / step)
            break
        left -= step
        position[user] = k + 1
    x = [zero] * len(actions)
    for user, k in position.items():
        at = hulls[user][k][2]
        if at is not None:
            x[at] = one
    if split is not None:
        user, theta = split
        k = position[user]
        at, to = hulls[user][k][2], hulls[user][k + 1][2]
        if at is not None:
            x[at] = one - theta
        x[to] = theta
    return x


def marginals_by_utility(
    instance: Instance, y, config: RelaxationConfig, iteration: int = 0
) -> dict[Action, float]:
    """Reference for relaxation.estimate_marginals: one action_set_utility
    call per action and sample, one sample at a time.

    Sample s is row s % BLOCK of block s // BLOCK's draws from the stream
    keyed by (rng_seed, iteration, block): the user thresholds and one
    uniform per uncertain edge, as row_world reads them, then one presence
    uniform per action in y's order.
    """
    actions = list(y)
    probs = [float(p) for p in y.values()]
    graph = instance.graph
    skip = instance.n_users + len(graph.uncertain_edges)
    totals = [0.0] * len(actions)
    samples = config.marginal_samples
    for b, start in enumerate(range(0, samples, BLOCK)):
        shape = (min(BLOCK, samples - start), skip + len(actions))
        for row in np.random.default_rng([config.rng_seed, iteration, b]).random(shape).tolist():
            world = row_world(instance, row)
            draws = row[skip:]
            base = [a for a, u, p in zip(actions, draws, probs) if u < p]
            base_value = action_set_utility(instance, base, world)
            for i, action in enumerate(actions):
                if draws[i] < probs[i]:
                    continue  # already present: zero marginal this sample
                totals[i] += action_set_utility(instance, base + [action], world) - base_value
    return {a: totals[i] / samples for i, a in enumerate(actions)}


def continuous_greedy_by_dicts(
    instance: Instance,
    config: RelaxationConfig,
    use_W: bool = False,
    on_step: Callable[[float, dict[Action, Fraction]], None] | None = None,
) -> dict[Action, Fraction]:
    """Reference for relaxation.continuous_greedy: the greedy on dicts keyed
    by Action, one estimate_marginals and one solve_lp call per step, with t
    advanced by t += step.  solve_lp gets each estimate as the exact
    Fraction(total, samples) it rounds, its sample total recovered by
    round(m * samples).

    Runs ceil(1/delta) rounds; each round estimates marginals at the current
    point, solves the LP exactly, and advances by the step size along the
    direction's nonzero entries, a few per round.  on_step receives (t, y)
    after each round, y as a dict of its own that later rounds leave alone.
    Every action's exact cost is computed once, and the marginals read a
    float copy of y that is updated only where y moves.  The result is a convex combination of exactly feasible LP
    vertices, so it satisfies the scaled constraints exactly (the output
    stays rational end to end).
    """
    actions = build_action_space(instance)
    if not actions:
        raise ValueError("action space is empty; the fractional route has nothing to probe")
    beta = config.resolved_beta(use_W)
    delta = Fraction(config.resolved_delta(len(actions)))
    costs = action_costs_exact(instance, actions, config.cost_mode)
    samples = config.marginal_samples
    y = {a: Fraction(0) for a in actions}
    probs = dict.fromkeys(actions, 0.0)  # y as floats, for the marginals
    t = Fraction(0)
    iteration = 0
    while t < 1:
        step = min(delta, 1 - t)
        omega = estimate_marginals(instance, probs, config, iteration=iteration)
        exact = {a: Fraction(round(m * samples), samples) for a, m in omega.items()}
        direction = solve_lp(
            exact, instance, beta, use_W=use_W, cost_mode=config.cost_mode, costs=costs
        )
        y = dict(y)  # a fresh snapshot for on_step
        for a, d in direction.items():
            if d:
                y[a] += step * d
                probs[a] = float(y[a])
        t += step
        iteration += 1
        if on_step is not None:
            on_step(float(t), y)
    check_fractional(y)
    return y


def row_world(instance: Instance, row: list[float]) -> World:
    """The world of one row of block draws: the first n_users entries are
    the thresholds, the next one per uncertain edge, which makes the edge
    live when below its probability."""
    graph = instance.graph
    n = instance.n_users
    mask = forced_live_mask(graph)
    for j, i in enumerate(graph.uncertain_edges):
        if row[n + j] < graph.edges[i][2]:
            mask |= 1 << i
    return World(tuple(row[:n]), mask)


def reach_masks(graph: Graph, live_mask: int) -> tuple[int, ...]:
    """Per-node bitmask of the nodes reachable through the given live edges,
    one search per node."""
    return tuple(_reach_mask(graph, [start], live_mask) for start in range(graph.node_count))


def exact_spreads_by_mask(graph: Graph, seed_sets) -> list[float]:
    """Reference for the exact spread kernel: one reach_masks call per live
    mask, summed as `total += weight * reached` in live_mask_outcomes order."""
    totals = [0.0] * len(seed_sets)
    for weight, mask in live_mask_outcomes(graph):
        reach = reach_masks(graph, mask)
        for k, seeds in enumerate(seed_sets):
            union = 0
            for s in seeds:
                union |= reach[s]
            totals[k] += weight * union.bit_count()
    return totals


def subset_value_table(instance: Instance, actions: list[Action]) -> list[Fraction]:
    """Exact value of every action subset, indexed by subset bitmask: each
    probed user seeds with the acceptance of their largest offered coupon,
    summed over every seed subset with influence_exact per mask."""
    spread: dict[int, Fraction] = {0: Fraction(0)}
    table = []
    for sub in range(1 << len(actions)):
        best: dict[int, int] = {}
        for i, action in enumerate(actions):
            if sub >> i & 1:
                best[action.user] = max(best.get(action.user, -1), action.coupons[-1])
        users = sorted(best)
        total = Fraction(0)
        for seeded in range(1 << len(users)):
            weight = Fraction(1)
            mask = 0
            for pos, v in enumerate(users):
                q = Fraction(instance.attractiveness[v][best[v]])
                if seeded >> pos & 1:
                    weight *= q
                    mask |= 1 << v
                else:
                    weight *= 1 - q
            if weight:
                if mask not in spread:
                    seeds = [v for v in users if mask >> v & 1]
                    spread[mask] = Fraction(influence_exact(instance.graph, seeds))
                total += weight * spread[mask]
        table.append(total)
    return table


def concave_extension_by_subsets(instance: Instance, y) -> Fraction:
    """Reference for oracle.concave_extension_exact: the LP over all 2^|S|
    action subsets, each action's inclusion capped by y."""
    actions = list(y)
    table = subset_value_table(instance, actions)
    lhs = [[Fraction(1)] * len(table)]
    for i in range(len(actions)):
        lhs.append([Fraction(mask >> i & 1) for mask in range(len(table))])
    value, _ = simplex.maximize(table, lhs, [Fraction(1)] + [Fraction(y[a]) for a in actions])
    return value


def multilinear_by_subsets(instance: Instance, y) -> Fraction:
    """Reference for oracle.multilinear_value_exact: every action subset's
    value weighted by its probability under independent rounding."""
    actions = list(y)
    table = subset_value_table(instance, actions)
    total = Fraction(0)
    for mask, value in enumerate(table):
        weight = Fraction(1)
        for i, action in enumerate(actions):
            p = Fraction(y[action])
            weight *= p if mask >> i & 1 else 1 - p
        total += weight * value
    return total


def multilinear_by_user_subsets(instance: Instance, y) -> Fraction:
    """Reference for oracle.multilinear_value_exact where 2^|S| subsets are
    too many: each user seeds with the acceptance of the largest top coupon
    among their own rounded actions, summed over that user's action subsets,
    and every seed mask's spread, by exact_spreads_by_mask, is weighted by
    its probability under those independent seedings."""
    actions = list(y)
    accept: dict[int, Fraction] = {}
    for user in sorted({a.user for a in actions}):
        own = [a for a in actions if a.user == user]
        q = Fraction(0)
        for picks in itertools.product((False, True), repeat=len(own)):
            weight = Fraction(1)
            for a, pick in zip(own, picks):
                weight *= Fraction(y[a]) if pick else 1 - Fraction(y[a])
            tops = [a.coupons[-1] for a, pick in zip(own, picks) if pick]
            if tops:
                q += weight * Fraction(instance.attractiveness[user][max(tops)])
        accept[user] = q
    users = list(accept)
    seed_sets = [[v for k, v in enumerate(users) if m >> k & 1] for m in range(1 << len(users))]
    total = Fraction(0)
    for seeds, spread in zip(seed_sets, exact_spreads_by_mask(instance.graph, seed_sets)):
        weight = Fraction(1)
        for v in users:
            weight *= accept[v] if v in seeds else 1 - accept[v]
        total += weight * Fraction(spread)
    return total


def _seeding_value(spread: Mapping[int, float], accept: Mapping[int, Fraction]) -> Fraction:
    """Exact expected spread when each user v in accept seeds, independently,
    with probability accept[v]: the way the oracle values actions, which
    _profile_columns computes one user at a time."""
    weights = {0: Fraction(1)}  # seed mask -> probability
    for v, q in accept.items():
        seeded = {mask | 1 << v: w * q for mask, w in weights.items()}
        weights = {mask: w * (1 - q) for mask, w in weights.items()}
        weights.update(seeded)
    return sum((w * Fraction(spread[mask]) for mask, w in weights.items() if w), Fraction(0))


def relaxation_optimum_by_subsets(instance: Instance, use_W: bool = False) -> Fraction:
    """Reference for oracle.concave_relaxation_optimum: the LP over all 2^|S|
    action subsets with one row per user, the budget row and the W row."""
    actions = build_action_space(instance)
    table = subset_value_table(instance, actions)
    masks = range(len(table))
    lhs = [[Fraction(1)] * len(table)]
    rhs = [Fraction(1)]
    for user in sorted({a.user for a in actions}):
        idx = [i for i, a in enumerate(actions) if a.user == user]
        lhs.append([Fraction(sum(mask >> i & 1 for i in idx)) for mask in masks])
        rhs.append(Fraction(1))
    costs = [exact_expected_cost(instance, a) for a in actions]
    lhs.append([sum((c for i, c in enumerate(costs) if mask >> i & 1), Fraction(0)) for mask in masks])
    rhs.append(Fraction(instance.B))
    if use_W:
        lhs.append([Fraction(mask.bit_count()) for mask in masks])
        rhs.append(Fraction(instance.W))
    value, _ = simplex.maximize(table, lhs, rhs)
    return value


def relaxation_optimum_by_simplex(instance: Instance, use_W: bool = False) -> Fraction:
    """Reference for oracle.concave_relaxation_optimum: the same LP over
    action profiles, with the total-mass, budget and W rows, as a dense
    tableau for the rational simplex."""
    if use_W and instance.W is None:
        raise ValueError("extended mode requires an instance with W set")
    actions = build_action_space(instance)
    profiles, values = _profile_columns(instance, actions)
    costs = [exact_expected_cost(instance, a) for a in actions]
    lhs = [
        [Fraction(1)] * len(profiles),
        [sum((costs[i] for i in p), Fraction(0)) for p in profiles],
    ]
    rhs = [Fraction(1), Fraction(instance.B)]
    if use_W:
        lhs.append([Fraction(len(p)) for p in profiles])
        rhs.append(Fraction(instance.W))
    value, _ = simplex.maximize(values, lhs, rhs)
    return value


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


@dataclass(frozen=True)
class PolicyState:
    """Adaptive-policy knowledge: per user (offers made, largest rejected
    coupon index or -1, accepted coupon index or -1), plus who was probed last
    (-1 when irrelevant)."""

    users: tuple[tuple[int, int, int], ...]
    last_probed: int = -1


def optimal_adaptive_value_by_states(
    instance: Instance, restricted: bool = False, use_W: bool = False
) -> float:
    """Reference for oracle.optimal_adaptive_value: the same backward
    induction over one state per offer history, with Fraction budgets."""
    n = instance.n_users
    coupon_cost = [Fraction(c) for c in instance.coupons]
    budget = Fraction(instance.B)
    spread = _spread_table(instance, range(n))()
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
        value = spread[accepted_mask]  # stopping is always allowed
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

    return best(PolicyState(tuple((0, -1, -1) for _ in range(n))))


def block_worlds(instance: Instance, worlds: int, rng_seed: int) -> list[World]:
    """Reference for evaluate_policy's world stream, one world at a time.

    World i is row i % BLOCK of block i // BLOCK's draws from the stream
    keyed by (rng_seed, block, 0): the user thresholds, then one uniform per
    uncertain edge, which makes the edge live when below its probability.
    """
    graph = instance.graph
    n = instance.n_users
    out = []
    for b, start in enumerate(range(0, worlds, BLOCK)):
        shape = (min(BLOCK, worlds - start), n + len(graph.uncertain_edges))
        rows = np.random.default_rng([rng_seed, b, 0]).random(shape).tolist()
        out += [row_world(instance, row) for row in rows]
    return out


def rounding_draws(policy, worlds: int, rng_seed: int) -> list[list[list[float]]]:
    """Reference for evaluate_policy's alg1 stream: world i's ROUNDING_DRAWS
    rows of one uniform per action are row i % BLOCK of block i // BLOCK's
    draws from the stream keyed by (rng_seed, block, 1), one call per block."""
    out = []
    for b, start in enumerate(range(0, worlds, BLOCK)):
        shape = (min(BLOCK, worlds - start), ROUNDING_DRAWS, len(policy.fractional))
        out += np.random.default_rng([rng_seed, b, 1]).random(shape).tolist()
    return out


def planned(inst, y, extended=False) -> Alg1Policy:
    """An Alg1Policy that rounds y, given over build_action_space(inst) in
    its order, in place of the continuous greedy's plan."""
    with mock.patch.object(rounding, "continuous_greedy", lambda *args, **kwargs: y):
        return Alg1Policy(inst, RelaxationConfig(), extended=extended)


def run_blocks(policy: Alg1Policy, worlds: int, seed: int):
    """run_block over `worlds` fresh worlds, as many at a time as keep their
    rounding draws within influence.KERNEL_BYTES, every draw from one
    generator keyed by seed: per call its present actions, survivors and
    Steps."""
    n, m = policy.instance.n_users, len(policy.fractional)
    step = max(1, influence.KERNEL_BYTES // (8 * ROUNDING_DRAWS * m))
    gen = np.random.default_rng(seed)
    for start in range(0, worlds, step):
        rows = min(step, worlds - start)
        thresholds = gen.random((rows, n))
        uniforms = gen.random((rows, ROUNDING_DRAWS, m))
        yield policy.run_block(thresholds, uniforms)


def seeded_by(steps: Steps, n: int) -> np.ndarray:
    """The (n, rows) seed matrix of a block's Steps: each row's accepting users."""
    seeded = np.zeros((n, len(steps.user)), dtype=bool)
    won = steps.accepted
    seeded[steps.user[won], np.nonzero(won)[0]] = True
    return seeded


def alg1_trace(policy, world: World, draws) -> PolicyTrace:
    """Reference for Alg1Policy.run_block, one world in plain Python: the
    present actions (presence uniform below y), each user's one with the
    smallest contention key, in two-matroid mode only those among the W
    smallest W keys of all present actions, then probe_user in ascending
    order key while at least half the budget is left.  Ties go to the lower
    action index, as the stable sorts give it.  A vacuous policy probes
    nobody."""
    if policy.vacuous:
        return PolicyTrace()
    instance = policy.instance
    presence, contend, w_keys, order_keys = draws
    actions = list(policy.fractional)
    raw = [i for i, a in enumerate(actions) if presence[i] < policy.fractional[a]]
    winners: dict[int, int] = {}
    for i in raw:
        user = actions[i].user
        if user not in winners or contend[i] < contend[winners[user]]:
            winners[user] = i
    chosen = set(winners.values())
    if policy.extended:
        chosen &= set(sorted(raw, key=lambda i: w_keys[i])[:instance.W])
    trace = PolicyTrace()
    budget = instance.B
    seeds = set()
    for i in sorted(sorted(chosen), key=lambda i: order_keys[i]):
        if budget < instance.B / 2.0:
            continue
        value, steps = probe_user(instance, world, actions[i], budget)
        for step in steps:
            if step.accepted:
                budget -= step.coupon_value
            trace.steps.append(step)
            trace.budget_after.append(budget)
        if value is not None:
            seeds.add(actions[i].user)
    trace.seeds = frozenset(seeds)
    return trace


def steps_trace(instance: Instance, steps: Steps, seeded, r: int) -> PolicyTrace:
    """The PolicyTrace that row r of a block's Steps reads as, with the seeds
    of column r of the (n, rows) seed matrix."""
    trace = PolicyTrace(seeds=frozenset(np.flatnonzero(seeded[:, r]).tolist()))
    ledger = instance.B
    for p in range(steps.user.shape[1]):
        offered = [int(c) for c in steps.offers[r, p] if c >= 0]
        before, ledger = ledger, ledger - steps.spend[r, p]
        for j, c in enumerate(offered):
            last = j == len(offered) - 1
            accepted = last and bool(steps.accepted[r, p])
            trace.steps.append(ProbeStep(int(steps.user[r, p]), instance.coupons[c], accepted))
            trace.budget_after.append(ledger if last else before)
    return trace


def evaluate_world_by_world(
    instance: Instance, policy, worlds: int, rng_seed: int, check=check_trace
) -> tuple[list[int], PolicyEvaluation]:
    """Reference for evaluate_policy: the same worlds and policy streams,
    each world run through alg2_execute or alg1_trace, realized_influence
    and check, and summed as `total += value`.

    Returns every world's spread and the evaluation.  stoch-cp's coin for
    world i is row i % BLOCK of its block's draws keyed by (rng_seed, block,
    2), and alg1 worlds read their rounding_draws.
    """
    coins: list[float] = []
    for b, start in enumerate(range(0, worlds, BLOCK)):
        coins += np.random.default_rng([rng_seed, b, 2]).random(min(BLOCK, worlds - start)).tolist()
    alg1 = policy.branch_alg1 if isinstance(policy, StochCpPolicy) else policy
    if isinstance(alg1, Alg1Policy) and not alg1.vacuous:
        draws = rounding_draws(alg1, worlds, rng_seed)
    values: list[int] = []
    total = total_sq = 0.0
    violations = 0
    branch_counts: dict[str, int] = {}
    for i, world in enumerate(block_worlds(instance, worlds, rng_seed)):
        note = None
        if isinstance(policy, StochCpPolicy):
            if coins[i] < policy.alg1_weight:
                trace, note = alg1_trace(alg1, world, draws[i]), "alg1"
            else:
                trace, note = alg2_execute(instance, policy.branch_alg2.order, world), "alg2"
        elif isinstance(policy, Alg2Policy):
            trace = alg2_execute(instance, policy.order, world)
        else:
            trace = alg1_trace(policy, world, None if policy.vacuous else draws[i])
            note = "alg1-vacuous" if policy.vacuous else None
        value = realized_influence(instance.graph, trace.seeds, world.live_mask)
        values.append(value)
        total += value
        total_sq += value * value
        if check(instance, trace, extended=policy.extended):
            violations += 1
        if note:
            branch_counts[note] = branch_counts.get(note, 0) + 1
    mean = total / worlds
    var = max(0.0, total_sq / worlds - mean * mean)
    return values, PolicyEvaluation(
        mean=mean,
        stderr=(var / worlds) ** 0.5,
        worlds=worlds,
        violations=violations,
        branch_counts=branch_counts,
    )
