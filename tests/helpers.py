"""Shared instance builders and tiny exact oracles for the test suite."""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

import numpy as np

from couponprobe import simplex
from couponprobe.influence import BLOCK, Graph, influence_exact, live_mask_outcomes, realized_influence
from couponprobe.model import (
    COST_MODE_THRESHOLD,
    Action,
    Instance,
    PolicyTrace,
    ProbeStep,
    World,
    build_action_space,
    check_trace,
    exact_expected_cost,
    realize,
    sample_world,
)
from couponprobe.relaxation import RelaxationConfig, action_set_utility
from couponprobe.sequencing import (
    Alg2Policy,
    PolicyEvaluation,
    StochCpPolicy,
    alg2_execute,
    first_accept_value,
)


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


def paper_cost(inst, action) -> Fraction:
    """Expected spend of one action, exact, compounding independent rejections."""
    alive = Fraction(1)
    total = Fraction(0)
    for idx in action.sequence.coupon_indices:
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


def marginals_by_utility(
    instance: Instance, y, config: RelaxationConfig, iteration: int = 0
) -> dict[Action, float]:
    """Reference for relaxation.estimate_marginals: one action_set_utility
    call per action and sample, on the same RNG draws in the same order."""
    actions = list(y)
    probs = [float(p) for p in y.values()]
    totals = [0.0] * len(actions)
    for s in range(config.marginal_samples):
        rng = np.random.default_rng([config.rng_seed, iteration, s])
        world = sample_world(instance, rng)
        draws = rng.random(len(actions))
        base = [a for a, u, p in zip(actions, draws, probs) if u < p]
        base_value = action_set_utility(instance, base, world)
        for i, action in enumerate(actions):
            if draws[i] < probs[i]:
                continue  # already present: zero marginal this sample
            totals[i] += action_set_utility(instance, base + [action], world) - base_value
    n = config.marginal_samples
    return {a: totals[i] / n for i, a in enumerate(actions)}


def exact_spreads_by_mask(graph: Graph, seed_sets) -> list[float]:
    """Reference for the exact spread kernel: one reach_masks search per live
    mask, summed as `total += weight * reached` in live_mask_outcomes order."""
    totals = [0.0] * len(seed_sets)
    for weight, mask in live_mask_outcomes(graph):
        reach = graph.reach_masks(mask)
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
                best[action.user] = max(best.get(action.user, -1), action.sequence.coupon_indices[-1])
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


def run_fixed_plan(instance: Instance, world: World, actions: Iterable[Action]) -> PolicyTrace:
    """Execute actions in the given order under plain budget feasibility.

    Each offer is made only while its coupon value still fits in the remaining
    budget (offers are in increasing value order, so the first unaffordable
    coupon ends that user's sequence).  No other gating is applied.
    """
    trace = PolicyTrace()
    budget = instance.B
    seeds: set[int] = set()
    for action in actions:
        for i in action.sequence.coupon_indices:
            value = instance.coupons[i]
            if value > budget:
                break
            accepted = realize(instance, world, action.user, i)
            trace.steps.append(ProbeStep(action.user, value, accepted))
            if accepted:
                budget -= value
                seeds.add(action.user)
                trace.budget_after.append(budget)
                break
            trace.budget_after.append(budget)
    trace.seeds = frozenset(seeds)
    return trace


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
        for row in np.random.default_rng([rng_seed, b, 0]).random(shape).tolist():
            mask = graph.forced_live_mask
            for j, i in enumerate(graph.uncertain_edges):
                if row[n + j] < graph.edges[i][2]:
                    mask |= 1 << i
            out.append(World(tuple(row[:n]), mask))
    return out


def evaluate_world_by_world(
    instance: Instance, policy, worlds: int, rng_seed: int, check=check_trace
) -> tuple[list[int], PolicyEvaluation]:
    """Reference for evaluate_policy: the same worlds and policy streams,
    each world run through alg2_execute (or the policy's generate),
    realized_influence and check, and summed as `total += value`.

    Returns every world's spread and the evaluation.  stoch-cp's coin for
    world i is row i % BLOCK of its block's draws keyed by (rng_seed, block,
    2); per-world randomness is seeded by [rng_seed, i, 1].
    """
    coins: list[float] = []
    for b, start in enumerate(range(0, worlds, BLOCK)):
        coins += np.random.default_rng([rng_seed, b, 2]).random(min(BLOCK, worlds - start)).tolist()
    extended = getattr(policy, "extended", False)
    values: list[int] = []
    total = total_sq = 0.0
    violations = 0
    branch_counts: dict[str, int] = {}
    for i, world in enumerate(block_worlds(instance, worlds, rng_seed)):
        if isinstance(policy, StochCpPolicy):
            if coins[i] < policy.alg1_weight:
                trace = policy.branch_alg1.generate(world, [rng_seed, i, 1])
                trace.note = "alg1"
            else:
                trace = alg2_execute(instance, policy.branch_alg2.order, world)
                trace.note = "alg2"
        elif isinstance(policy, Alg2Policy):
            trace = alg2_execute(instance, policy.order, world)
        else:
            trace = getattr(policy, "generate", policy)(world, [rng_seed, i, 1])
        value = realized_influence(instance.graph, trace.seeds, world.live_mask)
        values.append(value)
        total += value
        total_sq += value * value
        if check(instance, trace, extended=extended):
            violations += 1
        if trace.note:
            branch_counts[trace.note] = branch_counts.get(trace.note, 0) + 1
    mean = total / worlds
    var = max(0.0, total_sq / worlds - mean * mean)
    return values, PolicyEvaluation(
        mean=mean,
        stderr=(var / worlds) ** 0.5,
        worlds=worlds,
        violations=violations,
        branch_counts=branch_counts,
    )
