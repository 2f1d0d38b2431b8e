"""End-to-end acceptance gate.

One test per promised behavior: the approximation guarantees of the combined
policy in both constraint modes, constraint discipline under simulation, the
exactness claims of the sequencing layer, cost accounting, the rational LP
and extension machinery, influence-law sanity, and contention-resolution
survival rates.  Cost accounting and survival rates are checked on the
package's own rounding path, Alg1Policy.run_block, with the plan patched in.
These are slower than the unit files on purpose; each prints a short summary
line when it passes.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from couponprobe.influence import (
    Graph,
    influence_exact,
    influence_mc_stats,
    singleton_influence_table,
)
from couponprobe.model import (
    COST_MODE_PAPER,
    COST_MODE_THRESHOLD,
    Action,
    build_action_space,
    exact_expected_cost,
)
from couponprobe.oracle import (
    concave_extension_exact,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from couponprobe.relaxation import (
    RelaxationConfig,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    solve_lp,
    user_mass,
)
from couponprobe.sequencing import (
    Alg2Policy,
    StochCpPolicy,
    alg2_dp,
    alg2_plan,
    alg2_value,
    evaluate_policy,
    first_accept_value,
)

from helpers import (
    dp_brute_force,
    guarantee,
    mirror_lp,
    planned,
    random_tiny_instance,
    run_blocks,
    sorted_row,
    threshold_cost,
    uniform_instance,
    vertex_enumerate_max,
)

F = Fraction


def test_criterion_01_combined_policy_meets_its_ratio() -> None:
    gen = np.random.default_rng(101)
    ratio = guarantee(default_beta_basic(), extended=False)
    worst = math.inf
    for i in range(20):
        inst = random_tiny_instance(gen, users=4, coupons_count=2, K=2)
        opt = optimal_adaptive_value(inst)
        policy = StochCpPolicy(inst, RelaxationConfig())
        result = evaluate_policy(inst, policy, worlds=10_000, rng_seed=1000 + i)
        assert result.mean >= ratio * opt - 4 * result.stderr
        if opt > 0:
            worst = min(worst, result.mean / opt)
    print(f"criterion 1: PASS (20 instances, worst mean/OPT {worst:.3f}, ratio {ratio:.6f})")


def test_criterion_02_extended_policy_meets_its_ratio() -> None:
    gen = np.random.default_rng(202)
    ratio = guarantee(default_beta_extended(), extended=True)
    worst = math.inf
    for i in range(20):
        W = int(gen.integers(1, 3))
        inst = random_tiny_instance(gen, users=4, coupons_count=2, K=2, W=W)
        opt = optimal_adaptive_value(inst, use_W=True)
        policy = StochCpPolicy(inst, RelaxationConfig(), extended=True)
        result = evaluate_policy(inst, policy, worlds=10_000, rng_seed=2000 + i)
        assert result.mean >= ratio * opt - 4 * result.stderr
        if opt > 0:
            worst = min(worst, result.mean / opt)
    print(f"criterion 2: PASS (20 instances, worst mean/OPT {worst:.3f}, ratio {ratio:.6f})")


def test_criterion_03_no_constraint_violations() -> None:
    gen = np.random.default_rng(33)
    worlds = 0
    violations = 0
    for i in range(10):
        W = int(gen.integers(1, 3)) if i % 2 else None
        inst = random_tiny_instance(gen, users=4, coupons_count=2, K=2, W=W)
        policy = StochCpPolicy(inst, RelaxationConfig(), extended=W is not None)
        result = evaluate_policy(inst, policy, worlds=1000, rng_seed=3000 + i)
        worlds += result.worlds
        violations += result.violations
    assert worlds == 10_000
    assert violations == 0
    print(f"criterion 3: PASS ({worlds} runs, 0 violations)")


def test_criterion_04_probe_order_is_optimal() -> None:
    gen = np.random.default_rng(44)
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(10):
            probs = [F(int(gen.integers(1, 10)), 10) for _ in range(n)]
            infl = [F(int(gen.integers(1, 8))) for _ in range(n)]
            greedy = sorted(range(n), key=lambda v: (-infl[v], v))
            greedy_value = first_accept_value(
                [probs[v] for v in greedy], [infl[v] for v in greedy]
            )
            best = max(
                first_accept_value([probs[v] for v in perm], [infl[v] for v in perm])
                for perm in itertools.permutations(range(n))
            )
            assert greedy_value == best
            checked += 1
    print(f"criterion 4: PASS ({checked} exhaustive order comparisons, exact)")


def test_criterion_05_closed_form_matches_simulation() -> None:
    gen = np.random.default_rng(55)
    for i in range(10):
        inst = random_tiny_instance(gen, users=4, coupons_count=2, K=1)
        table = singleton_influence_table(inst.graph)
        closed = alg2_value(inst, alg2_plan(inst, table), table)
        result = evaluate_policy(
            inst, Alg2Policy(inst, singleton_table=table),
            worlds=100_000, rng_seed=5000 + i,
        )
        assert result.violations == 0
        assert abs(result.mean - closed) <= 4 * result.stderr + 1e-12
    print("criterion 5: PASS (10 instances at 100000 worlds each, within 4 stderr)")


def test_criterion_06_user_cap_dp_matches_brute_force() -> None:
    gen = np.random.default_rng(66)
    for _ in range(8):
        n = int(gen.integers(4, 9))
        W = int(gen.integers(1, 5))
        rows = tuple(sorted_row(gen, 1) for _ in range(n))
        inst = uniform_instance(n, (1.0,), rows, K=1, B=2.0, W=W)
        table = {v: round(float(gen.uniform(1.0, n)), 3) for v in range(n)}
        values, order = alg2_dp(inst, table, W=W)
        want = dp_brute_force(
            [F(rows[v][0]) for v in range(n)],
            [F(table[v]) for v in range(n)],
            W,
        )
        assert values[-1][-1] == float(want)
        replay = first_accept_value(
            [F(rows[v][0]) for v in order],
            [F(table[v]) for v in order],
        )
        assert replay == want
    print("criterion 6: PASS (8 instances up to 8 users, bit-exact)")


def test_criterion_07_expected_cost_matches_simulation() -> None:
    cases = (
        uniform_instance(1, (1.0,), ((0.4,),), K=1, B=9.0),
        uniform_instance(1, (1.0, 2.0), ((0.3, 0.65),), K=2, B=9.0),
        uniform_instance(1, (1.0, 2.0, 3.0), ((0.3, 0.65, 0.9),), K=3, B=9.0),
    )
    for inst in cases:
        action = Action(user=0, coupons=tuple(range(len(inst.coupons))))
        want = float(exact_expected_cost(inst, action))  # threshold mode is the default
        # the one action at mass 1 is present, survives and runs in every world
        policy = planned(inst, {a: F(1 if a == action else 0) for a in build_action_space(inst)})
        spends = np.concatenate([
            steps.spend.sum(axis=1) for _, _, steps in run_blocks(policy, 100_000, 77)
        ])
        stderr = float(spends.std(ddof=1)) / math.sqrt(spends.size)
        assert abs(float(spends.mean()) - want) <= 4 * stderr
    print("criterion 7: PASS (3 sequence lengths at 100000 run_block worlds, within 4 stderr)")


@pytest.mark.xfail(
    strict=True,
    reason="the multiplicative cost accounting can undercut the threshold-"
    "consistent one on three-step sequences: p = (0.9, 0.9, 1.0) with coupon "
    "values (1, 2, 3) prices at 1.11 against 1.2",
)
def test_criterion_07_multiplicative_cost_never_below_threshold_cost() -> None:
    inst = uniform_instance(1, (1.0, 2.0, 3.0), ((0.9, 0.9, 1.0),), K=3, B=9.0)
    for r in range(1, 4):
        for combo in itertools.combinations(range(3), r):
            action = Action(user=0, coupons=combo)
            paper = exact_expected_cost(inst, action, COST_MODE_PAPER)
            threshold = exact_expected_cost(inst, action, COST_MODE_THRESHOLD)
            assert paper >= threshold, (
                f"sequence {combo}: {float(paper)} < {float(threshold)}"
            )


def test_criterion_08_lp_and_extension_exactness() -> None:
    gen = np.random.default_rng(88)
    inst = uniform_instance(
        2, (1.0, 1.4), ((0.3, 0.6), (0.5, 0.8)), K=2, B=3.0, W=2,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    assert len(actions) == 6
    lp_checks = 0
    for use_W in (False, True):
        for _ in range(5):
            weights = {a: float(round(gen.uniform(0.1, 3.0), 3)) for a in actions}
            y = solve_lp(weights, inst, beta=0.3, use_W=use_W)
            acts, obj, lhs, rhs = mirror_lp(inst, weights, 0.3, use_W)
            got = sum(F(float(weights[a])) * y[a] for a in acts)
            assert got == vertex_enumerate_max(obj, lhs, rhs)
            lp_checks += 1

    config = RelaxationConfig(delta=0.25, marginal_samples=40)
    for use_W in (False, True):
        beta = F(config.resolved_beta(use_W))
        y = continuous_greedy(inst, config, use_W=use_W)
        assert all(mass <= 1 for mass in user_mass(y).values())
        assert all(0 <= y[a] <= 1 for a in y)
        spend = sum(y[a] * threshold_cost(inst, a) for a in y)
        assert spend <= beta * F(inst.B)
        if use_W:
            assert sum(y.values()) <= beta * F(inst.W)

    wide = uniform_instance(
        2, (1.0, 1.2, 1.4), ((0.2, 0.4, 0.6), (0.3, 0.5, 0.7)), K=2, B=3.0,
        edges=((0, 1, 0.5), (1, 0, 0.4)),
    )
    wide_actions = build_action_space(wide)
    assert len(wide_actions) == 12
    for _ in range(5):
        y = {a: F(int(gen.integers(0, 3)), 12) for a in wide_actions}
        assert concave_extension_exact(wide, y) >= multilinear_value_exact(wide, y)
    print(f"criterion 8: PASS ({lp_checks} exact LP matches, feasibility and "
          "extension dominance exact)")


def test_criterion_09_influence_laws_hold() -> None:
    gen = np.random.default_rng(99)
    graphs = [
        Graph(node_count=3, edges=((0, 1, 1.0), (1, 2, 0.5))),
        Graph(node_count=4, edges=((0, 1, 0.5), (0, 2, 1.0), (0, 3, 0.5))),
        Graph(node_count=5, edges=(
            (0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.5), (3, 4, 0.0), (4, 0, 0.5),
        )),
    ]
    levels = itertools.cycle((0.5, 1.0, 0.0))
    complete = [
        (u, v, next(levels)) for u in range(4) for v in range(4) if u != v
    ]
    graphs.append(Graph(node_count=4, edges=tuple(complete)))
    for _ in range(2):
        edges = [
            (u, v, float(gen.choice((0.0, 0.5, 1.0))))
            for u in range(5) for v in range(5)
            if u != v and gen.random() < 0.4
        ]
        graphs.append(Graph(node_count=5, edges=tuple(edges)))

    for graph in graphs:
        nodes = range(graph.node_count)
        subsets = [
            frozenset(c)
            for r in range(graph.node_count + 1)
            for c in itertools.combinations(nodes, r)
        ]
        table = {s: influence_exact(graph, s) for s in subsets}
        for s in subsets:
            assert len(s) - 1e-9 <= table[s] <= graph.node_count + 1e-9
            for t in subsets:
                if not s <= t:
                    continue
                assert table[s] <= table[t] + 1e-9
                for v in nodes:
                    if v in t:
                        continue
                    gain_s = table[s | {v}] - table[s]
                    gain_t = table[t | {v}] - table[t]
                    assert gain_s >= gain_t - 1e-9

    for graph, seeds in ((graphs[0], (0,)), (graphs[3], (0, 1))):
        mean, stderr = influence_mc_stats(graph, seeds, samples=100_000, rng_seed=9)
        assert abs(mean - influence_exact(graph, seeds)) <= 4 * stderr + 1e-12
    print(f"criterion 9: PASS ({len(graphs)} graphs exhaustively checked, "
          "simulation within 4 stderr)")


def test_criterion_10_contention_survival_rates() -> None:
    beta = F(1, 4)
    inst = uniform_instance(
        2, (1.0, 1.2, 1.4), ((0.3, 0.5, 0.7), (0.4, 0.6, 0.8)),
        K=2, B=3.0, W=1,
    )
    actions = build_action_space(inst)
    assert len(actions) == 12  # several contenders per user, not one
    y = {a: beta / 6 for a in actions}

    rates = []
    for extended, seed, floor in ((False, 10_000, 1 - beta), (True, 10_001, (1 - beta) ** 2)):
        appeared = 0
        survived = 0
        for present, chosen, _ in run_blocks(planned(inst, y, extended), 100_000, seed):
            appeared += int(present.sum())
            survived += int((chosen >= 0).sum())
        rates.append(survived / appeared)
        assert rates[-1] >= float(floor) - 0.01
    print(f"criterion 10: PASS (run_block survival {rates[0]:.3f} and {rates[1]:.3f} "
          "above 1-beta and (1-beta)^2 floors)")
