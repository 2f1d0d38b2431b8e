from __future__ import annotations

import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import influence, oracle, simplex
from couponprobe.influence import (
    EXACT_EDGE_LIMIT,
    MAX_KERNEL_WORK,
    Graph,
    influence_exact,
    singleton_influence_table,
)
from couponprobe.model import (
    MAX_ACTIONS,
    Instance,
    build_action_space,
    user_groups,
)
from couponprobe.oracle import (
    MAX_LP_COLUMNS,
    MAX_ORACLE_STEPS,
    MAX_SPREAD_CELLS,
    OracleSizeError,
    _accept,
    _profile_columns,
    _spread_table,
    concave_extension_exact,
    concave_relaxation_optimum,
    conditional_accept,
    multilinear_value_exact,
    optimal_adaptive_value,
)
from couponprobe.relaxation import (
    RelaxationConfig,
    check_fractional,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    estimate_marginals,
    user_mass,
)
from couponprobe.sequencing import Alg2Policy, StochCpPolicy, alg2_plan, alg2_value, evaluate_policy

from helpers import (
    PolicyTrace,
    _random_edges,
    _seeding_value,
    act,
    alg2_execute,
    concave_extension_by_subsets,
    enumerate_worlds,
    exact_policy_value,
    guarantee,
    multilinear_by_subsets,
    multilinear_by_user_subsets,
    optimal_adaptive_value_by_states,
    oracle4_shaped,
    random_tiny_instance,
    relax48_shaped,
    relaxation_optimum_by_simplex,
    relaxation_optimum_by_subsets,
    single_user,
    sorted_row,
    uniform_instance,
)

F = Fraction


# ------------------------------------------------------ conditional threshold


def test_conditional_accept_without_rejection_is_unconditional() -> None:
    assert conditional_accept(0.7, 0.0) == pytest.approx(0.7)


def test_conditional_accept_after_rejection() -> None:
    # rejected at p=0.5 leaves sigma uniform on (0.5, 1]; accepting at 0.8
    # happens with probability 0.3/0.5
    assert conditional_accept(0.8, 0.5) == pytest.approx(0.6)


def test_conditional_accept_dominated_target() -> None:
    assert conditional_accept(0.3, 0.5) == 0.0


# ------------------------------------------------------------ adaptive oracle


def test_oracle_single_user_single_coupon() -> None:
    inst = single_user(0.5, coupon=1.0, B=1.0)
    assert optimal_adaptive_value(inst) == pytest.approx(0.5)


def test_oracle_vacuous_budget_never_probes() -> None:
    inst = single_user(0.9, coupon=2.0, B=1.0)
    assert optimal_adaptive_value(inst) == 0.0


def test_oracle_two_coupon_adaptivity() -> None:
    # one user, coupons 1 and 2, budget 3: offering the small coupon first
    # then the large one on rejection dominates any single offer
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.9),), K=2, B=3.0)
    got = optimal_adaptive_value(inst)
    # probe (1 then 2): accept at 1 w.p. 0.4, else accept at 2 w.p. 0.5/0.6
    assert got == pytest.approx(0.9)
    single_best = max(0.4, 0.9)
    assert got >= single_best - 1e-12


def test_oracle_restricted_never_beats_unrestricted() -> None:
    gen = np.random.default_rng(4)
    for _ in range(6):
        inst = random_tiny_instance(gen, users=2, coupons_count=2, K=2)
        unrestricted = optimal_adaptive_value(inst)
        restricted = optimal_adaptive_value(inst, restricted=True)
        assert restricted <= unrestricted + 1e-12


def test_oracle_w_cap_orders_correctly() -> None:
    gen = np.random.default_rng(9)
    for _ in range(4):
        base = random_tiny_instance(gen, users=3, coupons_count=2, K=1)
        loose = uniform_instance(
            base.n_users, base.coupons, base.attractiveness,
            K=base.K, B=base.B, W=base.n_users,
            edges=base.graph.edges,
        )
        tight = uniform_instance(
            base.n_users, base.coupons, base.attractiveness,
            K=base.K, B=base.B, W=1,
            edges=base.graph.edges,
        )
        free = optimal_adaptive_value(base)
        assert optimal_adaptive_value(tight, use_W=True) <= free + 1e-12
        assert optimal_adaptive_value(loose, use_W=True) == free


def test_oracle_dominates_alg2_exactly() -> None:
    gen = np.random.default_rng(13)
    for _ in range(5):
        inst = random_tiny_instance(gen, users=3, coupons_count=2, K=1)
        table = singleton_influence_table(inst.graph)
        order = alg2_plan(inst, table)
        if inst.coupons[-1] > inst.B:
            continue
        alg2 = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
        assert optimal_adaptive_value(inst) >= alg2 - 1e-9


@pytest.mark.parametrize("extended", (False, True))
def test_stoch_cp_meets_its_ratio_on_five_users(extended: bool) -> None:
    # acceptance criteria 01 and 02's check on 5 oracle4-shaped users, 7^5
    # memo states each
    ratio = guarantee(default_beta_extended() if extended else default_beta_basic(), extended)
    worst = math.inf
    for seed in range(4):
        inst = oracle4_shaped(seed, users=5)
        opt = optimal_adaptive_value(inst, use_W=extended)
        policy = StochCpPolicy(inst, RelaxationConfig(), extended=extended)
        result = evaluate_policy(inst, policy, worlds=10_000, rng_seed=5000 + seed)
        assert result.mean >= ratio * opt - 4 * result.stderr
        worst = min(worst, result.mean / opt)
    print(f"5 users, extended {extended}: worst mean/OPT {worst:.3f}, ratio {ratio:.6f}")


NON_DYADIC = (0.1, 0.2, 0.3, 1.2, 1.4)


def _oracle_exactness_instances() -> list[Instance]:
    """Every size the oracle takes, rows pinned at 0.0 and 1.0, non-dyadic
    coupon values with B the float sum of two or three of them (equal to,
    above or below their exact sum), oracle4-shaped instances, and the edge
    cases: K = 0 (a fresh user is then also finished), W = 0, a sure accept
    at K = 1 and B below the cheapest coupon; and 5 oracle4-shaped users, 7^5
    = 16,807 states, at B = 3, where the reference takes about 0.6 s over the
    four modes (4.7 s at B = 4)."""
    gen = np.random.default_rng(12)
    out = []
    for n, m, K in itertools.product((1, 2, 3, 4), (1, 2, 3), (1, 2)):
        coupons = np.sort(gen.choice(np.arange(2, 21) / 10.0, size=m, replace=False))
        rows = [sorted_row(gen, m) for _ in range(n)]
        if K == 2:
            rows = [tuple(sorted(gen.choice([0.0, 1.0, p]) for p in row)) for row in rows]
        out.append(Instance(Graph(n, _random_edges(gen, n, min(n * (n - 1), 3), 0.1, 0.9)), coupons, rows,
                            K=K, B=round(float(gen.uniform(1.0, 4.0)), 1), W=int(gen.integers(1, n + 1))))
    for r in (2, 3):
        for picked in itertools.combinations(NON_DYADIC, r):
            spare = [c for c in NON_DYADIC if c not in picked]
            coupons = sorted((*picked, *gen.choice(spare, size=3 - r, replace=False)))
            rows = [sorted_row(gen, 3) for _ in range(3)]
            out.append(Instance(Graph(3, _random_edges(gen, 3, 2, 0.1, 0.9)), coupons, rows,
                                K=2, B=sum(picked), W=int(gen.integers(1, 4))))
    base = oracle4_shaped(3)
    edge_cases = [
        Instance(base.graph, base.coupons, base.attractiveness, K=0, B=base.B, W=2),
        Instance(base.graph, base.coupons, base.attractiveness, K=2, B=base.B, W=0),
        Instance(base.graph, base.coupons, ((0.3, 1.0, 1.0), (1.0, 1.0, 1.0), *base.attractiveness[2:]),
                 K=1, B=base.B, W=2),
        Instance(base.graph, base.coupons, base.attractiveness, K=2, B=0.5, W=2),
    ]
    five = oracle4_shaped(1, users=5)
    five = Instance(five.graph, five.coupons, five.attractiveness, K=2, B=3.0, W=2)
    return out + [oracle4_shaped(seed) for seed in (1, 2)] + edge_cases + [five]


@pytest.mark.parametrize("restricted,use_W", itertools.product((False, True), repeat=2))
def test_oracle_equals_reference_by_states(restricted: bool, use_W: bool) -> None:
    for inst in _oracle_exactness_instances():
        got = optimal_adaptive_value(inst, restricted=restricted, use_W=use_W)
        assert got == optimal_adaptive_value_by_states(inst, restricted=restricted, use_W=use_W)


@pytest.mark.parametrize("restricted,use_W", itertools.product((False, True), repeat=2))
def test_oracle_value_is_invariant_under_relabeling_users(restricted: bool, use_W: bool) -> None:
    # users and graph nodes permuted together; only the order of the spread
    # sums may change
    gen = np.random.default_rng(31)
    for n in (3, 4) * 4:
        m, K = int(gen.integers(1, 4)), int(gen.integers(1, 3))
        coupons = np.sort(gen.choice(np.arange(2, 21) / 10.0, size=m, replace=False))
        rows = [sorted_row(gen, m) for _ in range(n)]
        edges = _random_edges(gen, n, int(gen.integers(0, n + 1)), 0.1, 0.9)
        inst = Instance(Graph(n, edges), coupons, rows, K=K, B=round(float(gen.uniform(1.0, 4.0)), 1),
                        W=int(gen.integers(1, n + 1)))
        perm = gen.permutation(n)
        relabeled = Instance(Graph(n, tuple((int(perm[u]), int(perm[v]), p) for u, v, p in edges)), coupons,
                             [rows[v] for v in np.argsort(perm)], K=K, B=inst.B, W=inst.W)
        got = optimal_adaptive_value(relabeled, restricted=restricted, use_W=use_W)
        assert got == pytest.approx(optimal_adaptive_value(inst, restricted=restricted, use_W=use_W), rel=1e-12)


def test_oracle_size_guard(monkeypatch) -> None:
    # the guard counts steps, not users, coupons or K: 5 users at K = 1 have
    # 3^5 = 243 states, one user at K = 3 has 9, and a user is offered at
    # most L times, so K = 10^6 has as many as K = 3
    five_users = uniform_instance(5, (1.0,), ((0.5,),) * 5, K=1, B=3.0)
    big_k = uniform_instance(1, (0.5, 0.6, 0.7), ((0.1, 0.2, 0.3),), K=3, B=9.0)
    huge_k = uniform_instance(1, (0.5, 0.6, 0.7), ((0.1, 0.2, 0.3),), K=10**6, B=9.0)
    for inst in (five_users, big_k, huge_k):
        assert optimal_adaptive_value(inst) == optimal_adaptive_value_by_states(inst)
    # 2 users with 73 strictly rising coupons at K = 2: 2 + 73 + 72 = 147
    # local states and 73 + 72 * 73 / 2 = 2,701 moves each, and each move is
    # tabulated once and visited from each of the other user's 147 states
    rows = (tuple((j + 1) / 100 for j in range(73)),) * 2
    over = uniform_instance(2, range(1, 74), rows, K=2, B=146.0)
    steps = 147**2 + 2 * 2701 + 2 * 147 * 2701
    assert MAX_ORACLE_STEPS < steps < 1.05 * MAX_ORACLE_STEPS
    message = f"needs {steps} steps \\({147**2} states, {2 * 2701} moves to tabulate and {2 * 147 * 2701} over"
    with pytest.raises(OracleSizeError, match=f"{message} the states\\), above the limit of {MAX_ORACLE_STEPS}$"):
        optimal_adaptive_value(over)
    # a tie leaves no offer after a rejection: 75 local states and 73 moves
    # for a user whose 73 coupons tie
    tied = uniform_instance(2, range(1, 74), ((0.5,) * 73, rows[0]), K=2, B=146.0)
    steps = 75 * 147 + 73 + 2701 + 147 * 73 + 75 * 2701
    monkeypatch.setattr(oracle, "MAX_ORACLE_STEPS", steps - 1)
    with pytest.raises(OracleSizeError, match=f"needs {steps} steps"):
        optimal_adaptive_value(tied)


def test_every_entry_point_refuses_a_large_spread_table_before_the_kernel(monkeypatch) -> None:
    # 12 users with one action each: 2^12 profiles, within MAX_LP_COLUMNS,
    # but (2^12 - 1) * 2^20 spread cells over 20 uncertain edges, which the
    # induction checks before its own steps
    edges = [(v, v + 1, 0.5) for v in range(11)] + [(v + 3, v, 0.5) for v in range(9)]
    inst = uniform_instance(12, (1.0,), ((0.5,),) * 12, K=1, B=12.0, edges=edges)
    cells = ((1 << 12) - 1) << 20
    assert cells > MAX_SPREAD_CELLS

    def kernel(*args):
        raise AssertionError("the reach kernel was called")

    monkeypatch.setattr(oracle, "_exact_spreads", kernel)
    y = dict.fromkeys(build_action_space(inst), F(1, 2))
    assert len(y) == 12
    for call in (lambda: multilinear_value_exact(inst, y), lambda: concave_extension_exact(inst, y),
                 lambda: concave_relaxation_optimum(inst), lambda: optimal_adaptive_value(inst)):
        with pytest.raises(OracleSizeError, match=f"needs {cells} cells .*above the limit of {MAX_SPREAD_CELLS}$"):
            call()


def test_spread_table_counts_each_seed_set_at_least_2_to_the_8_outcomes() -> None:
    # 26 users over no uncertain edge: 2^26 - 1 cells, within
    # MAX_SPREAD_CELLS, but as many seed-set lists (about 67 million); each
    # set counts as 2^8 outcomes, so the table is refused at the call,
    # before any list is built
    edgeless = uniform_instance(26, (1.0,), ((0.5,),) * 26, K=1, B=2.0)
    cells = ((1 << 26) - 1) << 8
    with pytest.raises(OracleSizeError, match=re.escape(
            f"the spread table needs {cells} cells (26 users, 0 uncertain edges, a set at least 2^8 outcomes), "
            f"above the limit of {MAX_SPREAD_CELLS}")):
        _spread_table(edgeless, range(26))
    # 18 users over 8 uncertain edges sit at the limit either way
    assert callable(_spread_table(uniform_instance(18, (1.0,), ((0.5,),) * 18, K=1, B=2.0,
                                                   edges=[(v, v + 1, 0.5) for v in range(8)]), range(18)))


def test_extensions_refuse_an_exact_kernel_call_with_the_oracle_error(monkeypatch) -> None:
    # y on one user's action: a spread table of 2^e cells, within
    # MAX_SPREAD_CELLS, but on 26 nodes with 25 uncertain edges more than
    # the kernel enumerates, and on 130 nodes with 20 more word operations
    # than it may take (3 words x 151 rows per outcome)
    def kernel(*args):
        raise AssertionError("the reach kernel was called")

    monkeypatch.setattr(influence, "_reach_columns", kernel)
    star = uniform_instance(26, (1.0,), ((0.5,),) * 26, K=1, B=2.0, edges=[(0, t, 0.5) for t in range(1, 26)])
    wide = uniform_instance(130, (1.0,), ((0.5,),) * 130, K=1, B=2.0, edges=[(0, t, 0.5) for t in range(1, 21)])
    for inst, message in [
        (star, f"exact influence needs 25 uncertain edges (2^25 live-edge outcomes), "
               f"above the limit of {EXACT_EDGE_LIMIT}"),
        (wide, f"the reach kernel needs {(1 << 20) * 3 * 151} word operations (1048576 outcomes x 3 words x "
               f"151 rows: 130 nodes, 20 links and 1 seed sets), above the limit of {MAX_KERNEL_WORK}"),
    ]:
        y = {build_action_space(inst)[0]: F(1, 2)}
        for call in (multilinear_value_exact, concave_extension_exact):
            with pytest.raises(OracleSizeError) as err:
                call(inst, y)
            assert str(err.value) == message


# the one form of a size refusal: what, its count, its unit, its parts and
# the limit it passes
ONE_FORM = re.compile(r"(.+) needs (\d+) ([a-z -]+) \((.+)\), above the limit of (\d+)")


def test_every_limit_refuses_in_one_form(monkeypatch) -> None:
    # one refusal per limit, each just built past it
    rising = (0.2, 0.4, 0.6)
    twenty = uniform_instance(1, range(1, 21), (tuple(round(0.04 * (i + 1), 2) for i in range(20)),), K=20, B=40.0)
    tiny = uniform_instance(2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=1, B=3.0)
    star = Graph(22, tuple((0, t, 0.5) for t in range(1, 22)))  # a sample: 22 nodes, 21 links, 22 sets
    wide = Graph(130, tuple((0, t, 0.5) for t in range(1, 21)))
    seven = uniform_instance(7, (1.0, 2.0, 3.0), (rising,) * 7, K=2, B=7.0)  # 7^7 states, 6 moves a user
    twelve_edges = [(v, v + 1, 0.5) for v in range(11)] + [(v + 3, v, 0.5) for v in range(9)]
    twelve = uniform_instance(12, (1.0,), ((0.5,),) * 12, K=1, B=12.0, edges=twelve_edges)
    five = uniform_instance(5, (1.0, 1.2, 1.4), (rising,) * 5, K=2, B=9.0)
    box = ([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)])
    samples = MAX_KERNEL_WORK // 65 + 1
    monkeypatch.setattr(simplex, "MAX_PIVOT_CELLS", 29)
    cases = [
        (lambda: build_action_space(twenty), "the action space", 1048575, "actions",
         "n = 1, L = 20 low-value coupons, K = 20", MAX_ACTIONS),
        (lambda: continuous_greedy(tiny, RelaxationConfig(delta=1e-7)), "the continuous greedy",
         10000001 * 5952, "word operations", "10000001 steps at delta = 1e-07, each 200 samples x 8 + 4352 "
         "for the LP over |S| = 4 actions; a larger delta (--delta) takes fewer steps", MAX_KERNEL_WORK),
        (lambda: influence_exact(wide, [0]), "the reach kernel", (1 << 20) * 3 * 151, "word operations",
         "1048576 outcomes x 3 words x 151 rows: 130 nodes, 20 links and 1 seed sets", MAX_KERNEL_WORK),
        (lambda: singleton_influence_table(star, samples), "the reach kernel", samples * 65, "word operations",
         f"{samples} outcomes x 1 words x 65 rows: 22 nodes, 21 links and 22 seed sets", MAX_KERNEL_WORK),
        (lambda: influence_exact(star, [0]), "exact influence", 21, "uncertain edges",
         "2^21 live-edge outcomes", EXACT_EDGE_LIMIT),
        (lambda: optimal_adaptive_value(seven), "backward induction", 7**7 + 42 + 7 * 7**6 * 6, "steps",
         f"{7**7} states, 42 moves to tabulate and {7 * 7**6 * 6} over the states", MAX_ORACLE_STEPS),
        (lambda: multilinear_value_exact(twelve, dict.fromkeys(build_action_space(twelve), F(1, 2))),
         "the spread table", ((1 << 12) - 1) << 20, "cells", "12 users, 20 uncertain edges", MAX_SPREAD_CELLS),
        (lambda: concave_relaxation_optimum(five), "the exact LP", 7**5, "action profiles",
         "the product over 5 users of 1 + their actions, 30 in all", MAX_LP_COLUMNS),
        (lambda: simplex.maximize(*box), "the simplex", 30, "cell updates", "2 pivots so far x 3 x 5 tableau cells", 29),
    ]
    for call, what, count, unit, parts, limit in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert ONE_FORM.fullmatch(str(err.value)).groups() == (what, str(count), unit, parts, str(limit))
        assert count > limit


def test_extension_stops_at_its_budget_of_cell_updates(monkeypatch) -> None:
    # 5 users with 3 actions each at mass 1/4: 1,024 profiles and 16 rows,
    # a 17 x 1,041 tableau on which Bland's rule pivots for minutes; with
    # the budget at 20 pivots of it, the 21st is refused
    inst = oracle4_shaped(0, users=5)
    y = dict.fromkeys(build_action_space(inst), F(1, 4))
    monkeypatch.setattr(simplex, "MAX_PIVOT_CELLS", 20 * 17 * 1041)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"needs {21 * 17 * 1041} cell updates (21 pivots so far x 17 x ")):
        concave_extension_exact(inst, y)
    assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------ exact evaluation


def test_enumerate_worlds_is_a_probability_space() -> None:
    inst = uniform_instance(
        2, (1.0, 2.0), ((0.3, 0.6), (0.5, 0.5)), K=2, B=3.0,
        edges=((0, 1, 0.4),),
    )
    total = 0.0
    count = 0
    for prob, world in enumerate_worlds(inst):
        assert len(world.thresholds) == 2
        assert prob > 0
        total += prob
        count += 1
    assert total == pytest.approx(1.0)
    # 3 threshold cells for user 0, 2 for user 1, 2 cascade outcomes
    assert count == 3 * 2 * 2


def test_exact_value_of_never_probe_policy() -> None:
    inst = single_user(0.5)
    value = exact_policy_value(inst, lambda world: PolicyTrace())
    assert value == 0.0


def test_exact_value_two_user_first_accept() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=1.0)
    order = alg2_plan(inst, {0: 1.0, 1: 1.0})
    value = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
    assert value == pytest.approx(0.75)


def test_exact_value_matches_closed_form_and_simulation() -> None:
    inst = uniform_instance(
        3, (1.0, 2.0), ((0.3, 0.6), (0.2, 0.8), (0.4, 0.5)), K=1, B=3.0,
        edges=((0, 2, 0.5), (1, 0, 0.3)),
    )
    table = singleton_influence_table(inst.graph)
    order = alg2_plan(inst, table)
    exact = exact_policy_value(inst, lambda world: alg2_execute(inst, order, world))
    closed = alg2_value(inst, order, table)
    assert exact == pytest.approx(closed, abs=1e-9)
    sim = evaluate_policy(inst, Alg2Policy(inst, singleton_table=table), worlds=20_000, rng_seed=5)
    assert abs(sim.mean - exact) <= 4 * max(sim.stderr, 1e-12)


# -------------------------------------------------------------- extensions


def test_concave_extension_at_a_vertex() -> None:
    inst = uniform_instance(1, (1.0,), ((0.5,),), K=1, B=3.0)
    a = act(0, 0)
    got = concave_extension_exact(inst, {a: F(1)})
    assert got == multilinear_value_exact(inst, dict.fromkeys([a], 1))


def test_concave_extension_of_zero_is_zero() -> None:
    inst = uniform_instance(1, (1.0,), ((0.5,),), K=1, B=3.0)
    assert concave_extension_exact(inst, {act(0, 0): F(0)}) == 0


def _agreement_instances() -> list:
    """Tiny instances of at most 8 actions with W set: two low-value coupons
    and one above B/2.  In the first, user 0 accepts both low coupons alike,
    so that two of its actions tie on top value."""
    gen = np.random.default_rng(31)
    out = [
        uniform_instance(
            2, (1.0, 1.2), ((0.4, 0.4), (0.3, 0.6)), K=2, B=3.0, W=1,
            edges=((0, 1, 0.5), (1, 0, 0.25)),
        )
    ]
    for users, K in ((2, 2), (3, 1)) * 3:
        edges = [
            (s, t, round(float(gen.uniform(0.1, 0.9)), 3))
            for s in range(users) for t in range(users) if s != t and gen.random() < 0.5
        ]
        out.append(
            uniform_instance(
                users, (1.0, 1.4, 2.0), [sorted_row(gen, 3) for _ in range(users)], K=K, B=3.0,
                W=int(gen.integers(1, 3)), edges=edges,
            )
        )
    return out


def test_profile_values_match_subset_references() -> None:
    # the profile LPs and the factorized multilinear value against the LPs
    # and the sum over all 2^|S| action subsets, exactly; y on a grid of
    # quarters, so that masses of 0 and 1 and equal masses occur
    gen = np.random.default_rng(57)
    checked = 0
    for inst in _agreement_instances():
        actions = build_action_space(inst)
        assert 0 < len(actions) <= 8
        for use_W in (False, True):
            assert concave_relaxation_optimum(inst, use_W=use_W) == relaxation_optimum_by_subsets(inst, use_W)
        for _ in range(3):
            y = {a: F(int(gen.integers(0, 5)), 4) for a in actions}
            assert concave_extension_exact(inst, y) == concave_extension_by_subsets(inst, y)
            assert multilinear_value_exact(inst, y) == multilinear_by_subsets(inst, y)
            checked += 1
    assert checked == 21
    # criterion 08's wide instance: 12 actions, 49 profiles
    wide = uniform_instance(
        2, (1.0, 1.2, 1.4), ((0.2, 0.4, 0.6), (0.3, 0.5, 0.7)), K=2, B=3.0,
        edges=((0, 1, 0.5), (1, 0, 0.4)),
    )
    y = {a: F(int(gen.integers(0, 3)), 12) for a in build_action_space(wide)}
    assert multilinear_value_exact(wide, y) == multilinear_by_subsets(wide, y)


def test_profile_values_equal_per_profile_seeding_values() -> None:
    # the folded spread tables give every profile, in itertools.product
    # order, the value _seeding_value gives it from scratch, exactly
    for inst in (*_agreement_instances(), oracle4_shaped(1)):
        actions = build_action_space(inst)
        groups = user_groups(actions)
        spread = {sum(1 << v for k, v in enumerate(groups) if m >> k & 1): x
                  for m, x in enumerate(_spread_table(inst, groups)())}
        profiles, values = _profile_columns(inst, actions)
        assert profiles == [
            tuple(i for i in combo if i is not None)
            for combo in itertools.product(*([None, *group] for group in groups.values()))
        ]
        assert values == [_seeding_value(spread, {actions[i].user: _accept(inst, actions[i]) for i in p}) for p in profiles]


def test_extensions_read_y_in_any_order() -> None:
    # bit k of the spread table stands for the k-th user among y's keys, so
    # y out of user order, reversed or shuffled, must value exactly as the
    # references do; the concave extension's reference, an LP over 2^|S|
    # subsets, takes at most 7 of oracle4's 12 actions
    gen = np.random.default_rng(59)
    for inst in (*_agreement_instances(), oracle4_shaped(0), oracle4_shaped(1), oracle4_shaped(2)):
        actions = build_action_space(inst)
        y = {a: F(int(gen.integers(0, 5)), 4) for a in actions}
        shuffled = [actions[i] for i in gen.permutation(len(actions))]
        for order in (actions[::-1], shuffled):
            assert [a.user for a in order] != sorted(a.user for a in order)
            assert multilinear_value_exact(inst, {a: y[a] for a in order}) == multilinear_by_user_subsets(inst, y)
            part = {a: y[a] for a in order[:7]}
            assert concave_extension_exact(inst, part) == concave_extension_by_subsets(inst, part)


# every package entry point that reads a point's masses, as (instance, y)
_MASS_READERS = (
    multilinear_value_exact,
    concave_extension_exact,
    lambda _, y: check_fractional(y),
    lambda inst, y: estimate_marginals(inst, y, RelaxationConfig(marginal_samples=5)),
    lambda _, y: user_mass(y),
)


def test_multilinear_value_rejects_mass_outside_unit_interval() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    a, b = build_action_space(inst)
    for bad in (F(3, 2), F(-1, 4), 2.0, -1.0):
        for call in _MASS_READERS:
            with pytest.raises(ValueError, match=re.escape(f"mass for {a} outside")):
                call(inst, {a: bad, b: F(1, 2)})


@pytest.mark.parametrize("bad", ["0.5", True, math.inf, -math.inf, math.nan, None])
def test_fractional_points_refuse_masses_that_are_not_finite_reals(bad) -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    a, b = build_action_space(inst)
    for call in _MASS_READERS:
        with pytest.raises(ValueError, match=re.escape(f"mass for {a}")):
            call(inst, {a: bad, b: 0.5})
    # numpy's reals are reals
    half = multilinear_value_exact(inst, {a: F(1, 2), b: F(1, 2)})
    assert multilinear_value_exact(inst, {a: np.float64(0.5), b: 0.5}) == half
    assert user_mass({a: np.float64(0.5), b: F(1, 4)}) == {a.user: F(1, 2), b.user: F(1, 4)}


def test_lp_size_guard_counts_profiles() -> None:
    # 5 users with 6 actions each: 7^5 profiles, which the profile LPs
    # refuse; the multilinear extension builds no profile and is valued
    big = uniform_instance(5, (1.0, 1.2, 1.4), ((0.2, 0.4, 0.6),) * 5, K=2, B=9.0)
    actions = build_action_space(big)
    assert math.prod(1 + sum(a.user == u for a in actions) for u in range(5)) > MAX_LP_COLUMNS
    with pytest.raises(OracleSizeError):
        concave_relaxation_optimum(big)
    y = {a: F(1, 8) for a in actions}
    with pytest.raises(OracleSizeError):
        concave_extension_exact(big, y)
    assert multilinear_value_exact(big, y) == multilinear_by_user_subsets(big, y)


def test_multilinear_value_at_a_relax48_shaped_greedy_point() -> None:
    # 8 users with 6 actions each: 7^8 profiles and 2^48 action subsets, but
    # 2^6 action subsets per user and 2^8 seed masks over 2^10 live-edge
    # outcomes
    inst = relax48_shaped(0)
    y = continuous_greedy(inst, RelaxationConfig(delta=1 / 48, marginal_samples=10))
    assert len(y) == 48
    assert 0 < multilinear_value_exact(inst, y) == multilinear_by_user_subsets(inst, y)


def _fifteen_actions() -> Instance:
    """5 users with 3 actions each, 1,024 profiles."""
    return uniform_instance(
        5, (1.0, 1.2), ((0.2, 0.4), (0.3, 0.5), (0.1, 0.6), (0.5, 0.7), (0.4, 0.8)), K=2, B=3.0, W=2,
        edges=((0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.3)),
    )


def test_fifteen_actions_in_1024_profiles_evaluate() -> None:
    # a guard on 2^15 action subsets refused it
    inst = _fifteen_actions()
    actions = build_action_space(inst)
    assert len(actions) == 15
    # y spends at most B and W, so F(y) <= f+(y) <= OPT+
    y = {a: F(1, 8) for a in actions}
    assert 0 < multilinear_value_exact(inst, y) <= concave_relaxation_optimum(inst, use_W=True)


def _chain_instances() -> list[Instance]:
    """Three instances of 4 users with 3 actions each, W = 2."""
    gen = np.random.default_rng(44)
    out = []
    for _ in range(3):
        edges = []
        for s in range(4):
            for t in range(4):
                if s != t and gen.random() < 0.35:
                    edges.append((s, t, round(float(gen.uniform(0.2, 0.8)), 3)))
        out.append(uniform_instance(
            4, (1.0, 2.0, 4.0), [sorted_row(gen, 3) for _ in range(4)], K=2, B=4.0, W=2,
            edges=edges,
        ))
    return out


def test_relaxation_chain_multilinear_extension_optimum() -> None:
    # y from the continuous greedy is feasible for the beta-scaled region,
    # so F(y) <= f+(y) <= OPT+ holds exactly; the ratio F(y)/OPT+ is
    # reported beside (1-1/e)^2 * beta, not asserted: that bound holds only
    # up to the delta and marginal-sampling error, which is not derived here
    ratios = []
    floors = []
    for k, inst in enumerate(_chain_instances()):
        assert len(build_action_space(inst)) == 12
        config = RelaxationConfig(delta=0.25, marginal_samples=50, rng_seed=k)
        for use_W in (False, True):
            y = continuous_greedy(inst, config, use_W=use_W)
            lower = multilinear_value_exact(inst, y)
            upper = concave_extension_exact(inst, y)
            optimum = concave_relaxation_optimum(inst, use_W=use_W)
            assert lower <= upper <= optimum
            ratios.append(float(lower / optimum) if optimum else 1.0)
            floors.append((1 - 1 / math.e) ** 2 * config.resolved_beta(use_W))
    print(
        f"relaxation chain: F(y)/OPT+ {min(ratios):.3f}..{max(ratios):.3f} over {len(ratios)} points, "
        f"(1-1/e)^2*beta {min(floors):.3f}..{max(floors):.3f}"
    )


def test_relaxation_optimum_equals_the_simplex_formulation_without_the_simplex(monkeypatch) -> None:
    # the hull walk and the W-row multiplier search against the same profile
    # LP as a dense simplex tableau, exactly, up to 1,024 profiles; the
    # simplex is not called
    cases = [
        (inst, use_W)
        for inst in (*_chain_instances(), *_agreement_instances(), _fifteen_actions(), oracle4_shaped(0, users=5))
        for use_W in (False, True)
    ]
    expected = [relaxation_optimum_by_simplex(inst, use_W) for inst, use_W in cases]

    def maximize(*args):
        raise AssertionError("the simplex was called")

    monkeypatch.setattr(simplex, "maximize", maximize)
    assert [concave_relaxation_optimum(inst, use_W) for inst, use_W in cases] == expected


def test_concave_extension_linear_for_modular_f() -> None:
    # no edges and one action per user: f is additive over actions
    inst = uniform_instance(3, (1.0,), ((0.3,), (0.5,), (0.7,)), K=1, B=9.0)
    actions = build_action_space(inst)
    y = {a: F(1, 3) for a in actions}
    linear = sum(
        F(1, 3) * multilinear_value_exact(inst, dict.fromkeys([a], 1)) for a in actions
    )
    assert concave_extension_exact(inst, y) == linear
    assert multilinear_value_exact(inst, y) == linear


def test_concave_dominates_multilinear_pointwise() -> None:
    gen = np.random.default_rng(25)
    inst = uniform_instance(
        2, (1.0, 1.4), ((0.3, 0.6), (0.5, 0.8)), K=2, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    for _ in range(5):
        y = {
            a: F(int(gen.integers(0, 5)), 8) for a in actions
        }
        # keep per-user mass inside the simplex
        for user in range(2):
            mass = sum(y[a] for a in actions if a.user == user)
            if mass > 1:
                for a in actions:
                    if a.user == user:
                        y[a] = y[a] / mass
        upper = concave_extension_exact(inst, y)
        lower = multilinear_value_exact(inst, y)
        assert upper >= lower


def test_relaxation_optimum_dominates_integral_solutions() -> None:
    inst = uniform_instance(
        2, (1.0, 1.4), ((0.3, 0.6), (0.5, 0.8)), K=1, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    assert len(actions) <= 6
    for use_W, cap in ((False, None), (True, 1)):
        trial = inst if not use_W else uniform_instance(
            2, inst.coupons, inst.attractiveness, K=1, B=3.0, W=cap,
            edges=inst.graph.edges,
        )
        optimum = concave_relaxation_optimum(trial, use_W=use_W)
        for r in range(len(actions) + 1):
            for subset in itertools.combinations(actions, r):
                users = [a.user for a in subset]
                if len(set(users)) < len(users):
                    continue
                if use_W and len(subset) > cap:
                    continue
                cost = sum(
                    (
                        F(trial.attractiveness[a.user][a.coupons[-1]])
                        * F(trial.coupons[a.coupons[-1]])
                        for a in subset
                    ),
                    F(0),
                )
                if cost > F(trial.B):
                    continue
                assert optimum >= multilinear_value_exact(trial, dict.fromkeys(subset, 1))


def test_exact_action_set_value_of_two_independent_seeds() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=3.0)
    actions = build_action_space(inst)
    exact = float(multilinear_value_exact(inst, dict.fromkeys(actions, 1)))
    assert exact == pytest.approx(1.0)  # two independent 0.5 seeds, no edges
