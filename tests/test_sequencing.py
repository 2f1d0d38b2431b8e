from __future__ import annotations

import itertools
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import influence, sequencing
from couponprobe.cli import make_policy
from couponprobe.influence import BLOCK, Graph, singleton_influence_table
from couponprobe.model import Instance, check_steps
from couponprobe.relaxation import RelaxationConfig
from couponprobe.rounding import Alg1Policy
from couponprobe.sequencing import (
    Alg2Policy,
    StochCpPolicy,
    UnsolvableError,
    alg2_dp,
    alg2_plan,
    alg2_value,
    budgeted_first_accept_plan,
    evaluate_policy,
    first_accept_value,
)

from helpers import (
    alg2_execute,
    check_trace,
    dp_brute_force,
    evaluate_world_by_world,
    forty_users,
    make_world,
    mixed_graph,
    sim16_shaped_graph,
    traced_peak,
    uniform_instance,
    wide_graph,
)

F = Fraction


def _inst(probs, coupons=(1.0,), B=1.0, K=1, W=None, edges=()):
    rows = tuple((p,) * len(coupons) if not isinstance(p, tuple) else p for p in probs)
    return uniform_instance(len(probs), coupons, rows, K=K, B=B, W=W, edges=edges)


# -------------------------------------------------------- closed-form pieces


def test_first_accept_value_stays_exact_over_fractions() -> None:
    value = first_accept_value([F(1, 2), F(1, 3)], [F(3), F(2)])
    assert value == F(1, 2) * 3 + F(1, 2) * F(1, 3) * 2
    assert isinstance(value, Fraction)


def test_first_accept_value_empty() -> None:
    assert first_accept_value([], []) == 0


def test_alg2_value_single_user() -> None:
    inst = _inst([0.5])
    table = {0: 2.0}
    order = alg2_plan(inst, table)
    assert alg2_value(inst, order, table) == pytest.approx(1.0)


def test_alg2_value_absorbing_first_probe() -> None:
    inst = _inst([1.0, 0.3])
    table = {0: 2.0, 1: 1.0}
    order = alg2_plan(inst, table)
    assert order == (0, 1)
    assert alg2_value(inst, order, table) == pytest.approx(2.0)


def test_alg2_value_three_user_chain() -> None:
    inst = _inst([0.5, 0.5, 0.5])
    table = {0: 3.0, 1: 2.0, 2: 1.0}
    order = alg2_plan(inst, table)
    assert alg2_value(inst, order, table) == pytest.approx(2.125)


# ---------------------------------------------------------------- alg2_plan


def test_plan_sorts_by_influence_descending() -> None:
    inst = _inst([0.5, 0.5, 0.5])
    order = alg2_plan(inst, {0: 1.0, 1: 3.0, 2: 2.0})
    assert order == (1, 2, 0)


def test_plan_breaks_ties_by_id() -> None:
    inst = _inst([0.5, 0.5, 0.5])
    order = alg2_plan(inst, {0: 1.0, 1: 1.0, 2: 1.0})
    assert order == (0, 1, 2)


def test_plan_uses_cmax() -> None:
    inst = _inst([(0.2, 0.6)], coupons=(1.0, 2.0), B=3.0)
    order = alg2_plan(inst, {0: 1.0})
    # priced at the largest coupon's acceptance, 0.6, not the smaller one's 0.2
    assert alg2_value(inst, order, {0: 1.0}) == 0.6


def test_plan_on_real_graph_follows_exact_influence() -> None:
    inst = _inst(
        [0.5] * 5, B=2.0,
        edges=((0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.2)),
    )
    table = singleton_influence_table(inst.graph)
    order = alg2_plan(inst, table)
    ranked = sorted(range(5), key=lambda v: (-table[v], v))
    assert list(order) == ranked


# -------------------------------------------------- greedy order optimality


def test_greedy_order_is_optimal_over_all_permutations() -> None:
    gen = np.random.default_rng(14)
    for n in (2, 3, 4, 5):
        for _ in range(6):
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
            assert greedy_value == best  # exact rationals, no slack needed


def test_adjacent_swap_never_helps() -> None:
    gen = np.random.default_rng(6)
    for _ in range(50):
        n = int(gen.integers(2, 6))
        probs = [F(int(gen.integers(1, 10)), 10) for _ in range(n)]
        infl = sorted((F(int(gen.integers(1, 9))) for _ in range(n)), reverse=True)
        base = first_accept_value(probs, infl)
        i = int(gen.integers(0, n - 1))
        swapped_p = probs.copy()
        swapped_i = infl.copy()
        swapped_p[i], swapped_p[i + 1] = swapped_p[i + 1], swapped_p[i]
        swapped_i[i], swapped_i[i + 1] = swapped_i[i + 1], swapped_i[i]
        assert first_accept_value(swapped_p, swapped_i) <= base


def test_value_monotone_in_acceptance_probability() -> None:
    gen = np.random.default_rng(21)
    inst = _inst([0.4, 0.5, 0.6])
    table = {0: 3.0, 1: 2.0, 2: 1.5}
    order = alg2_plan(inst, table)
    base = alg2_value(inst, order, table)
    for v in range(3):
        row = list(inst.attractiveness)
        bumped_p = min(1.0, inst.attractiveness[v][0] + 0.2)
        row[v] = (bumped_p,)
        bumped = uniform_instance(3, (1.0,), tuple(row), K=1, B=1.0)
        assert alg2_value(bumped, order, table) >= base - 1e-12


# -------------------------------------------------------------- alg2_execute


def test_execute_stops_at_first_accept() -> None:
    inst = _inst([0.5, 0.5, 0.5])
    order = alg2_plan(inst, {0: 3.0, 1: 2.0, 2: 1.0})
    trace = alg2_execute(inst, order, make_world([0.9, 0.4, 0.9]))
    assert [(s.user, s.accepted) for s in trace.steps] == [(0, False), (1, True)]
    assert trace.seeds == frozenset({1})
    assert trace.budget_after[-1] == pytest.approx(0.0)


def test_execute_exhausts_on_all_rejects() -> None:
    inst = _inst([0.5, 0.5, 0.5])
    order = alg2_plan(inst, {0: 3.0, 1: 2.0, 2: 1.0})
    trace = alg2_execute(inst, order, make_world([0.9, 0.9, 0.9]))
    assert len(trace.steps) == 3
    assert trace.seeds == frozenset()


def test_execute_guards_oversized_cmax() -> None:
    inst = _inst([0.5], coupons=(2.0,), B=1.0)
    order = alg2_plan(inst, {0: 1.0})
    with pytest.raises(ValueError):
        alg2_execute(inst, order, make_world([0.4]))
    with pytest.raises(ValueError):
        Alg2Policy(inst)


def test_closed_form_matches_simulation() -> None:
    inst = _inst([0.5, 0.7, 0.2], B=2.0, edges=((0, 1, 0.5),))
    table = singleton_influence_table(inst.graph)
    policy = Alg2Policy(inst, singleton_table=table)
    want = alg2_value(inst, alg2_plan(inst, table), table)
    result = evaluate_policy(inst, policy, worlds=20_000, rng_seed=3)
    assert abs(result.mean - want) <= 4 * max(result.stderr, 1e-12)
    assert result.violations == 0


# ------------------------------------------------------------------ alg2_dp


def test_dp_equals_full_greedy_when_w_not_binding() -> None:
    inst = _inst([0.5, 0.5, 0.5], W=3)
    table = {0: 3.0, 1: 2.0, 2: 1.0}
    values, order = alg2_dp(inst, table, W=3)
    assert values[-1][-1] == alg2_value(inst, alg2_plan(inst, table), table)
    assert order == (0, 1, 2)


def test_dp_single_probe_takes_argmax_product() -> None:
    inst = _inst([0.9, 0.5, 0.4], W=1)
    table = {0: 1.0, 1: 3.0, 2: 2.0}
    values, order = alg2_dp(inst, table, W=1)
    products = {v: F(inst.attractiveness[v][0]) * F(table[v]) for v in range(3)}
    best = max(products.values())
    assert F(values[-1][-1]) == best
    assert len(order) == 1
    assert products[order[0]] == best


def test_dp_matches_brute_force_exactly() -> None:
    gen = np.random.default_rng(19)
    for trial in range(8):
        n = int(gen.integers(4, 9))
        W = int(gen.integers(1, 5))
        p_vals = [round(float(gen.uniform(0.05, 0.95)), 3) for _ in range(n)]
        i_vals = [round(float(gen.uniform(1.0, 6.0)), 3) for _ in range(n)]
        inst = _inst(p_vals, W=W)
        table = {v: i_vals[v] for v in range(n)}
        values, order = alg2_dp(inst, table, W=W)
        want = dp_brute_force(
            [F(p) for p in p_vals], [F(i) for i in i_vals], W
        )
        # the table runs on exact rationals internally and rounds only on
        # output, so it agrees with the rational brute force to the last bit
        assert values[-1][-1] == float(want), f"trial {trial}"
        exact_values, _ = budgeted_first_accept_plan(
            [F(p_vals[v]) for v in reversed(sorted(range(n), key=lambda u: (-i_vals[u], u)))],
            [F(i_vals[v]) for v in reversed(sorted(range(n), key=lambda u: (-i_vals[u], u)))],
            W,
        )
        assert exact_values[-1][-1] == want, f"trial {trial}"
        assert len(order) <= W
        # the reported order reproduces the optimal value
        replay = first_accept_value(
            [F(inst.attractiveness[v][0]) for v in order],
            [F(table[v]) for v in order],
        )
        assert replay == want


def test_dp_table_monotone() -> None:
    inst = _inst([0.3, 0.8, 0.5, 0.6], W=3)
    table = {0: 4.0, 1: 1.0, 2: 3.0, 3: 2.0}
    values, _ = alg2_dp(inst, table, W=3)
    for row in values:
        assert row[0] == 0.0
        for lo, hi in zip(row, row[1:]):
            assert hi >= lo
    for prev, cur in zip(values, values[1:]):
        for l in range(len(prev)):
            assert cur[l] >= prev[l]


def test_generic_plan_helper_reports_choices() -> None:
    # ascending-influence input: taking only the second (stronger) candidate
    # is optimal under a budget of one probe
    values, chosen = budgeted_first_accept_plan([F(1, 2), F(1, 2)], [F(1), F(2)], 1)
    assert values[-1][-1] == F(1)
    assert chosen == [1]


# ------------------------------------------------------------------ stoch-CP


def _straddle_instance(W=None):
    return uniform_instance(
        3, (1.0, 2.0), ((0.4, 0.6), (0.3, 0.8), (0.5, 0.7)), K=1, B=3.0, W=W,
    )


def test_combiner_flips_a_fair_coin() -> None:
    inst = _straddle_instance()
    config = RelaxationConfig(delta=0.25, marginal_samples=60, rng_seed=0)
    policy = StochCpPolicy(inst, config)
    assert policy.alg1_weight == 0.5
    result = evaluate_policy(inst, policy, worlds=10_000, rng_seed=1)
    freq = result.branch_counts["alg1"] / result.worlds
    assert freq == pytest.approx(0.5, abs=0.02)
    assert result.violations == 0


def test_combiner_falls_back_to_alg2_without_low_coupons() -> None:
    inst = uniform_instance(2, (2.0,), ((0.5,), (0.6,)), K=1, B=3.0)
    policy = StochCpPolicy(inst, RelaxationConfig(marginal_samples=50))
    assert policy.alg1_weight == 0.0
    result = evaluate_policy(inst, policy, worlds=200, rng_seed=2)
    assert result.branch_counts == {"alg2": 200}


def test_combiner_prefers_alg1_when_all_coupons_are_low() -> None:
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.6,)), K=1, B=3.0)
    config = RelaxationConfig(delta=0.5, marginal_samples=50, rng_seed=0)
    policy = StochCpPolicy(inst, config)
    assert policy.alg1_weight == 1.0
    result = evaluate_policy(inst, policy, worlds=200, rng_seed=3)
    assert result.branch_counts == {"alg1": 200}


def test_combiner_runs_alg1_alone_when_cmax_overflows_budget() -> None:
    inst = uniform_instance(2, (1.0, 9.0), ((0.5, 0.6), (0.5, 0.9)), K=1, B=3.0)
    config = RelaxationConfig(delta=0.5, marginal_samples=50, rng_seed=0)
    policy = StochCpPolicy(inst, config)
    assert policy.alg1_weight == 1.0


def test_combiner_reports_unsolvable_instances() -> None:
    inst = uniform_instance(2, (9.0,), ((0.5,), (0.6,)), K=1, B=3.0)
    with pytest.raises(UnsolvableError):
        StochCpPolicy(inst, RelaxationConfig())
    zero_k = uniform_instance(2, (1.0,), ((0.5,), (0.6,)), K=0, B=3.0)
    with pytest.raises(UnsolvableError):
        StochCpPolicy(zero_k, RelaxationConfig())


def test_extended_combiner_traces_respect_w() -> None:
    inst = _straddle_instance(W=1)
    config = RelaxationConfig(delta=0.25, marginal_samples=60, rng_seed=0)
    policy = StochCpPolicy(inst, config, extended=True)
    result = evaluate_policy(inst, policy, worlds=500, rng_seed=7)
    assert result.violations == 0


# ------------------------------------------------------------ evaluate_policy


def test_evaluate_never_probe_policy_is_zero() -> None:
    inst = _inst([0.5, 0.5])  # no coupon is worth at most B/2, so alg1 probes nobody
    idle = Alg1Policy(inst, RelaxationConfig())
    assert idle.vacuous
    result = evaluate_policy(inst, idle, worlds=50, rng_seed=0)
    assert result.mean == 0.0
    assert result.stderr == 0.0
    assert result.violations == 0


def test_evaluate_single_user_closed_form() -> None:
    inst = _inst([0.5])
    policy = Alg2Policy(inst, singleton_table={0: 1.0})
    result = evaluate_policy(inst, policy, worlds=20_000, rng_seed=11)
    stderr = max(result.stderr, 1e-12)
    assert abs(result.mean - 0.5) <= 4 * stderr


def test_evaluate_requires_worlds() -> None:
    inst = _inst([0.5])
    with pytest.raises(ValueError):
        evaluate_policy(inst, Alg2Policy(inst), worlds=0)
    # a bool, a float or a string is not read as a count
    for worlds in (True, 3.0, -1, "5"):
        with pytest.raises(ValueError, match=re.escape(f"worlds must be a positive integer, got {worlds!r}")):
            evaluate_policy(inst, Alg2Policy(inst), worlds=worlds)
    assert evaluate_policy(inst, Alg2Policy(inst), worlds=np.int64(3)).worlds == 3


def test_evaluate_reads_the_seed_as_a_count() -> None:
    inst = _inst([0.5])
    for seed in ("3", True, -1, 2.5):
        with pytest.raises(ValueError, match=re.escape(f"rng_seed must be a non-negative integer, got {seed!r}")):
            evaluate_policy(inst, Alg2Policy(inst), worlds=10, rng_seed=seed)
    assert evaluate_policy(inst, Alg2Policy(inst), 10, np.int64(3)) == evaluate_policy(inst, Alg2Policy(inst), 10, 3)


def test_evaluate_rejects_other_policy_types() -> None:
    inst = _inst([0.5])
    for policy in (lambda world, rng: None, Alg2Policy(inst).order, None):
        with pytest.raises(TypeError, match=type(policy).__name__):
            evaluate_policy(inst, policy, worlds=10)


# ------------------------------------------------------ worlds in blocks


def _on_graph(graph: Graph, rows=None, coupons=(1.0, 2.0), K=1) -> Instance:
    # the coupons up to 1.5 are low-value and the largest is alg2's, so
    # stoch-cp flips its coin; W = 3 < n for e-alg2
    gen = np.random.default_rng(graph.node_count)
    if rows is None:
        rows = [tuple(sorted(round(float(x), 3) for x in gen.uniform(0.05, 0.6, len(coupons))))
                for _ in range(graph.node_count)]
    return Instance(graph=graph, coupons=coupons, attractiveness=tuple(rows), K=K, B=3.0, W=3)


def _flag_position_one(instance, trace, extended=False):
    # flags every trace that stops after two offers, so one alg2 position
    return ["flagged"] if len(trace.steps) == 2 else check_trace(instance, trace, extended=extended)


def _flag_two_offers(instance, steps, seeded, extended=False):
    # _flag_position_one's rule for the block checker: rows with exactly two offers
    return ((steps.offers >= 0).sum(axis=(1, 2)) == 2) | check_steps(instance, steps, seeded, extended)


_BLOCK_CASES = {
    "forced-and-dead-edges": lambda: _on_graph(mixed_graph()),
    # the probed coupon's attractiveness is exactly 0 for users 0 and 2 and
    # exactly 1 for user 4, so every world stops at user 4 at the latest
    "attractiveness-0-and-1": lambda: _on_graph(mixed_graph(), [
        (0.0, 0.0), (0.2, 0.3), (0.0, 0.0), (0.1, 0.25), (0.5, 1.0), (0.3, 0.4), (0.05, 0.1),
    ]),
    "130-nodes": lambda: _on_graph(wide_graph()),
    # three alg1 actions per user ({1.0}, {1.5}, {1.0, 1.5}), so contention has contenders
    "three-actions-per-user": lambda: _on_graph(mixed_graph(), coupons=(1.0, 1.5, 3.0), K=2),
    "check-flags-one-position": lambda: _on_graph(mixed_graph()),
}


@pytest.mark.parametrize("name", ["alg1", "e-alg1", "alg2", "e-alg2", "stoch-cp"])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_scoring_matches_world_by_world(case, name, monkeypatch) -> None:
    inst = _BLOCK_CASES[case]()
    policy = make_policy(name, inst, RelaxationConfig(delta=0.25, marginal_samples=20))
    check = check_trace
    if case == "check-flags-one-position":
        check = _flag_position_one
        monkeypatch.setattr(sequencing, "check_steps", _flag_two_offers)
    worlds = 2 * BLOCK + 37  # two full blocks and a partial one
    values, want = evaluate_world_by_world(inst, policy, worlds, 41, check)
    chunks = list(sequencing._simulate(inst, policy, worlds, 41))
    # chunks of one size split each block, the last of a block shorter: a
    # block's whole on the small graphs, on 130 nodes fewer worlds
    size = len(chunks[0][0])
    assert [len(v) for v, _, _ in chunks] == _chunk_lengths((BLOCK, BLOCK, 37), size)
    assert (size == BLOCK) == (case != "130-nodes")
    assert np.concatenate([v for v, _, _ in chunks]).tolist() == values
    got = evaluate_policy(inst, policy, worlds, 41)
    assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex())
    assert got.violations == want.violations
    assert got.branch_counts == want.branch_counts
    if check is _flag_position_one:
        assert 0 < got.violations < worlds
    else:
        assert got.violations == 0


def _chunk_lengths(blocks: tuple[int, ...], size: int) -> list[int]:
    # each block's rows split into chunks of size, the last shorter
    return [min(size, rows - first) for rows in blocks for first in range(0, rows, size)]


def test_block_scoring_does_not_depend_on_kernel_chunks(monkeypatch) -> None:
    # 710 bytes split each block into kernel chunks of three worlds
    inst = _on_graph(mixed_graph())
    policy = Alg2Policy(inst)
    want = evaluate_policy(inst, policy, BLOCK + 300, 6)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 710)
    assert influence._chunk_columns(inst.graph) < 10
    assert evaluate_policy(inst, policy, BLOCK + 300, 6) == want
    values, _ = evaluate_world_by_world(inst, policy, BLOCK + 300, 6)
    assert np.concatenate([v for v, _, _ in sequencing._simulate(inst, policy, BLOCK + 300, 6)]).tolist() == values


@pytest.mark.parametrize("name", ["e-alg1", "stoch-cp"])
def test_alg1_blocks_do_not_depend_on_draw_chunks(name, monkeypatch) -> None:
    # 1500 bytes split each block's draws, rounding draws included, into
    # chunks of a few worlds
    inst = _on_graph(mixed_graph())
    policy = make_policy(name, inst, RelaxationConfig(delta=0.25, marginal_samples=20))
    want = list(sequencing._simulate(inst, policy, BLOCK + 300, 6))
    assert [len(v) for v, _, _ in want] == [BLOCK, 300]
    monkeypatch.setattr(influence, "KERNEL_BYTES", 1500)
    got = list(sequencing._simulate(inst, policy, BLOCK + 300, 6))
    size = len(got[0][0])
    assert size < 10 and [len(v) for v, _, _ in got] == _chunk_lengths((BLOCK, 300), size)
    assert np.concatenate([v for v, _, _ in got]).tolist() == np.concatenate([v for v, _, _ in want]).tolist()
    assert sum(bad for _, bad, _ in got) == sum(bad for _, bad, _ in want)
    assert _summed_notes(got) == _summed_notes(want)


@pytest.mark.parametrize("name", ["alg1", "stoch-cp"])
def test_evaluation_keeps_its_worlds_within_the_memory_bound(name, monkeypatch) -> None:
    # 160 actions: a world's rounding draws take 5 KB, so at a 64 KB bound
    # the chunks keep the peak within 4x the bound, with the same values as
    # at the default bound
    inst = forty_users()
    policy = make_policy(name, inst, RelaxationConfig(delta=0.25, marginal_samples=20))
    want = evaluate_policy(inst, policy, 300, 3)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 64 << 10)
    got, peak = traced_peak(lambda: evaluate_policy(inst, policy, 300, 3))
    assert got == want and want.mean > 0
    assert peak <= 4 * influence.KERNEL_BYTES, f"peak {peak} bytes"


def _summed_notes(chunks) -> dict[str, int]:
    total: dict[str, int] = {}
    for _, _, notes in chunks:
        for note, count in notes.items():
            total[note] = total.get(note, 0) + count
    return total


def _values(inst, policy, worlds: int, seed: int) -> np.ndarray:
    return np.concatenate([v for v, _, _ in sequencing._simulate(inst, policy, worlds, seed)])


def test_world_i_depends_only_on_seed_and_i() -> None:
    inst = _on_graph(mixed_graph())
    n = BLOCK + 5  # ends in a partial block; 2n + 7 worlds end in another
    for name in ("alg1", "alg2", "stoch-cp"):
        policy = make_policy(name, inst, RelaxationConfig(delta=0.25, marginal_samples=20))
        short, long = _values(inst, policy, n, 8), _values(inst, policy, 2 * n + 7, 8)
        assert long[:n].tolist() == short.tolist()
        assert long[n:].any()
        # world i is row i % BLOCK of block i // BLOCK, as block_worlds draws it
        assert short.tolist() == evaluate_world_by_world(inst, policy, n, 8)[0]


def test_policies_with_one_seed_see_the_same_worlds() -> None:
    # stoch-cp's values are alg1's on its heads worlds and alg2's on the
    # others: neither the worlds nor alg1's rounding draws depend on the coin
    inst = _on_graph(mixed_graph())
    worlds = BLOCK + 300
    config = RelaxationConfig(delta=0.25, marginal_samples=20)
    values = {name: _values(inst, make_policy(name, inst, config), worlds, 12) for name in ("alg1", "alg2", "stoch-cp")}
    coins = np.concatenate([np.random.default_rng([12, b, 2]).random(min(BLOCK, worlds - start))
                            for b, start in enumerate(range(0, worlds, BLOCK))])
    heads = coins < 0.5
    assert 0 < heads.sum() < worlds
    assert values["stoch-cp"].tolist() == np.where(heads, values["alg1"], values["alg2"]).tolist()
    assert (values["alg1"] != values["alg2"]).any()


def _check_position_verdicts(inst, order: tuple[int, ...], extended: bool) -> np.ndarray:
    """_position_verdicts against check_trace on alg2_execute's trace in a
    world where only the user at the position accepts (the last entry:
    nobody accepts)."""
    got = sequencing._position_verdicts(inst, order, extended)
    want = []
    for k in range(len(order) + 1):
        thresholds = [2.0] * inst.n_users
        if k < len(order):
            thresholds[order[k]] = 0.0
        trace = alg2_execute(inst, order, make_world(thresholds))
        assert len(trace.steps) == min(k + 1, len(order))
        want.append(bool(check_trace(inst, trace, extended=extended)))
    assert got.tolist() == want
    return got


@pytest.mark.parametrize("name", ["alg2", "e-alg2"])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_position_verdicts_match_check_trace(case, name) -> None:
    inst = _BLOCK_CASES[case]()
    policy = make_policy(name, inst, RelaxationConfig())
    assert not _check_position_verdicts(inst, policy.order, policy.extended).any()


def test_position_verdicts_flag_orders_longer_than_w() -> None:
    inst = _on_graph(mixed_graph())  # W = 3
    order = (4, 0, 6, 2, 5)
    # a run that reaches a fourth user probes more than W
    assert _check_position_verdicts(inst, order, True).tolist() == [False] * 3 + [True] * 3
    assert not _check_position_verdicts(inst, order, False).any()
    assert _check_position_verdicts(inst, (), True).tolist() == [False]


def test_million_world_alg2_evaluation_is_bounded() -> None:
    # tracemalloc sees numpy's buffers, so its peak bounds what the run adds to RSS
    gen = np.random.default_rng(3)
    rows = [(round(float(gen.uniform(0.05, 0.3)), 3), round(float(gen.uniform(0.35, 0.5)), 3))
            for _ in range(16)]
    inst = Instance(graph=sim16_shaped_graph(), coupons=(1.0, 3.0), attractiveness=tuple(rows), K=1, B=3.0)
    policy = Alg2Policy(inst)
    evaluate_policy(inst, policy, 100, 0)
    tracemalloc.start()
    start = time.perf_counter()
    result = evaluate_policy(inst, policy, 10**6, 0)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.worlds == 10**6 and result.violations == 0
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MB"
    assert elapsed < 60, f"{elapsed:.1f} s"
    closed = alg2_value(inst, policy.order, policy.table)
    assert abs(result.mean - closed) <= 4 * result.stderr
    print(f"10^6 alg2 worlds: {elapsed:.2f} s, traced peak {peak / 2**20:.2f} MB")
