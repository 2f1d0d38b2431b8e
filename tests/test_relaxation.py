from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from couponprobe import influence, relaxation, simplex
from couponprobe.influence import BLOCK
from couponprobe.model import COST_MODES, Action, build_action_space, scaled_integers, user_groups
from couponprobe.oracle import multilinear_value_exact
from couponprobe.relaxation import (
    RelaxationConfig,
    _cost_runs,
    _knapsack_optimum,
    check_fractional,
    continuous_greedy,
    default_beta_basic,
    default_beta_extended,
    estimate_marginals,
    solve_lp,
)

from helpers import (
    act,
    forty_users,
    action_set_utility,
    continuous_greedy_by_dicts,
    knapsack_optimum_by_fractions,
    make_world,
    marginals_by_utility,
    mirror_lp,
    oracle4_shaped,
    relax48_shaped,
    single_user,
    sorted_row,
    threshold_cost,
    traced_peak,
    uniform_instance,
    vertex_enumerate_max,
)

F = Fraction


# ------------------------------------------------------------------- simplex


def test_simplex_box() -> None:
    value, x = simplex.maximize(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)]],
        [F(1), F(2)],
    )
    assert value == 3
    assert x == [F(1), F(2)]


def test_simplex_knapsack_fraction() -> None:
    # one knapsack row: best puts everything on the densest item
    value, x = simplex.maximize(
        [F(3), F(2)],
        [[F(2), F(1)], [F(1), F(0)], [F(0), F(1)]],
        [F(1), F(1), F(1)],
    )
    assert value == F(2)  # x = (0, 1): density 2 beats 3/2
    assert x == [F(0), F(1)]


def test_simplex_stops_at_the_pivot_limit(monkeypatch) -> None:
    # the box LP above takes two pivots, one per variable, over a tableau of
    # 3 rows and 5 columns: 30 cell updates
    box = ([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)])
    monkeypatch.setattr(simplex, "MAX_PIVOT_CELLS", 29)
    with pytest.raises(ValueError) as err:
        simplex.maximize(*box)
    assert str(err.value) == (
        "the simplex needs 30 cell updates (2 pivots so far x 3 x 5 tableau cells), above the limit of 29"
    )
    monkeypatch.setattr(simplex, "MAX_PIVOT_CELLS", 30)
    assert simplex.maximize(*box)[0] == 3


def test_simplex_detects_unbounded() -> None:
    with pytest.raises(ValueError):
        simplex.maximize([F(1)], [[F(-1)]], [F(1)])


def test_simplex_rejects_negative_rhs() -> None:
    with pytest.raises(ValueError):
        simplex.maximize([F(1)], [[F(1)]], [F(-1)])


def test_simplex_survives_degenerate_cycling_example() -> None:
    # classic cycling instance for the wrong pivot rule; Bland terminates
    value, _ = simplex.maximize(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        [F(0), F(0), F(1)],
    )
    assert value == F(1, 20)


def test_simplex_matches_vertex_enumeration_on_random_lps() -> None:
    gen = np.random.default_rng(12)
    for _ in range(15):
        n = int(gen.integers(2, 5))
        m = int(gen.integers(1, 4))
        obj = [F(int(gen.integers(-4, 6)), int(gen.integers(1, 4))) for _ in range(n)]
        lhs = [
            [F(int(gen.integers(0, 5)), 1) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [F(int(gen.integers(1, 8)), 1) for _ in range(m)]
        # cap each variable so the region is bounded even with zero rows
        for i in range(n):
            lhs.append([F(1 if j == i else 0) for j in range(n)])
            rhs.append(F(3))
        value, _ = simplex.maximize(obj, lhs, rhs)
        assert value == vertex_enumerate_max(obj, lhs, rhs)


# -------------------------------------------------------- action_set_utility


def test_utility_of_empty_set_is_zero() -> None:
    inst = single_user(0.5)
    assert action_set_utility(inst, [], make_world([0.2])) == 0


def test_utility_single_seed_no_spread() -> None:
    inst = single_user(0.5)
    assert action_set_utility(inst, [act(0, 0)], make_world([0.4])) == 1
    assert action_set_utility(inst, [act(0, 0)], make_world([0.6])) == 0


def test_utility_uses_max_coupon_per_user() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.4, 0.7),), K=2, B=10.0)
    both = [act(0, 0), act(0, 1)]
    # union semantics: seeded iff the best offered coupon would be accepted
    for sigma in (0.05, 0.35, 0.4, 0.55, 0.7, 0.95):
        got = action_set_utility(inst, both, make_world([sigma]))
        assert got == (1 if sigma <= 0.7 else 0)


def test_utility_ignores_budget() -> None:
    # utilities feed the extension estimate, which is unconstrained by design
    inst = uniform_instance(3, (1.0,), ((1.0,),) * 3, K=1, B=1.0)
    actions = [act(0, 0), act(1, 0), act(2, 0)]
    world = make_world([0.5, 0.5, 0.5])
    assert action_set_utility(inst, actions, world) == 3


# ---------------------------------------------------------- estimate_marginals


def test_marginals_at_zero_match_acceptance_probability() -> None:
    inst = uniform_instance(2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=2, B=3.0)
    actions = build_action_space(inst)
    y = {a: F(0) for a in actions}
    config = RelaxationConfig(marginal_samples=4000, rng_seed=5)
    omega = estimate_marginals(inst, y, config)
    for a in actions:
        best = max(a.coupons)
        p = inst.attractiveness[a.user][best]
        stderr = math.sqrt(p * (1 - p) / 4000)
        assert abs(omega[a] - p) <= 4 * max(stderr, 1e-12)


def test_marginal_of_dominated_action_is_zero_when_forced_in() -> None:
    inst = uniform_instance(1, (1.0, 1.2), ((0.3, 0.5),), K=1, B=3.0)
    big, small = act(0, 1), act(0, 0)
    y = {big: F(1), small: F(0)}
    omega = estimate_marginals(inst, y, RelaxationConfig(marginal_samples=500, rng_seed=2))
    # the larger coupon is always present, so adding the smaller changes nothing
    assert omega[small] == 0.0


def test_marginals_nonnegative_and_deterministic() -> None:
    inst = uniform_instance(
        2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=2, B=3.0,
        edges=((0, 1, 0.5),),
    )
    actions = build_action_space(inst)
    y = {a: F(1, 8) for a in actions}
    config = RelaxationConfig(marginal_samples=300, rng_seed=7)
    first = estimate_marginals(inst, y, config)
    second = estimate_marginals(inst, y, config)
    assert first == second
    assert all(v >= 0.0 for v in first.values())
    shifted = estimate_marginals(inst, y, config, iteration=1)
    assert shifted != first  # distinct per-iteration sample streams


def _marginals_instance():
    # forced (1.0), dead (0.0) and uncertain edges; user 0 never takes coupon 0
    inst = uniform_instance(
        4, (1.0, 1.5, 2.0),
        ((0.0, 0.3, 0.6), (0.2, 0.5, 0.9), (0.1, 0.1, 0.4), (0.5, 0.7, 1.0)),
        K=2, B=5.0,
        edges=((0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.5), (3, 0, 0.35), (1, 3, 0.6)),
    )
    actions = build_action_space(inst)
    assert len(actions) == 24
    masses = (F(0), F(1), F(1, 3), F(0), F(1, 8), F(1, 2), F(0))
    # a y whose keys are not grouped by user, as estimate_marginals allows
    return inst, {a: masses[i % len(masses)] for i, a in enumerate(actions[1::2] + actions[::2])}


def test_marginals_match_the_per_action_utility_loop() -> None:
    # 1500 samples span two blocks of BLOCK = 1024
    inst, y = _marginals_instance()
    for rng_seed, iteration, samples in ((0, 0, 1), (1, 3, 300), (17, 1, 300), (5, 2, 1500)):
        config = RelaxationConfig(marginal_samples=samples, rng_seed=rng_seed)
        got = estimate_marginals(inst, y, config, iteration)
        want = marginals_by_utility(inst, y, config, iteration)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        assert any(got.values()) or samples == 1


def test_marginals_match_the_per_action_utility_loop_with_users_out_of_order() -> None:
    # the last user's actions come first, so users are grouped in the order
    # of their first action, not by id
    inst, y = _marginals_instance()
    y = dict(reversed(y.items()))
    assert next(iter(y)).user == inst.n_users - 1
    config = RelaxationConfig(marginal_samples=300, rng_seed=4)
    got = estimate_marginals(inst, y, config, 2)
    want = marginals_by_utility(inst, y, config, 2)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert any(got.values())


def test_marginals_match_the_reference_on_gridded_draws(monkeypatch) -> None:
    # draws on a 0.1 grid put thresholds exactly on attractiveness values,
    # where a user accepts, and edge and presence uniforms on their cutoffs
    default_rng = np.random.default_rng

    class Gridded:
        def __init__(self, seed):
            self.gen = default_rng(seed)

        def random(self, shape):
            return np.floor(self.gen.random(shape) * 10) / 10

    monkeypatch.setattr(np.random, "default_rng", Gridded)
    inst, y = _marginals_instance()
    config = RelaxationConfig(marginal_samples=300, rng_seed=2)
    got = estimate_marginals(inst, y, config, 1)
    want = marginals_by_utility(inst, y, config, 1)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def test_marginals_do_not_depend_on_kernel_chunks(monkeypatch) -> None:
    # 1500 bytes split each block into kernel chunks of a few samples
    inst, y = _marginals_instance()
    config = RelaxationConfig(marginal_samples=1500, rng_seed=5)
    whole = estimate_marginals(inst, y, config, 2)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 1500)
    assert influence._chunk_columns(inst.graph) < 100
    chunked = estimate_marginals(inst, y, config, 2)
    assert [v.hex() for v in chunked.values()] == [v.hex() for v in whole.values()]


def _instance_48():
    # 48 actions, as on the relax48 benchmark shape
    gen = np.random.default_rng(48)
    edges = ((0, 1, 0.3), (1, 2, 0.5), (2, 3, 0.2), (3, 4, 0.6), (4, 5, 0.4),
             (5, 6, 0.1), (6, 7, 0.5), (7, 0, 0.3), (2, 6, 0.45), (5, 1, 0.25))
    inst = uniform_instance(8, (1.0, 2.0, 3.0, 6.0), [sorted_row(gen, 4) for _ in range(8)],
                            K=2, B=7.0, edges=edges)
    assert len(build_action_space(inst)) == 48
    return inst


def _count_draws_and_kernel_calls(monkeypatch) -> tuple[list, list[int]]:
    # the key of every generator built and the columns of every reach-kernel call
    generators: list = []
    columns: list[int] = []
    default_rng, reach_columns = np.random.default_rng, influence._reach_columns
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: generators.append(a) or default_rng(*a, **k))
    monkeypatch.setattr(influence, "_reach_columns",
                        lambda g, live: columns.append(live.shape[1]) or reach_columns(g, live))
    return generators, columns


def test_marginal_samples_run_in_blocks_and_kernel_chunks(monkeypatch) -> None:
    # one generator per block and one reach-kernel call per chunk, never a
    # call per sample
    inst = _instance_48()
    y = {a: F(1, 16) for a in build_action_space(inst)}
    generators, columns = _count_draws_and_kernel_calls(monkeypatch)
    estimate_marginals(inst, y, RelaxationConfig(marginal_samples=200, rng_seed=3), 4)
    assert generators == [([3, 4, 0],)]
    assert columns == [200]
    # windows of one size, the last shorter, which at 1500 bytes hold a
    # sample each and at 128 KB split block 0 and span both blocks
    for kernel_bytes, spans in ((1500, False), (1 << 17, True)):
        monkeypatch.setattr(influence, "KERNEL_BYTES", kernel_bytes)
        generators.clear()
        columns.clear()
        estimate_marginals(inst, y, RelaxationConfig(marginal_samples=BLOCK + 200, rng_seed=3), 4)
        assert generators == [([3, 4, 0],), ([3, 4, 1],)]
        assert columns == _windows(BLOCK + 200, columns[0])
        assert (BLOCK % columns[0] > 0) == spans
        assert sum(columns) == BLOCK + 200


def _windows(rows: int, window: int) -> list[int]:
    # rows split into windows of one size, the last shorter
    return [window] * (rows // window) + [rows % window] * (rows % window > 0)


# ------------------------------------------------------------------ solve_lp


def test_lp_single_action_budget_binding() -> None:
    inst = single_user(1.0, coupon=1.0, B=1.0, K=1)
    a = act(0, 0)
    y = solve_lp({a: 1.0}, inst, beta=0.5)
    assert y[a] == F(1, 2)  # b = p*c = 1, budget 0.5


def test_lp_user_mass_cap() -> None:
    inst = uniform_instance(1, (0.5, 0.6), ((0.2, 0.25),), K=1, B=10.0)
    acts = [act(0, 0), act(0, 1)]
    y = solve_lp({acts[0]: 1.0, acts[1]: 1.0}, inst, beta=0.5)
    assert sum(y[a] for a in acts) == F(1)


def test_lp_rejects_bad_inputs() -> None:
    inst = single_user(0.5)
    a = act(0, 0)
    with pytest.raises(ValueError):
        solve_lp({a: float("nan")}, inst, beta=0.2)
    with pytest.raises(ValueError):
        solve_lp({a: 1.0}, inst, beta=0.7)
    with pytest.raises(ValueError):
        solve_lp({a: 1.0}, inst, beta=0.2, use_W=True)  # W unset


def test_lp_matches_vertex_enumeration() -> None:
    gen = np.random.default_rng(3)
    inst = uniform_instance(
        2, (1.0, 1.4),
        ((0.35, 0.6), (0.25, 0.8)),
        K=2, B=3.0, W=2,
    )
    actions = build_action_space(inst)
    assert len(actions) <= 6
    for trial in range(6):
        weights = {a: float(gen.uniform(0.0, 2.0)) for a in actions}
        for use_W in (False, True):
            y = solve_lp(weights, inst, beta=0.3, use_W=use_W)
            got = sum(F(float(weights[a])) * y[a] for a in actions)
            acts, obj, lhs, rhs = mirror_lp(inst, weights, 0.3, use_W)
            want = vertex_enumerate_max(obj, lhs, rhs)
            assert got == want, f"trial {trial} use_W={use_W}"


def _count_simplex_calls(monkeypatch) -> list[int]:
    calls: list[int] = []
    maximize = simplex.maximize

    def counted(*args, **kwargs):
        calls.append(1)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(simplex, "maximize", counted)
    return calls


def _record_vertex_moves(monkeypatch) -> list[bool]:
    # whether each _vertex call moved its point
    moved: list[bool] = []
    vertex = relaxation._vertex

    def spy(lp, z):
        before = dict(z)
        after = vertex(lp, z)
        moved.append(after != before)
        return after

    monkeypatch.setattr(relaxation, "_vertex", spy)
    return moved


def _gridded_instance(gen: np.random.Generator):
    # attractiveness on a 0.05 grid, with p0 = 0 in about half the rows: zero
    # costs, and equal costs for (1,) and (0, 1) in threshold mode
    n = int(gen.integers(1, 4))
    m = int(gen.integers(2, 4))
    coupons = sorted(int(c) for c in gen.choice([1, 2, 3, 4], size=m, replace=False))
    rows = []
    for _ in range(n):
        row = sorted(round(0.05 * int(k), 2) for k in gen.integers(0, 21, size=m))
        if gen.random() < 0.5:
            row[0] = 0.0
        rows.append(row)
    K = int(gen.integers(1, m + 1))
    return uniform_instance(n, coupons, rows, K=K, B=float(gen.choice([2.0, 4.0, 8.0])))


def _gridded_weights(gen: np.random.Generator, actions) -> dict:
    # weights on a 0.1 grid; like marginals, which depend only on each user's
    # top coupon, most actions that share one share a weight
    shared: dict = {}
    weights = {}
    for a in actions:
        key = (a.user, a.coupons[-1])
        shared.setdefault(key, round(0.1 * int(gen.integers(0, 11)), 1))
        weights[a] = shared[key] if gen.random() < 0.7 else round(0.1 * int(gen.integers(0, 11)), 1)
    return weights


def _assert_greedy_direction(x, obj, lhs, rhs, maximize, coupling=1) -> list:
    # what the greedy needs of a direction x: the LP's optimum value, every
    # constraint exactly, and at most one user fractional per coupling row
    # (the budget row, then the W row if any); returns the simplex's vertex
    value, vertex = maximize(obj, lhs, rhs)
    assert sum(o * v for o, v in zip(obj, x)) == value
    assert all(0 <= v <= 1 for v in x)
    assert all(sum(c * v for c, v in zip(row, x)) <= r for row, r in zip(lhs, rhs))
    users = lhs[:-coupling]  # one mass row per user, then the coupling rows
    assert sum(any(c and 0 < v < 1 for c, v in zip(row, x)) for row in users) <= coupling
    return vertex


def test_lp_without_w_is_optimal_on_ties_without_the_simplex(monkeypatch) -> None:
    # ties are common on these grids; the hull walk keeps its own vertex,
    # equal to the Fraction walk's, and never calls the simplex
    maximize = simplex.maximize
    calls = _count_simplex_calls(monkeypatch)
    gen = np.random.default_rng(2024)
    elsewhere = 0
    for _ in range(300):
        inst = _gridded_instance(gen)
        weights = _gridded_weights(gen, build_action_space(inst))
        beta = float(gen.choice([0.25, 0.5]))
        for cost_mode in COST_MODES:
            y = solve_lp(weights, inst, beta, use_W=False, cost_mode=cost_mode)
            acts, obj, lhs, rhs = mirror_lp(inst, weights, beta, cost_mode=cost_mode)
            x = [y[a] for a in acts]
            vertex = _assert_greedy_direction(x, obj, lhs, rhs, maximize)
            assert x == _integer_hull(acts, weights, lhs[-1], rhs[-1])
            assert x == knapsack_optimum_by_fractions(acts, obj, lhs[-1], rhs[-1])
            elsewhere += x != vertex
    assert calls == []
    # some tied LPs end on another optimal vertex than the simplex's
    assert elsewhere > 0


def test_lp_with_w_is_optimal_on_ties_without_the_simplex(monkeypatch) -> None:
    # gridded weights tie often, continuous ones seldom; W runs from 1 to the
    # number of users, so the W row is slack in some LPs and binds in others
    maximize = simplex.maximize
    calls = _count_simplex_calls(monkeypatch)
    moved = _record_vertex_moves(monkeypatch)
    gen = np.random.default_rng(11)
    elsewhere = binding = 0
    for trial in range(150):
        inst = _gridded_instance(gen)
        inst = dataclasses.replace(inst, W=int(gen.integers(1, inst.n_users + 1)))
        actions = build_action_space(inst)
        weights = _gridded_weights(gen, actions) if trial % 2 else {a: float(gen.random()) for a in actions}
        for beta in (0.25, 0.5, default_beta_extended()):
            for cost_mode in COST_MODES:
                y = solve_lp(weights, inst, beta, use_W=True, cost_mode=cost_mode)
                acts, obj, lhs, rhs = mirror_lp(inst, weights, beta, True, cost_mode)
                x = [y[a] for a in acts]
                elsewhere += x != _assert_greedy_direction(x, obj, lhs, rhs, maximize, coupling=2)
                binding += sum(x) == rhs[-1] != sum(solve_lp(weights, inst, beta, cost_mode=cost_mode).values())
    assert calls == []
    # some tied LPs end on another optimal vertex than the simplex's; the
    # search runs on many LPs, and on some its combination is not a vertex
    assert elsewhere > 0
    assert binding > 100 and len(moved) >= binding and any(moved)


def test_w_row_binding_between_two_users() -> None:
    # 3 x0 + 4 x1 at costs 1 and 3, budget 2 and W bound 1: without W the
    # walk takes (1, 1/3); with it both rows bind at (1/2, 1/2)
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=4.0, W=2)
    first, second = build_action_space(inst)
    costs = {first: F(1), second: F(3)}
    weights = {first: 3.0, second: 4.0}
    assert solve_lp(weights, inst, 0.5, costs=costs) == {first: 1, second: F(1, 3)}
    assert solve_lp(weights, inst, 0.5, use_W=True, costs=costs) == {first: F(1, 2), second: F(1, 2)}
    # W = 0 leaves only the empty direction, though a free action fits the budget
    free = {first: F(0), second: F(3)}
    assert solve_lp(weights, dataclasses.replace(inst, W=0), 0.5, use_W=True, costs=free) == {first: 0, second: 0}


def test_slack_w_row_keeps_the_walks_vertex() -> None:
    # the collinear case: the walk splits the user between the ends of the
    # line, where the simplex takes the middle point; W bound 1 is slack
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=8.0, W=4)
    actions = build_action_space(inst)
    weights = dict(zip(actions, (2.0, 3.0, 4.0)))
    costs = dict(zip(actions, (F(1), F(2), F(3))))
    y = solve_lp(weights, inst, 0.25, use_W=True, costs=costs)
    assert list(y.values()) == _integer_hull(actions, weights, list(costs.values()), F(2)) == [F(1, 2), 0, F(1, 2)]
    _, obj, lhs, rhs = mirror_lp(inst, weights, 0.25, True)
    lhs[-2] = list(costs.values())
    assert simplex.maximize(obj, lhs, rhs)[1] == [0, 1, 0]


def test_w_row_tie_among_three_users_ends_on_a_vertex() -> None:
    # every mix of three equal users is optimal: the two bracketing walk
    # vertices (everyone, no one) combine to 1/2 each, and _vertex moves mass
    # to the first user until one user is left fractional
    inst = uniform_instance(3, (1.0,), ((0.5,),) * 3, K=1, B=8.0, W=3)
    actions = build_action_space(inst)
    costs = dict.fromkeys(actions, F(1))
    y = solve_lp(dict.fromkeys(actions, 1.0), inst, 0.5, use_W=True, costs=costs)
    assert list(y.values()) == [1, 0, F(1, 2)]


def test_column_lp_with_sizes_meets_the_simplex(monkeypatch) -> None:
    # one group of columns sized 0 to 3, like the oracle's profiles, where a
    # size-0 column weighs 0 like the empty profile, and a cap below the size
    # of the walk's vertex, so the W row binds in every case; small ints
    # make ties, and so faces of optima for _vertex to leave, common
    moved = _record_vertex_moves(monkeypatch)
    gen = np.random.default_rng(30)
    cases = 0
    while cases < 300:
        n = int(gen.integers(2, 12))
        sizes = gen.integers(0, 4, n).tolist()
        weights = [int(gen.integers(0, 4)) if s else 0 for s in sizes]
        costs = [F(int(gen.integers(0, 4))) for _ in range(n)]
        budget = F(int(gen.integers(1, 6)), 2)
        walk = relaxation._ColumnLP([list(range(n))], costs, budget, sizes, None).solve(weights)
        size = sum(sizes[i] * v for i, v in walk.items())
        if not size:
            continue
        cap = size * F(int(gen.integers(0, 4)), 4)
        solved = relaxation._ColumnLP([list(range(n))], costs, budget, sizes, cap).solve(weights)
        x = [solved.get(i, F(0)) for i in range(n)]
        lhs, rhs = [[F(1)] * n, costs, [F(s) for s in sizes]], [F(1), budget, cap]
        assert sum(w * v for w, v in zip(weights, x)) == simplex.maximize(list(map(F, weights)), lhs, rhs)[0]
        assert all(v >= 0 for v in x)
        used = [sum(c * v for c, v in zip(row, x)) for row in lhs]
        assert all(u <= r for u, r in zip(used, rhs)) and used[2] == cap
        assert sum(v != 0 for v in x) <= 3
        cases += 1
    assert any(moved)


def test_greedy_with_w_makes_no_simplex_call(monkeypatch) -> None:
    assert "simplex" not in vars(relaxation)
    calls = _count_simplex_calls(monkeypatch)
    searches: list[int] = []
    search = relaxation._lagrangian_optimum
    monkeypatch.setattr(relaxation, "_lagrangian_optimum", lambda *args: searches.append(1) or search(*args))
    for cost_mode in COST_MODES:
        config = RelaxationConfig(delta=0.25, marginal_samples=50, rng_seed=1, cost_mode=cost_mode)
        continuous_greedy(oracle4_shaped(1), config, use_W=True)
    assert calls == []
    assert searches  # the W row binds


def _integer_hull(actions, weights, cost_row, budget):
    # the package's integer walk on the LP of mirror_lp's rows, as a dense list
    *costs, scaled_budget = scaled_integers([*cost_row, budget])
    users = _cost_runs(user_groups(actions).values(), costs)
    x = _knapsack_optimum(users, scaled_integers(float(weights[a]) for a in actions), scaled_budget)
    return [x.get(i, F(0)) for i in range(len(actions))]


def test_integer_hull_is_exact_on_extreme_weights_and_non_dyadic_costs(monkeypatch) -> None:
    # weights from the smallest subnormal to 1e300, zero and non-dyadic costs
    # with coprime denominators; costs given in the weights' order and in
    # reverse order
    maximize = simplex.maximize
    calls = _count_simplex_calls(monkeypatch)
    gen = np.random.default_rng(909)
    pool = (0.0, 5e-324, 1e-300, 0.1, 0.7, 1.0, 3.0, 1e300)
    dens = (3, 5, 7, 11, 13)
    for trial in range(200):
        inst = _gridded_instance(gen)
        actions = build_action_space(inst)
        weights = {a: float(gen.choice(pool)) for a in actions}
        exact = {a: F(int(gen.integers(0, 12)), int(gen.choice(dens))) for a in actions}
        costs = (exact, dict(reversed(exact.items())))[trial % 2]
        beta = float(gen.choice([0.25, 0.5]))
        budget = F(beta) * F(inst.B)
        obj = [F(weights[a]) for a in actions]
        row = [exact[a] for a in actions]
        reference = knapsack_optimum_by_fractions(actions, obj, row, budget)
        assert _integer_hull(actions, weights, row, budget) == reference
        y = solve_lp(weights, inst, beta, costs=costs)
        assert [y[a] for a in actions] == reference
        users = sorted({a.user for a in actions})
        lhs = [[F(int(a.user == u)) for a in actions] for u in users] + [row]
        _assert_greedy_direction(reference, obj, lhs, [F(1)] * len(users) + [budget], maximize)
    assert calls == []


def test_hull_walk_equals_the_fraction_walk_on_tied_integer_cases() -> None:
    # small integers make equal costs, equal weights and equal slopes common;
    # users' actions interleave, so a user's group is not contiguous, and
    # budgets run from 0 past the total cost
    gen = np.random.default_rng(20)
    splits = zero_cost = interleaved = 0
    for _ in range(10_000):
        size = int(gen.integers(1, 9))
        users = gen.integers(0, int(gen.integers(1, 5)), size).tolist()
        actions = [Action(u, (k,)) for k, u in enumerate(users)]
        weights = gen.integers(0, 5, size).tolist()
        costs = gen.integers(0, 4, size).tolist()
        budget = int(gen.integers(0, sum(costs) + 2))
        x = _knapsack_optimum(_cost_runs(user_groups(actions).values(), costs), weights, budget)
        assert all(x.values())
        reference = knapsack_optimum_by_fractions(actions, list(map(F, weights)), list(map(F, costs)), F(budget))
        assert [x.get(i, F(0)) for i in range(size)] == reference
        splits += any(v != 1 for v in x.values())
        zero_cost += any(costs[i] == 0 for i in x)
        interleaved += any(a != b and a in users[k + 1:] for k, (a, b) in enumerate(zip(users, users[1:])))
    assert min(splits, zero_cost, interleaved) > 1000


def test_tied_users_fill_in_action_order() -> None:
    # two users with equal (cost, weight): user 0 is filled first
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=4.0)
    first, second = build_action_space(inst)
    costs = {first: F(1), second: F(1)}
    weights = {first: 1.0, second: 1.0}
    assert solve_lp(weights, inst, 0.25, costs=costs) == {first: 1, second: 0}
    inst = uniform_instance(2, (1.0,), ((0.5,), (0.5,)), K=1, B=6.0)
    assert solve_lp(weights, inst, 0.25, costs=costs) == {first: 1, second: F(1, 2)}


def test_tied_actions_of_one_user_go_to_the_lowest_index() -> None:
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=40.0)
    low, pair, high = build_action_space(inst)  # (0,), (0, 1), (1,)
    weights = {low: 1.0, pair: 3.0, high: 3.0}
    y = solve_lp(weights, inst, 0.25, costs={low: F(1), pair: F(2), high: F(2)})
    assert y == {low: 0, pair: 1, high: 0}
    # zero costs: the walk starts at the first zero-cost action of most weight
    weights = {low: 2.0, pair: 1.0, high: 2.0}
    y = solve_lp(weights, inst, 0.25, costs=dict.fromkeys(weights, F(0)))
    assert y == {low: 1, pair: 0, high: 0}


def test_exact_tie_in_tenths_follows_the_tie_rule() -> None:
    # user 0 starts at a free action of weight 1/10 and rises to 3/10 at
    # cost 1, user 1 rises to 2/10 at cost 1: both slopes are exactly 2/10,
    # so the budget of 1 goes to user 0, who comes first.  As floats,
    # 0.3 - 0.1 lies below 0.2, and user 1's steeper segment takes it.
    assert F(3, 10) - F(1, 10) == F(2, 10) and 0.3 - 0.1 < 0.2
    inst = uniform_instance(2, (1.0, 2.0), ((0.5, 0.8),) * 2, K=1, B=4.0)
    free, paid, other, rest = build_action_space(inst)
    costs = {free: F(0), paid: F(1), other: F(1), rest: F(1)}
    tenths = {free: F(1, 10), paid: F(3, 10), other: F(2, 10), rest: F(0)}
    assert solve_lp(tenths, inst, 0.25, costs=costs) == {free: 0, paid: 1, other: 0, rest: 0}
    floats = {a: float(w) for a, w in tenths.items()}
    assert solve_lp(floats, inst, 0.25, costs=costs) == {free: 1, paid: 0, other: 1, rest: 0}


def test_collinear_hull_point_gets_no_mass() -> None:
    # (1, 2), (2, 3) and (3, 4) lie on one line: the middle point is dropped,
    # and a budget of 2 splits the user between its neighbours
    inst = uniform_instance(1, (1.0, 2.0), ((0.5, 0.8),), K=2, B=8.0)
    low, pair, high = build_action_space(inst)
    weights = {low: 2.0, pair: 3.0, high: 4.0}
    costs = {low: F(1), pair: F(2), high: F(3)}
    assert solve_lp(weights, inst, 0.25, costs=costs) == {low: F(1, 2), pair: 0, high: F(1, 2)}


def test_untied_lp_without_w_makes_no_simplex_call(monkeypatch) -> None:
    calls = _count_simplex_calls(monkeypatch)
    inst = uniform_instance(2, (1.0, 1.4), ((0.35, 0.6), (0.25, 0.8)), K=2, B=3.0)
    actions = build_action_space(inst)
    weights = {a: 0.3 + 0.17 * i for i, a in enumerate(actions)}
    y = solve_lp(weights, inst, beta=0.3)
    assert calls == []
    acts, obj, lhs, rhs = mirror_lp(inst, weights, 0.3)
    assert sum(F(float(weights[a])) * y[a] for a in acts) == vertex_enumerate_max(obj, lhs, rhs)


# --------------------------------------------------------------------- config


def test_beta_defaults() -> None:
    assert default_beta_basic() == pytest.approx((3 - math.sqrt(3)) / 6)
    b = default_beta_extended()
    assert b == (7 - math.sqrt(17)) / 16
    assert 0.0 < b < 0.5
    # stationarity of beta (1-beta)^2 (1-2 beta): derivative crosses zero here
    d = 1 - 8 * b + 15 * b * b - 8 * b ** 3
    assert abs(d) < 1e-12


def test_config_validation_and_resolution() -> None:
    with pytest.raises(ValueError):
        RelaxationConfig(beta=0.7)
    with pytest.raises(ValueError):
        RelaxationConfig(delta=0.0)
    with pytest.raises(ValueError):
        RelaxationConfig(marginal_samples=0)
    with pytest.raises(ValueError):
        RelaxationConfig(cost_mode="guess")
    config = RelaxationConfig()
    assert config.resolved_beta(False) == default_beta_basic()
    assert config.resolved_beta(True) == default_beta_extended()
    assert config.resolved_delta(4) == pytest.approx(1 / 16)
    fixed = RelaxationConfig(beta=0.25, delta=0.5)
    assert fixed.resolved_beta(True) == 0.25
    assert fixed.resolved_delta(100) == 0.5


def test_default_delta_is_exactly_one_over_the_squared_action_count() -> None:
    # the double nearest 1/48^2 lies below it, and would take one step more
    assert RelaxationConfig().resolved_delta(48) == F(1, 2304) != F(1 / 2304)
    # an explicit delta keeps its float value
    assert RelaxationConfig(delta=0.0208333).resolved_delta(48) == 0.0208333


def test_check_fractional_rejects_overfull_users_and_negative_mass() -> None:
    a, b = act(0, 0), act(0, 1)
    with pytest.raises(ValueError):
        check_fractional({a: F(3, 4), b: F(1, 2)})
    with pytest.raises(ValueError):
        check_fractional({a: F(-1, 10)})
    check_fractional({a: F(3, 4), b: F(1, 4)})


# ---------------------------------------------------------- continuous greedy


def test_greedy_single_action_hits_the_budget_cap_exactly() -> None:
    inst = single_user(1.0, coupon=1.0, B=2.0, K=1)
    config = RelaxationConfig(beta=0.4, delta=0.25, marginal_samples=50, rng_seed=0)
    y = continuous_greedy(inst, config)
    # beta*B/b lands exactly on the budget cap, carried as a rational of the
    # float inputs (0.4 the double, not 2/5)
    assert y[act(0, 0)] == F(0.4) * F(2.0)


def test_greedy_iteration_count_and_monotone_trajectory() -> None:
    inst = uniform_instance(
        2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=1, B=3.0,
        edges=((0, 1, 0.6),),
    )
    snapshots: list[dict] = []
    copies: list[dict] = []
    config = RelaxationConfig(delta=0.3, marginal_samples=200, rng_seed=1)
    continuous_greedy(inst, config, on_step=lambda t, y: (snapshots.append(y), copies.append(dict(y))))
    assert len(snapshots) == math.ceil(1 / 0.3)
    # each step hands over its own snapshot, which later steps leave alone
    assert len({id(y) for y in snapshots}) == len(snapshots)
    assert snapshots == copies
    assert snapshots[0] != snapshots[-1]
    actions = build_action_space(inst)
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert all(later[a] >= earlier[a] for a in actions)
    # exact multilinear value never decreases along the trajectory
    values = [multilinear_value_exact(inst, snap) for snap in snapshots]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_greedy_marginals_read_floats_of_the_current_point(monkeypatch) -> None:
    # the LP receives every step's marginals as int sample totals, whose
    # quotients by the sample count are .hex()-equal to estimate_marginals at
    # that step's point, given as Fractions or floats
    inst = uniform_instance(
        3, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9), (0.6, 0.7)), K=2, B=3.0,
        edges=((0, 1, 0.6), (2, 1, 0.3)),
    )
    solve = relaxation._ColumnLP.solve
    seen: list[list[int]] = []

    def spy(lp, weights):
        seen.append(weights)
        return solve(lp, weights)

    monkeypatch.setattr(relaxation._ColumnLP, "solve", spy)
    points = [dict.fromkeys(build_action_space(inst), F(0))]
    config = RelaxationConfig(delta=0.2, marginal_samples=50, rng_seed=3)
    continuous_greedy(inst, config, on_step=lambda t, y: points.append(y))
    assert len(seen) == len(points) - 1 == 5
    assert any(seen[-1])
    for iteration, (weights, y) in enumerate(zip(seen, points)):
        assert all(type(w) is int for w in weights)
        for point in (y, {a: float(v) for a, v in y.items()}):
            want = estimate_marginals(inst, point, config, iteration)
            assert [(w / config.marginal_samples).hex() for w in weights] == [v.hex() for v in want.values()]


def _greedy_cases():
    # relax48- and oracle4-shaped instances in both cost modes, with and
    # without the W row, at the benchmark's step and sample count
    for cost_mode in COST_MODES:
        for use_W in (False, True):
            config = RelaxationConfig(delta=0.0208333, marginal_samples=10, rng_seed=5, cost_mode=cost_mode)
            yield relax48_shaped(5, W=3), config, use_W
            for seed in (1, 2):
                config = RelaxationConfig(delta=0.25, marginal_samples=10, rng_seed=seed, cost_mode=cost_mode)
                yield oracle4_shaped(seed), config, use_W


def _assert_greedy_equals_the_dict_greedy(inst, config, use_W) -> None:
    steps, ref_steps = [], []
    y = continuous_greedy(inst, config, use_W, on_step=lambda t, y: steps.append((t, y)))
    want = continuous_greedy_by_dicts(inst, config, use_W, on_step=lambda t, y: ref_steps.append((t, y)))
    assert list(y.items()) == list(want.items())
    assert steps == ref_steps
    assert any(y.values())


def test_greedy_on_indices_equals_the_dict_greedy() -> None:
    for inst, config, use_W in _greedy_cases():
        _assert_greedy_equals_the_dict_greedy(inst, config, use_W)


@pytest.mark.parametrize("use_W", [False, True])
@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_greedy_equals_the_dict_greedy_at_the_default_step(cost_mode, use_W) -> None:
    # delta = 1/|S|^2, exactly 1/144 on 12 actions: 144 steps, many of them
    # ending on a split user, whose denominators y's one denominator has to
    # take in
    inst = oracle4_shaped(1)
    config = RelaxationConfig(marginal_samples=10, rng_seed=7, cost_mode=cost_mode)
    steps = []
    y = continuous_greedy(inst, config, use_W, on_step=lambda t, y: steps.append(y))
    assert len(build_action_space(inst)) == 12 and len(steps) == 144
    # without W, split users leave masses whose denominators, less the steps'
    # factor 144, are not powers of two; with it, the vertices here split on
    # the W row, whose bound beta*W is dyadic
    odd = [v.denominator // math.gcd(v.denominator, 144) for v in y.values()]
    assert any(d & (d - 1) for d in odd) != use_W
    _assert_greedy_equals_the_dict_greedy(inst, config, use_W)


def test_greedy_equals_the_dict_greedy_on_small_kernel_windows(monkeypatch) -> None:
    # 400 bytes: every window holds one sample, so the kernel scores each
    # step's ten samples in many calls
    generators, columns = _count_draws_and_kernel_calls(monkeypatch)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 400)
    assert influence._chunk_columns(relax48_shaped(5).graph) < 10
    for use_W in (False, True):
        inst = relax48_shaped(5, W=3 if use_W else None)
        config = RelaxationConfig(delta=0.0208333, marginal_samples=10, rng_seed=5)
        generators.clear()
        columns.clear()
        continuous_greedy(inst, config, use_W)
        assert generators == [([5, i, 0],) for i in range(49)]
        assert len(columns) > 49 and max(columns) < 10
        _assert_greedy_equals_the_dict_greedy(inst, config, use_W)


def test_greedy_draws_in_step_order_and_scores_a_window_per_kernel_call(monkeypatch) -> None:
    inst = _instance_48()
    generators, columns = _count_draws_and_kernel_calls(monkeypatch)
    continuous_greedy(inst, RelaxationConfig(delta=0.0208333, marginal_samples=10, rng_seed=3))
    assert generators == [([3, i, 0],) for i in range(49)]
    assert columns == [490]  # the whole ascent in one window
    # 200 samples: windows of as many rows as keep what a window holds
    # within KERNEL_BYTES; a window may end inside a step
    generators.clear()
    columns.clear()
    continuous_greedy(inst, RelaxationConfig(delta=0.0208333, marginal_samples=200, rng_seed=3))
    assert generators == [([3, i, 0],) for i in range(49)]
    assert 1 < len(columns) < 49 and columns == _windows(49 * 200, columns[0])
    assert columns[0] % 200 > 0
    # a row's draws (8 users, 10 edges, 48 actions) and its accepts' thresholds
    # at 8 bytes, its accepts, live edges and seeds at 1, beside its reach
    # and live edges in uint8 words and six outcome vectors at 8: 1052 bytes
    assert columns[0] * (8 * (8 + 10 + 2 * 48) + 48 + 10 + 8 + (2 * 8 + 10) + 8 * 6) <= influence.KERNEL_BYTES
    # 1224 samples: two blocks a step, drawn in order, in windows that split
    # blocks and span steps
    generators.clear()
    columns.clear()
    continuous_greedy(inst, RelaxationConfig(delta=0.25, marginal_samples=BLOCK + 200, rng_seed=3))
    assert generators == [([3, i, b],) for i in range(4) for b in (0, 1)]
    assert sum(columns) == 4 * (BLOCK + 200) and columns == _windows(4 * (BLOCK + 200), columns[0])
    assert columns[0] % (BLOCK + 200) > 0 and BLOCK % columns[0] > 0


def test_greedy_keeps_its_samples_within_the_memory_bound(monkeypatch) -> None:
    # 160 actions and a block of 1,024 samples a step, 1.6 MB of draws: at a
    # 64 KB bound the windows keep the peak within 4x the bound, with the
    # same point as at the default bound
    inst = forty_users()
    config = RelaxationConfig(delta=0.5, marginal_samples=BLOCK, rng_seed=1)
    want = continuous_greedy(inst, config)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 64 << 10)
    got, peak = traced_peak(lambda: continuous_greedy(inst, config))
    assert len(got) == 160 and got == want and any(want.values())
    assert peak <= 4 * influence.KERNEL_BYTES, f"peak {peak} bytes"


def test_greedy_refuses_too_many_steps_before_drawing(monkeypatch) -> None:
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    # 2 edgeless users with 2 actions each: a sample is 1 word x (2 nodes +
    # 2 seed sets) and 4 actions, and a step adds 64 * (4 + 64) for the LP
    inst = uniform_instance(2, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9)), K=1, B=3.0)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(influence, "_reach_columns", no_draws)
    with pytest.raises(ValueError) as err:
        continuous_greedy(inst, RelaxationConfig(delta=1e-7))
    assert str(err.value) == (
        f"the continuous greedy needs {10000001 * 5952} word operations (10000001 steps at delta = 1e-07, "
        "each 200 samples x 8 + 4352 for the LP over |S| = 4 actions; a larger delta (--delta) takes fewer steps), "
        f"above the limit of {influence.MAX_KERNEL_WORK}"
    )
    # just above the limit, and the default delta, exactly 1/|S|^2, at
    # |S| = 1024 (256 users with 4 low-value coupons at K = 1): 2^20 steps
    steps = influence.MAX_KERNEL_WORK // 5952 + 1
    wide = uniform_instance(256, (1.0, 2.0, 3.0, 4.0, 10.0), ((0.1, 0.2, 0.3, 0.4, 0.5),) * 256, K=1, B=8.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"needs {steps * 5952} word operations \\({steps} steps"):
        continuous_greedy(inst, RelaxationConfig(delta=1 / (steps - 0.5)))
    with pytest.raises(ValueError, match="1048576 steps at delta = 9.5367431640625e-07, each 200 samples x 3072 "):
        continuous_greedy(wide, RelaxationConfig())
    assert time.perf_counter() - start < 1.0
    # the limit itself is allowed
    monkeypatch.undo()
    monkeypatch.setattr(influence, "MAX_KERNEL_WORK", 4 * (5 * 8 + 4352))
    assert len(continuous_greedy(inst, RelaxationConfig(delta=0.25, marginal_samples=5))) == 4
    with pytest.raises(ValueError, match="needs 21960 word operations \\(5 steps"):
        continuous_greedy(inst, RelaxationConfig(delta=0.24, marginal_samples=5))


def test_greedy_output_feasible_exactly() -> None:
    inst = uniform_instance(
        3, (1.0, 1.2), ((0.3, 0.5), (0.2, 0.9), (0.6, 0.7)), K=2, B=3.0, W=2,
    )
    for use_W in (False, True):
        config = RelaxationConfig(delta=0.2, marginal_samples=100, rng_seed=4)
        y = continuous_greedy(inst, config, use_W=use_W)
        actions = build_action_space(inst)
        beta = F(config.resolved_beta(use_W))
        for user in range(3):
            assert sum(y[a] for a in actions if a.user == user) <= 1
        spend = sum(y[a] * threshold_cost(inst, a) for a in actions)
        assert spend <= beta * F(inst.B)
        if use_W:
            assert sum(y[a] for a in actions) <= beta * F(inst.W)
        assert all(0 <= y[a] <= 1 for a in actions)


def test_greedy_zero_attractiveness_returns_zero_vector() -> None:
    inst = uniform_instance(2, (1.0,), ((0.0,), (0.0,)), K=1, B=3.0)
    y = continuous_greedy(inst, RelaxationConfig(delta=0.5, marginal_samples=50, rng_seed=0))
    assert all(v == 0 for v in y.values())


def test_greedy_requires_actions() -> None:
    inst = uniform_instance(1, (2.0,), ((0.5,),), K=1, B=3.0)  # no low coupons
    with pytest.raises(ValueError):
        continuous_greedy(inst, RelaxationConfig())


def test_greedy_toy_budget_feasibility() -> None:
    # five users, coupons (1, 2), budget 3: only the small coupon is fractional
    inst = uniform_instance(5, (1.0, 2.0), ((0.5, 0.8),) * 5, K=1, B=3.0)
    config = RelaxationConfig(delta=0.25, marginal_samples=100, rng_seed=6)
    y = continuous_greedy(inst, config)
    beta = F(config.resolved_beta(False))
    actions = build_action_space(inst)
    assert {a.coupons for a in actions} == {(0,)}
    spend = sum(y[a] * threshold_cost(inst, a) for a in actions)
    assert spend <= beta * F(3.0)
