from __future__ import annotations

import itertools

import numpy as np
import pytest

from couponprobe import influence
from couponprobe.influence import (
    BLOCK,
    EXACT_EDGE_LIMIT,
    Graph,
    influence_exact,
    influence_mc_stats,
    live_mask_outcomes,
    realized_influence,
    sample_live_mask,
    singleton_influence_table,
)

from helpers import edgeless, exact_spreads_by_mask, mixed_graph, sim16_shaped_graph, wide_graph


def test_single_edge_half() -> None:
    g = Graph(node_count=2, edges=((0, 1, 0.5),))
    assert influence_exact(g, {0}) == pytest.approx(1.5)


def test_empty_seed_set() -> None:
    g = Graph(node_count=2, edges=((0, 1, 0.5),))
    assert influence_exact(g, set()) == 0.0


def test_path_of_three() -> None:
    g = Graph(node_count=3, edges=((0, 1, 0.5), (1, 2, 0.5)))
    assert influence_exact(g, {0}) == pytest.approx(1.75)


def test_forced_edges_are_free() -> None:
    # prob-1 edges never enter the enumeration, so a long chain still works
    edges = tuple((i, i + 1, 1.0) for i in range(30))
    g = Graph(node_count=31, edges=edges)
    assert influence_exact(g, {0}) == pytest.approx(31.0)


def test_prob_zero_edge_never_fires() -> None:
    g = Graph(node_count=2, edges=((0, 1, 0.0),))
    assert influence_exact(g, {0}) == pytest.approx(1.0)


def test_exact_rejects_oversized_enumeration() -> None:
    edges = tuple((0, t, 0.5) for t in range(1, EXACT_EDGE_LIMIT + 2))
    g = Graph(node_count=EXACT_EDGE_LIMIT + 2, edges=edges)
    with pytest.raises(ValueError):
        influence_exact(g, {0})


def test_exact_rejects_unknown_seed() -> None:
    g = edgeless(2)
    with pytest.raises(ValueError):
        influence_exact(g, {5})


def test_graph_validation() -> None:
    with pytest.raises(ValueError):
        Graph(node_count=0, edges=())
    with pytest.raises(ValueError):
        Graph(node_count=2, edges=((0, 0, 0.5),))
    with pytest.raises(ValueError):
        Graph(node_count=2, edges=((0, 1, 0.5), (0, 1, 0.7)))
    with pytest.raises(ValueError):
        Graph(node_count=2, edges=((0, 1, 1.5),))
    with pytest.raises(ValueError):
        Graph(node_count=2, edges=((0, 3, 0.5),))


def test_realized_influence_counts_reachable() -> None:
    g = Graph(node_count=3, edges=((0, 1, 0.5), (1, 2, 0.5)))
    assert realized_influence(g, {0}, 0b00) == 1
    assert realized_influence(g, {0}, 0b01) == 2
    assert realized_influence(g, {0}, 0b11) == 3
    assert realized_influence(g, {0}, 0b10) == 1


def test_mc_full_seeding_saturates() -> None:
    g = Graph(node_count=4, edges=((0, 1, 0.3), (2, 3, 0.9)))
    assert influence_mc_stats(g, {0, 1, 2, 3}, samples=100, rng_seed=1)[0] == 4.0


def test_mc_no_propagation_is_exact() -> None:
    g = Graph(node_count=3, edges=((0, 1, 0.0), (1, 2, 0.0)))
    assert influence_mc_stats(g, {0}, samples=100, rng_seed=3)[0] == 1.0


def test_mc_deterministic_per_seed() -> None:
    g = Graph(node_count=2, edges=((0, 1, 0.5),))
    a = influence_mc_stats(g, {0}, samples=5000, rng_seed=11)[0]
    b = influence_mc_stats(g, {0}, samples=5000, rng_seed=11)[0]
    assert a == b


def test_mc_matches_exact_within_four_stderr() -> None:
    graphs = [
        Graph(node_count=2, edges=((0, 1, 0.5),)),
        Graph(node_count=3, edges=((0, 1, 0.5), (1, 2, 0.5))),
        Graph(node_count=4, edges=((0, 1, 0.3), (0, 2, 0.7), (2, 3, 0.4), (3, 1, 0.6))),
    ]
    for i, g in enumerate(graphs):
        exact = influence_exact(g, {0})
        mean, stderr = influence_mc_stats(g, {0}, samples=100_000, rng_seed=100 + i)
        assert abs(mean - exact) <= 4.0 * max(stderr, 1e-12)


def test_mc_requires_positive_samples() -> None:
    g = edgeless(1)
    with pytest.raises(ValueError):
        influence_mc_stats(g, {0}, samples=0, rng_seed=0)


def _all_small_graphs():
    yield Graph(node_count=2, edges=((0, 1, 0.5),))
    yield Graph(node_count=3, edges=((0, 1, 0.5), (1, 2, 0.5)))
    yield Graph(node_count=3, edges=((0, 1, 0.5), (0, 2, 0.5)))
    yield Graph(node_count=3, edges=((0, 1, 1.0), (1, 2, 0.5), (2, 0, 0.5)))
    # complete digraph on 4 nodes, mixed deterministic and coin-flip edges
    probs = itertools.cycle((0.5, 1.0, 0.0))
    edges4 = tuple(
        (s, t, next(probs)) for s in range(4) for t in range(4) if s != t
    )
    yield Graph(node_count=4, edges=edges4)
    # sparse 5-node graphs keep the enumeration quick
    yield Graph(node_count=5, edges=((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)))
    yield Graph(
        node_count=5,
        edges=((0, 1, 0.5), (0, 2, 1.0), (2, 3, 0.5), (4, 0, 0.5), (3, 4, 0.5), (1, 4, 0.5)),
    )
    gen = np.random.default_rng(7)
    for _ in range(4):
        edges = []
        for s in range(5):
            for t in range(5):
                if s != t and gen.random() < 0.35:
                    edges.append((s, t, float(gen.choice((0.0, 0.5, 1.0)))))
        yield Graph(node_count=5, edges=tuple(edges))


def test_monotone_and_submodular_exhaustively() -> None:
    for g in _all_small_graphs():
        n = g.node_count
        nodes = range(n)
        table = {}
        for r in range(n + 1):
            for combo in itertools.combinations(nodes, r):
                table[frozenset(combo)] = influence_exact(g, combo)
        sets = list(table)
        for s in sets:
            assert len(s) - 1e-9 <= table[s] <= n + 1e-9
            for t in sets:
                if not s <= t:
                    continue
                assert table[s] <= table[t] + 1e-9
                for x in nodes:
                    if x in t:
                        continue
                    gain_s = table[s | {x}] - table[s]
                    gain_t = table[t | {x}] - table[t]
                    assert gain_s >= gain_t - 1e-9


def test_sample_live_mask_draws_once_per_uncertain_edge() -> None:
    g = mixed_graph()
    gen, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(200):
        draws = ref.random(len(g.uncertain_edges))
        expected = g.forced_live_mask
        for j, i in enumerate(g.uncertain_edges):
            if draws[j] < g.edges[i][2]:
                expected |= 1 << i
        assert sample_live_mask(g, gen) == expected


def test_singleton_table_deterministic_edge() -> None:
    g = Graph(node_count=2, edges=((0, 1, 1.0),))
    assert singleton_influence_table(g) == {0: 2.0, 1: 1.0}


def test_singleton_table_isolated_nodes() -> None:
    table = singleton_influence_table(edgeless(3))
    assert table == {0: 1.0, 1: 1.0, 2: 1.0}


def test_singleton_table_star() -> None:
    g = Graph(node_count=3, edges=((0, 1, 0.5), (0, 2, 0.5)))
    table = singleton_influence_table(g)
    assert table[0] == pytest.approx(2.0)
    assert table[1] == pytest.approx(1.0)
    assert table[2] == pytest.approx(1.0)


def test_live_masks_respect_forced_and_dead_edges() -> None:
    g = mixed_graph()
    assert len(g.uncertain_edges) == 10
    dead = sum(1 << i for i, (_, _, p) in enumerate(g.edges) if p == 0.0)
    outcomes = list(live_mask_outcomes(g))
    gen = np.random.default_rng(4)
    sampled = [sample_live_mask(g, gen) for _ in range(500)]
    for mask in [m for _, m in outcomes] + sampled:
        assert mask & g.forced_live_mask == g.forced_live_mask
        assert mask & dead == 0
    assert len({m for _, m in outcomes}) == 1 << 10
    assert sum(w for w, _ in outcomes) == pytest.approx(1.0, abs=1e-12)


_REFERENCE_CASES = {
    "mixed": mixed_graph,
    "edgeless": lambda: edgeless(3),
    "sim16-shaped": sim16_shaped_graph,
    "wide": wide_graph,
}


def _check_against_reference(g: Graph) -> None:
    n = g.node_count
    gen = np.random.default_rng(n)
    seed_sets = [sorted(set(gen.integers(0, n, size=r).tolist())) for r in (2, 3, 5)]
    seed_sets.append(list(range(n)))
    singletons = [[v] for v in range(n)]
    expected = exact_spreads_by_mask(Graph(n, g.edges), singletons + seed_sets)
    table = singleton_influence_table(g)
    assert list(table) == list(range(n))
    assert [x.hex() for x in table.values()] == [x.hex() for x in expected[:n]]
    exact = [influence_exact(g, seeds) for seeds in singletons + seed_sets]
    assert [x.hex() for x in exact] == [x.hex() for x in expected]


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_exact_spreads_match_per_mask_reference(name) -> None:
    g = _REFERENCE_CASES[name]()
    _check_against_reference(g)
    assert g._reach == {}


@pytest.mark.parametrize("kernel_bytes", [1, 1500])
def test_exact_spreads_carry_across_chunks(monkeypatch, kernel_bytes) -> None:
    # 1 byte floors the chunk at one outcome; 1500 bytes gives chunks of a
    # few outcomes, which do not divide the 2^10 outcomes evenly
    monkeypatch.setattr(influence, "KERNEL_BYTES", kernel_bytes)
    _check_against_reference(mixed_graph())


def test_realized_influence_matches_reach_masks_union() -> None:
    gen = np.random.default_rng(5)
    for g in (mixed_graph(), sim16_shaped_graph(), wide_graph()):
        reference = Graph(g.node_count, g.edges)
        n, e = g.node_count, len(g.edges)
        for _ in range(200):
            mask = sum(1 << int(i) for i in np.flatnonzero(gen.random(e) < 0.5))
            seeds = gen.integers(0, n, size=int(gen.integers(0, 5))).tolist()
            seeds += seeds[:1]  # a duplicate seed whenever there is a seed
            reach = reference.reach_masks(mask)
            union = 0
            for s in seeds:
                union |= reach[s]
            assert realized_influence(g, seeds, mask) == union.bit_count()
        assert realized_influence(g, [], (1 << e) - 1) == 0
        assert g._reach == {}


def test_mc_fallback_leaves_reach_cache_empty() -> None:
    edges = tuple((0, t, 0.5) for t in range(1, EXACT_EDGE_LIMIT + 2))
    g = Graph(node_count=EXACT_EDGE_LIMIT + 2, edges=edges)
    table = singleton_influence_table(g, samples=50, rng_seed=3)
    assert table[1] == 1.0
    assert 1.0 < table[0] < EXACT_EDGE_LIMIT + 2
    assert g._reach == {}


def test_reach_cache_stops_at_its_limit(monkeypatch) -> None:
    # the limit counts node entries: 20 entries on 5 nodes is 4 live masks
    monkeypatch.setattr(influence, "REACH_CACHE_LIMIT", 20)
    edges = ((0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.3), (3, 4, 0.6), (4, 0, 0.7))
    g = Graph(node_count=5, edges=edges)
    first = [g.reach_masks(mask) for mask in range(1 << 5)]
    assert list(g._reach) == [0, 1, 2, 3]
    again = [g.reach_masks(mask) for mask in range(1 << 5)]
    fresh = [Graph(node_count=5, edges=edges).reach_masks(mask) for mask in range(1 << 5)]
    assert first == again == fresh
    assert first[0b11111] == (0b11111,) * 5


@pytest.mark.parametrize("kernel_bytes", [influence.KERNEL_BYTES, 1500])
def test_mc_stats_match_per_sample_reference(monkeypatch, kernel_bytes) -> None:
    # sample i is row i % BLOCK of block i // BLOCK's uniforms, one per
    # uncertain edge; 1500 bytes split each block into kernel chunks of a
    # few samples, which must not change any value
    monkeypatch.setattr(influence, "KERNEL_BYTES", kernel_bytes)
    g = mixed_graph()
    samples, seeds = 2 * BLOCK + 37, [3, 6]
    values = []
    for b, start in enumerate(range(0, samples, BLOCK)):
        shape = (min(BLOCK, samples - start), len(g.uncertain_edges))
        for row in np.random.default_rng([5, b]).random(shape):
            mask = g.forced_live_mask
            for j, i in enumerate(g.uncertain_edges):
                if row[j] < g.edges[i][2]:
                    mask |= 1 << i
            values.append(realized_influence(g, seeds, mask))
    mean = sum(values) / samples
    var = max(0.0, sum(v * v for v in values) / samples - mean * mean)
    got = influence_mc_stats(g, seeds, samples, rng_seed=5)
    assert (got[0].hex(), got[1].hex()) == (mean.hex(), ((var / samples) ** 0.5).hex())
