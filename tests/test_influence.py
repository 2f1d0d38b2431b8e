from __future__ import annotations

import itertools
import re
import time

import numpy as np
import pytest

from couponprobe import influence
from couponprobe.influence import (
    BLOCK,
    EXACT_EDGE_LIMIT,
    Graph,
    influence_exact,
    influence_mc_stats,
    sampled_spreads,
    singleton_influence_table,
)

from helpers import (
    _random_edges,
    edgeless,
    exact_spreads_by_mask,
    forced_live_mask,
    live_mask_outcomes,
    mixed_graph,
    reach_masks,
    realized_influence,
    sim16_shaped_graph,
    traced_peak,
    wide_graph,
)


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


def test_sampled_spreads_counts_reachable() -> None:
    g = Graph(node_count=3, edges=((0, 1, 0.5), (1, 2, 0.5)))
    # one outcome per live-edge pattern, seeded at node 0, then one unseeded
    live = np.array([[False, False], [True, False], [True, True], [False, True], [True, True]])
    seeded = np.zeros((3, 5), dtype=bool)
    seeded[0, :4] = True
    assert sampled_spreads(g, live, seeded).tolist() == [1, 2, 3, 1, 0]


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
    # 25 uncertain edges, so the singleton table takes the Monte Carlo path;
    # a bool, a float or a string is not read as a count
    g = Graph(node_count=EXACT_EDGE_LIMIT + 6, edges=tuple((0, t, 0.5) for t in range(1, EXACT_EDGE_LIMIT + 6)))
    assert len(g.uncertain_edges) == 25
    for samples in (0, -3, True, 2.5, 3.0, "10"):
        for call in (singleton_influence_table, lambda g, samples: influence_mc_stats(g, [0], samples, rng_seed=0)):
            with pytest.raises(ValueError, match=re.escape(f"samples must be a positive integer, got {samples!r}")):
                call(g, samples=samples)
    assert influence_mc_stats(g, [0], samples=np.int64(4), rng_seed=0) == influence_mc_stats(g, [0], 4, rng_seed=0)


def test_mc_reads_the_seed_as_a_count() -> None:
    # RelaxationConfig.rng_seed's rule: a string, a bool, a negative number or
    # a float is refused by name; numpy's ints are counts.  25 uncertain
    # edges, so the singleton table takes the Monte Carlo path
    g = Graph(node_count=EXACT_EDGE_LIMIT + 6, edges=tuple((0, t, 0.5) for t in range(1, EXACT_EDGE_LIMIT + 6)))
    for seed in ("3", True, -1, 2.5):
        for call in (singleton_influence_table, lambda g, samples, seed: influence_mc_stats(g, [0], samples, seed)):
            with pytest.raises(ValueError, match=re.escape(f"rng_seed must be a non-negative integer, got {seed!r}")):
                call(g, 10, seed)
    assert singleton_influence_table(g, 10, np.int64(3)) == singleton_influence_table(g, 10, 3)


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
    for _, mask in outcomes:
        assert mask & forced_live_mask(g) == forced_live_mask(g)
        assert mask & dead == 0
    assert len({m for _, m in outcomes}) == 1 << 10
    assert sum(w for w, _ in outcomes) == pytest.approx(1.0, abs=1e-12)


def _word_ring(n: int) -> Graph:
    # a ring of n nodes, forced but for a dead link, the closing link n-1 ->
    # 0, a link in the middle and one across each of bits 8, 16, 32 and 64
    # below n, with chords to and from the top node; at most 10 uncertain
    # edges, so the cycle comes and goes with the outcome
    probs = iter((0.5, 0.3, 0.6, 0.25, 0.8, 0.45, 0.7, 0.35, 0.2, 0.55))
    unsure = {(b - 1, b) for b in (8, 16, 32, 64) if b < n} | {(n - 1, 0), (n // 2, n // 2 + 1)}
    edges = [(u, (u + 1) % n, next(probs) if (u, (u + 1) % n) in unsure else 0.0 if u == n // 4 else 1.0)
             for u in range(n)]
    edges += [(n - 1, n // 3, next(probs)), (2, n - 1, next(probs)), (n - 2, 1, next(probs)), (0, n // 2, next(probs))]
    return Graph(node_count=n, edges=tuple(edges))


# the narrowest reach word for each node count at a word boundary, and the
# words a node's reach takes
_WORDS = {8: (np.uint8, 1), 9: (np.uint16, 1), 16: (np.uint16, 1), 17: (np.uint32, 1),
          32: (np.uint32, 1), 33: (np.uint64, 1), 64: (np.uint64, 1), 65: (np.uint64, 2)}

_REFERENCE_CASES = {
    "mixed": mixed_graph,
    "edgeless": lambda: edgeless(3),
    "sim16-shaped": sim16_shaped_graph,
    "wide": wide_graph,
    **{f"ring{n}": (lambda n=n: _word_ring(n)) for n in _WORDS},
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
    _check_against_reference(_REFERENCE_CASES[name]())


@pytest.mark.parametrize("n", list(_WORDS))
def test_kernel_takes_the_narrowest_word_that_holds_the_graph(monkeypatch, n) -> None:
    # the exact and the sampled paths run the kernel in the same word, and
    # every sampled world's spread is the per-world search's
    g = _word_ring(n)
    assert len(g.uncertain_edges) <= 10 and any(inner for _, _, inner in g.reach_order)
    kernels: list[tuple] = []
    reach_columns = influence._reach_columns

    def kernel(graph, live, out=None):
        reach = reach_columns(graph, live, out)
        kernels.append((live.dtype, reach.dtype, reach.shape[1]))
        return reach

    monkeypatch.setattr(influence, "_reach_columns", kernel)
    influence_exact(g, [0])
    gen = np.random.default_rng(n)
    live = influence.live_edges(g, gen.random((300, len(g.uncertain_edges))))
    seeded = gen.random((n, 300)) < 2 / n
    got = sampled_spreads(g, live, seeded)
    word, words = _WORDS[n]
    assert kernels == [(np.dtype(word), np.dtype(word), words)] * 2
    for r in range(300):
        mask = forced_live_mask(g) | sum(1 << i for j, i in enumerate(g.uncertain_edges) if live[r, j])
        assert got[r] == realized_influence(g, np.flatnonzero(seeded[:, r]).tolist(), mask), r


def _five_edge_graph() -> Graph:
    # a cycle through a forced edge, a dead edge and five uncertain edges
    return Graph(node_count=4, edges=(
        (0, 1, 0.3), (1, 2, 1.0), (2, 0, 0.6), (1, 3, 0.45), (3, 2, 0.0), (2, 3, 0.8), (3, 0, 0.25),
    ))


@pytest.mark.parametrize("kernel_bytes, make_graph, chunk", [
    pytest.param(1, _five_edge_graph, 1, id="1"),
    pytest.param(1000, mixed_graph, 8, id="1000"),
])
def test_exact_spreads_carry_across_chunks(monkeypatch, kernel_bytes, make_graph, chunk) -> None:
    # 1 byte floors the chunk at one outcome, so every weight factor is a
    # high-bit scalar; 1000 bytes, at 72 a column (uint8 words), give
    # mixed_graph chunks of 2^3 outcomes, three low bits built by doubling
    # and seven high-bit scalars
    monkeypatch.setattr(influence, "KERNEL_BYTES", kernel_bytes)
    columns: list[int] = []
    reach_columns = influence._reach_columns
    monkeypatch.setattr(influence, "_reach_columns",
                        lambda g, live, out=None: columns.append(live.shape[1]) or reach_columns(g, live, out))
    _check_against_reference(make_graph())
    assert set(columns) == {chunk}


def _cycle_worst_order(n: int) -> Graph:
    # u gains v's reach along u -> v, so listing the cycle from 0 onwards
    # moves reach one node per pass over the edge list
    return Graph(node_count=n, edges=tuple((u, (u + 1) % n, 1.0 if u % 3 == 0 else 0.7) for u in range(n)))


def _chain_source_first(n: int) -> Graph:
    # listed source first, like the cycle
    return Graph(node_count=n, edges=tuple((u, u + 1, 1.0 if u % 2 else 0.6) for u in range(n - 1)))


def _nested_components() -> Graph:
    # {1, 2, 3} is a cycle inside the component {0, 1, 2, 3, 4}, with a
    # forced and a dead edge inside; it leaves to the component {5, 6},
    # which leaves to the sink 7
    return Graph(node_count=8, edges=(
        (0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.4), (3, 1, 0.7), (3, 4, 0.6), (4, 0, 0.3), (2, 4, 0.0),
        (4, 5, 0.5), (5, 6, 1.0), (6, 5, 0.45), (1, 6, 0.2), (6, 7, 0.9), (0, 7, 0.0),
    ))


def _ring_over_words() -> Graph:
    # 70 nodes: a ring whose reach crosses the 64-bit word boundary, with
    # chords in both directions across it
    edges = [(u, (u + 1) % 70, 1.0) for u in range(70) if u not in (10, 62, 65)]
    edges += [(10, 11, 0.5), (62, 63, 0.3), (65, 66, 0.8), (68, 3, 0.6), (2, 66, 0.25), (64, 60, 0.4)]
    return Graph(node_count=70, edges=tuple(edges))


@pytest.mark.parametrize("make_graph", [
    lambda: _cycle_worst_order(9), lambda: _chain_source_first(12), _nested_components, _ring_over_words,
], ids=["cycle", "chain", "nested", "ring70"])
def test_reach_columns_match_reach_masks(make_graph) -> None:
    # column c is outcome c: bit j of c makes edge uncertain_edges[j] live
    g = make_graph()
    unc = g.uncertain_edges
    combos = np.arange(1 << len(unc), dtype=np.uint64)
    reach = influence._reach_columns(g, np.negative([combos >> np.uint64(j) & np.uint64(1) for j in range(len(unc))]))
    for c in range(len(combos)):
        mask = forced_live_mask(g) | sum(1 << i for j, i in enumerate(unc) if c >> j & 1)
        got = [sum(int(w) << (64 * k) for k, w in enumerate(reach[u, :, c])) for u in range(g.node_count)]
        assert got == list(reach_masks(g, mask)), c


def test_reach_order_components() -> None:
    for g in (_chain_source_first(12), Graph(4, ((0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 0.5)))):
        order = g.reach_order
        assert len(order) == g.node_count
        assert all(len(members) == 1 and not inner for members, _, inner in order)
    # a sink comes before every component that reaches it, and a dead edge
    # is no link
    order = _nested_components().reach_order
    assert [sorted(members) for members, _, _ in order] == [[7], [5, 6], [0, 1, 2, 3, 4]]
    assert all((2, 4) != link[:2] and (0, 7) != link[:2] for _, leaving, inner in order for link in leaving + inner)
    assert len(_cycle_worst_order(5000).reach_order) == 1


def test_realized_influence_matches_reach_masks_union() -> None:
    gen = np.random.default_rng(5)
    for g in (mixed_graph(), sim16_shaped_graph(), wide_graph()):
        n, e = g.node_count, len(g.edges)
        for _ in range(200):
            mask = sum(1 << int(i) for i in np.flatnonzero(gen.random(e) < 0.5))
            seeds = gen.integers(0, n, size=int(gen.integers(0, 5))).tolist()
            seeds += seeds[:1]  # a duplicate seed whenever there is a seed
            reach = reach_masks(g, mask)
            union = 0
            for s in seeds:
                union |= reach[s]
            assert realized_influence(g, seeds, mask) == union.bit_count()
        assert realized_influence(g, [], (1 << e) - 1) == 0


def test_singleton_table_is_exact_only_when_the_kernel_admits_it(monkeypatch) -> None:
    # a sample of the Monte Carlo table is 16 words x (1,000 nodes + 3,000
    # links + 1,000 seed sets) on a 1,000-node graph of 3 links a node, so
    # its 20,000 default samples are refused before any draw or pass; the
    # refusal comes the same way just above the limit
    def refuse(*args, **kwargs):
        raise AssertionError("drew samples or ran the kernel")

    monkeypatch.setattr(influence, "_reach_columns", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    mid = Graph(1000, tuple((u, (u + k) % 1000, 0.1) for u in range(1000) for k in (1, 7, 31)))
    per_sample = 16 * 5000
    start = time.perf_counter()
    for samples in (20000, influence.MAX_KERNEL_WORK // per_sample + 1):
        with pytest.raises(ValueError, match=re.escape(
            f"the reach kernel needs {samples * per_sample} word operations ({samples} outcomes x 16 words x "
            f"5000 rows: 1000 nodes, 3000 links and 1000 seed sets), above the limit of {influence.MAX_KERNEL_WORK}"
        )):
            singleton_influence_table(mid, samples)
    assert time.perf_counter() - start < 1.0
    # 500 nodes and 20 uncertain edges: within EXACT_EDGE_LIMIT, but the
    # exact table's 2^20 outcomes x 8 words x 1,020 rows are not admitted,
    # so it falls back to Monte Carlo, whose samples the same limit admits
    monkeypatch.undo()
    exact = []
    monkeypatch.setattr(influence, "_exact_spreads", lambda *args: exact.append(args))
    sparse = Graph(500, tuple((2 * t, 2 * t + 1, 0.5) for t in range(20)))
    table = singleton_influence_table(sparse, samples=64)
    assert exact == [] and len(table) == 500 and table[1] == table[499] == 1.0 and 1.0 <= table[0] <= 2.0
    with pytest.raises(ValueError, match="the reach kernel needs"):
        singleton_influence_table(sparse, samples=influence.MAX_KERNEL_WORK // (8 * 1020) + 1)


def test_mc_fallback_runs_one_kernel_pass_per_block(monkeypatch) -> None:
    # every node's entry comes from one shared pass per block of samples,
    # not one pass per node, and equals that node's own Monte Carlo mean
    passes: list[int] = []
    sampled_reach = influence._sampled_reach
    monkeypatch.setattr(influence, "_sampled_reach",
                        lambda g, live: passes.append(len(live)) or sampled_reach(g, live))
    edges = tuple((0, t, 0.5) for t in range(1, EXACT_EDGE_LIMIT + 2)) + ((1, 2, 0.3),)
    g = Graph(node_count=EXACT_EDGE_LIMIT + 2, edges=edges)
    samples = 2 * BLOCK + 5
    table = singleton_influence_table(g, samples=samples, rng_seed=3)
    assert passes == [BLOCK, BLOCK, 5]
    assert table[3] == 1.0
    assert 1.0 < table[1] < 2.0
    assert 1.0 < table[0] < EXACT_EDGE_LIMIT + 2
    assert [table[v] for v in range(g.node_count)] == [
        influence_mc_stats(g, [v], samples, rng_seed=3)[0] for v in range(g.node_count)
    ]


def test_mc_paths_keep_their_samples_within_the_memory_bound(monkeypatch) -> None:
    # 60 nodes and 180 uncertain edges, a block of uniforms 1.5 MB: at a
    # 64 KB bound the chunks keep the peak within 4x the bound, with the
    # same values as at the default bound
    gen = np.random.default_rng(60)
    g = Graph(node_count=60, edges=_random_edges(gen, 60, 180, 0.02, 0.2))
    samples = BLOCK + 76
    want = singleton_influence_table(g, samples, rng_seed=2), influence_mc_stats(g, [0, 5, 9], samples, rng_seed=2)
    monkeypatch.setattr(influence, "KERNEL_BYTES", 64 << 10)
    for call, value in ((lambda: singleton_influence_table(g, samples, rng_seed=2), want[0]),
                        (lambda: influence_mc_stats(g, [0, 5, 9], samples, rng_seed=2), want[1])):
        got, peak = traced_peak(call)
        assert got == value
        assert peak <= 4 * influence.KERNEL_BYTES, f"peak {peak} bytes"
    assert want[1][0] > 1.0


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
            mask = forced_live_mask(g)
            for j, i in enumerate(g.uncertain_edges):
                if row[j] < g.edges[i][2]:
                    mask |= 1 << i
            values.append(realized_influence(g, seeds, mask))
    mean = sum(values) / samples
    var = max(0.0, sum(v * v for v in values) / samples - mean * mean)
    got = influence_mc_stats(g, seeds, samples, rng_seed=5)
    assert (got[0].hex(), got[1].hex()) == (mean.hex(), ((var / samples) ** 0.5).hex())
