"""Influence spread under the independent cascade model on small directed graphs.

A live-edge realization is an int mask: bit i is set when edge i is live.
This module owns that representation, its one enumerator of outcomes and
its sampler, which reads a block of outcomes off one array of uniforms.
One vectorized reach kernel computes every node's reach over a set of
live-edge outcomes at once.  It computes spread exactly, over every outcome
in the enumerator's order, when the graph is small enough, and scores
blocks of sampled outcomes: Monte Carlo estimates, marginal samples and
simulated worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

# 2^20 live-edge realizations is the largest enumeration we are willing to run.
EXACT_EDGE_LIMIT = 20
# The exact kernel sizes its chunks of outcomes so that a chunk's arrays stay
# within this many bytes; larger chunks run no faster on 16-node graphs and
# raise peak memory.
KERNEL_BYTES = 4 << 20
# Sampled outcomes are drawn in blocks of this many rows: outcome i is row
# i % BLOCK of block i // BLOCK, whose stream is keyed by the block, so it
# depends neither on how many outcomes are drawn nor on how they are scored.
# On 16 nodes a block's arrays take about 0.5 MB; 2048 rows ran 25% faster
# per world there but raised peak RSS by 0.6 MB.
BLOCK = 1024


class InstanceError(ValueError):
    """A broken instance rule, naming the entry that breaks it.

    `field` is the Graph or Instance field, `index` the entry's position in
    it (None for a single value), and `first` the earlier position that a
    duplicate entry repeats.
    """

    def __init__(self, message: str, field: str, index: int | None = None, first: int | None = None):
        super().__init__(message)
        self.field = field
        self.index = index
        self.first = first


@dataclass(frozen=True)
class Graph:
    """Directed graph with an independent activation probability per edge.

    Nodes are the integers 0..node_count-1.  Edges are (source, target, prob)
    triples; self-loops and duplicate ordered pairs are rejected.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InstanceError(f"node count must be positive, got {self.node_count}", "node_count")
        object.__setattr__(self, "edges", tuple((int(u), int(v), float(p)) for u, v, p in self.edges))
        seen: dict[tuple[int, int], int] = {}
        for i, (u, v, p) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise InstanceError(f"edge endpoint out of range ({u}, {v})", "edges", i)
            if u == v:
                raise InstanceError(f"self-loop at node {u}", "edges", i)
            if (u, v) in seen:
                raise InstanceError(f"duplicate edge ({u}, {v})", "edges", i, first=seen[(u, v)])
            seen[(u, v)] = i
            if not 0.0 <= p <= 1.0:
                raise InstanceError(f"edge probability {p} outside [0, 1]", "edges", i)

    @cached_property
    def uncertain_edges(self) -> tuple[int, ...]:
        """Indices of edges with probability strictly between 0 and 1."""
        return tuple(i for i, (_, _, p) in enumerate(self.edges) if 0.0 < p < 1.0)

    @cached_property
    def forced_live_mask(self) -> int:
        return sum(1 << i for i, (_, _, p) in enumerate(self.edges) if p == 1.0)

    @cached_property
    def singleton_table(self) -> Mapping[int, float]:
        """singleton_influence_table at its defaults, computed once per graph."""
        return MappingProxyType(singleton_influence_table(self))


def _seed_list(graph: Graph, seeds: Iterable[int]) -> list[int]:
    out = sorted({int(s) for s in seeds})
    for s in out:
        if not 0 <= s < graph.node_count:
            raise ValueError(f"seed {s} is not a node of the graph")
    return out


def live_mask_outcomes(graph: Graph) -> Iterator[tuple[float, int]]:
    """Every live-edge realization as (probability, mask), one per subset of
    the uncertain edges.

    There are 2^len(graph.uncertain_edges) outcomes; callers bound that count
    before iterating.
    """
    unc = graph.uncertain_edges
    probs = [graph.edges[i][2] for i in unc]
    base = graph.forced_live_mask
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


def _chunk_columns(graph: Graph, extra_bytes: int = 0) -> int:
    """Outcome columns per kernel pass: the largest count, at least 1, whose
    arrays fit in KERNEL_BYTES = 4 MB, at 8 bytes per column for each node's
    reach words (twice, for temporaries), each uncertain edge's live column
    and six outcome vectors, plus extra_bytes per column that the caller
    holds alongside them."""
    words = -(-graph.node_count // 64)
    column = 8 * (2 * graph.node_count * words + len(graph.uncertain_edges) + 6) + extra_bytes
    return max(1, KERNEL_BYTES // column)


def _reach_columns(graph: Graph, live: np.ndarray) -> np.ndarray:
    """Each node's reach in each column of live-edge outcomes.

    live[j] is all ones in the columns where edge uncertain_edges[j] is live
    and zero elsewhere; forced edges are live in every column and dead edges
    in none.  Returns uint64 words of shape (n, ceil(n / 64), columns), where
    bit t of node u's words is set when u reaches t; reach is ORed along the
    live edges until no pass adds a node.
    """
    unc = graph.uncertain_edges
    n = graph.node_count
    column = {i: j for j, i in enumerate(unc)}
    # (source, target, live column or None for a forced edge)
    links = [(u, v, column.get(i)) for i, (u, v, p) in enumerate(graph.edges) if p > 0.0]
    nodes = np.arange(n)
    reach = np.zeros((n, -(-n // 64), live.shape[1]), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))[:, None]
    rows = list(reach)  # per-node views, updated in place
    step = np.empty(reach.shape[1:], dtype=np.uint64)
    count = n * live.shape[1]
    while True:
        for u, v, j in links:
            if j is None:
                np.bitwise_or(rows[u], rows[v], out=rows[u])
            else:
                np.bitwise_and(rows[v], live[j], out=step)
                np.bitwise_or(rows[u], step, out=rows[u])
        # reach only grows, so an unchanged bit count means a fixpoint
        new_count = int(np.bitwise_count(reach).sum())
        if new_count == count:
            return reach
        count = new_count


def _exact_spreads(graph: Graph, seed_sets: list[list[int]]) -> list[float]:
    """Exact expected spread of each (non-empty, validated) seed set.

    Enumerates every live-edge outcome in live_mask_outcomes order, in chunks
    of _chunk_columns outcomes, and carries each set's running total from
    chunk to chunk.
    """
    unc = graph.uncertain_edges
    if len(unc) > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact influence needs at most {EXACT_EDGE_LIMIT} uncertain edges, got {len(unc)}"
        )
    chunk = _chunk_columns(graph)
    outcomes = 1 << len(unc)
    totals = [0.0] * len(seed_sets)
    for start in range(0, outcomes, chunk):
        _add_chunk(graph, seed_sets, totals, start, min(start + chunk, outcomes))
    return totals


def _add_chunk(
    graph: Graph, seed_sets: list[list[int]], totals: list[float], start: int, stop: int
) -> None:
    """Add outcomes start..stop-1 to each seed set's total, in outcome order.

    Column c is outcome `start + c`: its bit j makes edge uncertain_edges[j]
    live.  Weights are multiplied per edge in the order live_mask_outcomes
    uses, and the sum is a sequential cumsum started from the carried total,
    so every total equals the per-outcome loop `total += weight * reached`
    bit for bit.
    """
    unc = graph.uncertain_edges
    combos = np.arange(start, stop, dtype=np.int64)
    weights = np.ones(stop - start)
    live = np.empty((len(unc), stop - start), dtype=np.uint64)
    for j, i in enumerate(unc):
        p = graph.edges[i][2]
        bit = combos >> j & 1
        weights *= np.where(bit == 1, p, 1.0 - p)
        live[j] = bit
    np.negative(live, out=live)  # all ones where the edge is live
    reach = _reach_columns(graph, live)
    for k, ids in enumerate(seed_sets):
        union = reach[ids[0]]
        for s in ids[1:]:
            union = union | reach[s]
        gains = np.bitwise_count(union).sum(axis=0) * weights
        gains[0] += totals[k]
        totals[k] = float(np.cumsum(gains)[-1])


def live_edges(graph: Graph, uniforms: np.ndarray) -> np.ndarray:
    """Which uncertain edges are live in each sampled outcome, as a bool array.

    Row r of uniforms holds one uniform per uncertain edge, in
    uncertain_edges order; an edge is live when its uniform is below its
    probability.  Edges of probability 0 or 1 have no column: they are dead
    or live in every outcome.
    """
    return uniforms < np.array([graph.edges[i][2] for i in graph.uncertain_edges])


def _sampled_reach(graph: Graph, live: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """_reach_columns over sampled outcomes, _chunk_columns at a time.

    Row r of live is outcome r, as live_edges gives it.  Yields (first row,
    reach) per chunk; the chunks split rows already drawn, so they change no
    draw.
    """
    step = _chunk_columns(graph)
    for start in range(0, len(live), step):
        columns = live[start:start + step].T.astype(np.uint64, order="C")
        np.negative(columns, out=columns)  # all ones where the edge is live
        yield start, _reach_columns(graph, columns)


def _seeded_union(reach: np.ndarray, seeded: np.ndarray) -> np.ndarray:
    """OR of the seeded nodes' reach per column: reach as _reach_columns gives
    it, seeded a bool (n, columns) matrix, column c the seeds of column c."""
    return np.bitwise_or.reduce(reach * seeded[:, None, :], axis=0)


def sampled_spreads(graph: Graph, live: np.ndarray, seeded: np.ndarray) -> np.ndarray:
    """Spread of a seed set in each sampled outcome, as an int64 array.

    Row r of live is an outcome, as live_edges gives it, and column r of the
    bool (n, outcomes) matrix seeded is true at its seeds; an outcome with no
    seed spreads to 0 and takes no kernel pass.
    """
    out = np.zeros(seeded.shape[1], dtype=np.int64)
    hit = np.flatnonzero(seeded.any(axis=0))
    for start, reach in _sampled_reach(graph, live[hit]):
        rows = hit[start:start + reach.shape[2]]
        out[rows] = np.bitwise_count(_seeded_union(reach, seeded.take(rows, axis=1))).sum(axis=0)
    return out


def influence_exact(graph: Graph, seeds: Iterable[int]) -> float:
    """Exact expected spread of a seed set, by live-edge enumeration.

    Only edges with probability strictly inside (0, 1) are enumerated; the
    count of those must not exceed EXACT_EDGE_LIMIT.
    """
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0
    return _exact_spreads(graph, [seed_ids])[0]


def _mc_reach(graph: Graph, samples: int, rng_seed: int) -> Iterator[np.ndarray]:
    """Every node's reach in each Monte Carlo sample, a kernel chunk at a time.

    Block b of BLOCK samples draws one uniform per uncertain edge and sample
    in one call on a stream keyed by (rng_seed, b), so sample i depends only
    on (rng_seed, i).
    """
    for b, start in enumerate(range(0, samples, BLOCK)):
        shape = (min(BLOCK, samples - start), len(graph.uncertain_edges))
        uniforms = np.random.default_rng([rng_seed, b]).random(shape)
        for _, reach in _sampled_reach(graph, live_edges(graph, uniforms)):
            yield reach


def influence_mc_stats(
    graph: Graph, seeds: Iterable[int], samples: int, rng_seed: int
) -> tuple[float, float]:
    """Monte Carlo spread estimate with its standard error, over the samples
    of _mc_reach."""
    if samples < 1:
        raise ValueError("samples must be positive")
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0, 0.0
    total = 0
    total_sq = 0
    for reach in _mc_reach(graph, samples, rng_seed):
        values = np.bitwise_count(np.bitwise_or.reduce(reach[seed_ids])).sum(axis=0, dtype=np.int64)
        total += int(values.sum())
        total_sq += int((values * values).sum())
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = (var / samples) ** 0.5
    return mean, stderr


def singleton_influence_table(
    graph: Graph, samples: int = 20000, rng_seed: int = 0
) -> dict[int, float]:
    """Expected spread of each single node, exact when the graph allows it.

    The exact table takes one kernel pass over the live-edge outcomes for all
    nodes.  The Monte Carlo fallback takes one over the samples of _mc_reach,
    shared by every node: node v's entry equals
    influence_mc_stats(graph, [v], samples, rng_seed)[0].
    """
    n = graph.node_count
    if len(graph.uncertain_edges) > EXACT_EDGE_LIMIT:
        totals = np.zeros(n, dtype=np.int64)
        for reach in _mc_reach(graph, samples, rng_seed):
            totals += np.bitwise_count(reach).sum(axis=(1, 2), dtype=np.int64)
        return {v: int(total) / samples for v, total in enumerate(totals)}
    return dict(enumerate(_exact_spreads(graph, [[v] for v in range(n)])))
