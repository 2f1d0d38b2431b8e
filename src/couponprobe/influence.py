"""Influence spread under the independent cascade model on small directed graphs.

A live-edge realization is an int mask: bit i is set when edge i is live.
This module owns that representation, its samplers (one realization, or a
block of them from one array of uniforms) and its one enumerator of
outcomes.  One vectorized reach kernel computes every node's
reach over a set of live-edge outcomes at once.  It computes spread exactly,
over every outcome in the enumerator's order, when the graph is small enough,
and scores blocks of sampled outcomes: Monte Carlo estimates and simulated
worlds.  One realization on its own is scored by a search from its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

# 2^20 live-edge realizations is the largest enumeration we are willing to run.
EXACT_EDGE_LIMIT = 20
# Graph.reach_masks stops caching once the cache holds this many per-node
# reach entries (live masks times node count): 2^16 masks on 16 nodes.
REACH_CACHE_LIMIT = 1 << 20
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
    # bounded reach cache keyed by live-edge bitmask; excluded from ==/hash
    _reach: dict = field(default_factory=dict, compare=False, repr=False)

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

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, its out-edges as (edge index, target) pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for i, (u, v, _) in enumerate(self.edges):
            out[u].append((i, v))
        return tuple(tuple(row) for row in out)

    def reach_masks(self, live_mask: int) -> tuple[int, ...]:
        """Per-node bitmask of nodes reachable through the given live edges.

        Results are cached per mask until the cache holds REACH_CACHE_LIMIT
        node entries (masks times node count).
        """
        cached = self._reach.get(live_mask)
        if cached is not None:
            return cached
        out = tuple([_reach_mask(self, [start], live_mask) for start in range(self.node_count)])
        if len(self._reach) * self.node_count < REACH_CACHE_LIMIT:
            self._reach[live_mask] = out
        return out


def _seed_list(graph: Graph, seeds: Iterable[int]) -> list[int]:
    out = sorted({int(s) for s in seeds})
    for s in out:
        if not 0 <= s < graph.node_count:
            raise ValueError(f"seed {s} is not a node of the graph")
    return out


def _reach_mask(graph: Graph, seed_ids: list[int], live_mask: int) -> int:
    """Bitmask of the nodes reached from the seeds through the live edges."""
    seen = 0
    for s in seed_ids:
        seen |= 1 << s
    stack = list(seed_ids)
    out_edges = graph.out_edges
    while stack:
        for i, v in out_edges[stack.pop()]:
            if live_mask >> i & 1 and not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
    return seen


def realized_influence(graph: Graph, seeds: Iterable[int], live_mask: int) -> int:
    """Number of nodes reached from the seeds through one live-edge realization.

    Bit i of live_mask is set when edge i is live.  The search starts from
    the seeds alone and leaves the reach cache untouched.
    """
    return _reach_mask(graph, _seed_list(graph, seeds), live_mask).bit_count()


def sample_live_mask(graph: Graph, rng: np.random.Generator) -> int:
    """Draw one live-edge realization as an int mask.

    Edges with probability 1 are always live and edges with probability 0
    never are; one uniform draw per uncertain edge, in edge order, decides
    the rest.
    """
    mask = graph.forced_live_mask
    unc = graph.uncertain_edges
    if unc:
        edges = graph.edges
        for draw, i in zip(rng.random(len(unc)).tolist(), unc):
            if draw < edges[i][2]:
                mask |= 1 << i
    return mask


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


def _chunk_columns(graph: Graph) -> int:
    """Outcome columns per kernel pass: the largest count, at least 1, whose
    arrays fit in KERNEL_BYTES = 4 MB, at 8 bytes per column for each node's
    reach words (twice, for temporaries), each uncertain edge's live column
    and six outcome vectors."""
    words = -(-graph.node_count // 64)
    return max(1, KERNEL_BYTES // (8 * (2 * graph.node_count * words + len(graph.uncertain_edges) + 6)))


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
    probability, as in sample_live_mask.
    """
    return uniforms < np.array([graph.edges[i][2] for i in graph.uncertain_edges])


def live_masks(graph: Graph, live: np.ndarray) -> list[int]:
    """The int mask of each sampled outcome (a row of live_edges)."""
    bits = np.zeros((len(live), len(graph.edges)), dtype=bool)
    bits[:, list(graph.uncertain_edges)] = live
    forced = graph.forced_live_mask
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [forced | int.from_bytes(row.tobytes(), "little") for row in packed]


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


def sampled_spreads(graph: Graph, live: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Spread of one seed node in each sampled outcome, as an int64 array.

    Row r of live is an outcome, as live_edges gives it, and seeds[r] is its
    seed node, or -1 for none (spread 0).
    """
    out = np.zeros(len(seeds), dtype=np.int64)
    hit = np.flatnonzero(seeds >= 0)
    for start, reach in _sampled_reach(graph, live[hit]):
        cols = np.arange(reach.shape[2])
        rows = hit[start:start + len(cols)]
        out[rows] = np.bitwise_count(reach[seeds[rows], :, cols]).sum(axis=1)
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


def influence_mc_stats(
    graph: Graph, seeds: Iterable[int], samples: int, rng_seed: int
) -> tuple[float, float]:
    """Monte Carlo spread estimate with its standard error.

    Block b of BLOCK samples draws one uniform per uncertain edge and sample
    in one call on a stream keyed by (rng_seed, b), so sample i depends only
    on (rng_seed, i).  Each block is scored by the reach kernel.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0, 0.0
    total = 0
    total_sq = 0
    for b, start in enumerate(range(0, samples, BLOCK)):
        shape = (min(BLOCK, samples - start), len(graph.uncertain_edges))
        uniforms = np.random.default_rng([rng_seed, b]).random(shape)
        for _, reach in _sampled_reach(graph, live_edges(graph, uniforms)):
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
    nodes; the Monte Carlo fallback runs influence_mc_stats per node.
    """
    n = graph.node_count
    if len(graph.uncertain_edges) > EXACT_EDGE_LIMIT:
        return {v: influence_mc_stats(graph, [v], samples, rng_seed + v)[0] for v in range(n)}
    return dict(enumerate(_exact_spreads(graph, [[v] for v in range(n)])))
