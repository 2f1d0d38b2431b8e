"""Influence spread under the independent cascade model on small directed graphs.

A live-edge realization is an int mask: bit i is set when edge i is live.
This module owns that representation, its one sampler and its one exact
enumerator.  Spread values are computed exactly by enumerating realizations
when the graph is small enough, and by seeded Monte Carlo otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# 2^20 live-edge realizations is the largest enumeration we are willing to run.
EXACT_EDGE_LIMIT = 20
# Graph.reach_masks caches at most this many live masks (~0.5 KB each on 16
# nodes); at least 2^15, so a 15-uncertain-edge singleton table stays cached.
REACH_CACHE_LIMIT = 1 << 16


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

    def reach_masks(self, live_mask: int) -> tuple[int, ...]:
        """Per-node bitmask of nodes reachable through the given live edges."""
        cached = self._reach.get(live_mask)
        if cached is not None:
            return cached
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, (u, v, _) in enumerate(self.edges):
            if live_mask >> i & 1:
                adj[u].append(v)
        masks = []
        for start in range(self.node_count):
            seen_mask = 1 << start
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adj[node]:
                    bit = 1 << nxt
                    if not seen_mask & bit:
                        seen_mask |= bit
                        stack.append(nxt)
            masks.append(seen_mask)
        out = tuple(masks)
        if len(self._reach) < REACH_CACHE_LIMIT:
            self._reach[live_mask] = out
        return out


def _seed_list(graph: Graph, seeds: Iterable[int]) -> list[int]:
    out = sorted(set(int(s) for s in seeds))
    for s in out:
        if not 0 <= s < graph.node_count:
            raise ValueError(f"seed {s} is not a node of the graph")
    return out


def _reached(reach: tuple[int, ...], seed_ids: list[int]) -> int:
    union = 0
    for s in seed_ids:
        union |= reach[s]
    return union.bit_count()


def realized_influence(graph: Graph, seeds: Iterable[int], live_mask: int) -> int:
    """Number of nodes reached from the seeds through one live-edge realization.

    Bit i of live_mask is set when edge i is live.
    """
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0
    return _reached(graph.reach_masks(live_mask), seed_ids)


def sample_live_mask(graph: Graph, rng: np.random.Generator) -> int:
    """Draw one live-edge realization as an int mask.

    Edges with probability 1 are always live and edges with probability 0
    never are; one uniform draw per uncertain edge, in edge order, decides
    the rest.
    """
    mask = graph.forced_live_mask
    unc = graph.uncertain_edges
    if unc:
        draws = rng.random(len(unc))
        for j, i in enumerate(unc):
            if draws[j] < graph.edges[i][2]:
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


def influence_exact(graph: Graph, seeds: Iterable[int]) -> float:
    """Exact expected spread of a seed set, by live-edge enumeration.

    Only edges with probability strictly inside (0, 1) are enumerated; the
    count of those must not exceed EXACT_EDGE_LIMIT.
    """
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0
    unc = graph.uncertain_edges
    if len(unc) > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact influence needs at most {EXACT_EDGE_LIMIT} uncertain edges, got {len(unc)}"
        )
    total = 0.0
    for weight, mask in live_mask_outcomes(graph):
        total += weight * _reached(graph.reach_masks(mask), seed_ids)
    return total


def influence_mc_stats(
    graph: Graph, seeds: Iterable[int], samples: int, rng_seed: int
) -> tuple[float, float]:
    """Monte Carlo spread estimate with its standard error.

    Sample i draws its realization from a stream keyed by (rng_seed, i), so
    the estimate does not depend on how samples would be split across workers.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0, 0.0
    total = 0.0
    total_sq = 0.0
    for i in range(samples):
        mask = sample_live_mask(graph, np.random.default_rng([rng_seed, i]))
        value = _reached(graph.reach_masks(mask), seed_ids)
        total += value
        total_sq += value * value
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = (var / samples) ** 0.5
    return mean, stderr


def singleton_influence_table(
    graph: Graph, samples: int = 20000, rng_seed: int = 0
) -> dict[int, float]:
    """Expected spread of each single node, exact when the graph allows it.

    The exact table takes one pass over the live-edge outcomes for all nodes.
    """
    n = graph.node_count
    if len(graph.uncertain_edges) > EXACT_EDGE_LIMIT:
        return {v: influence_mc_stats(graph, [v], samples, rng_seed + v)[0] for v in range(n)}
    totals = [0.0] * n
    for weight, mask in live_mask_outcomes(graph):
        totals = [t + weight * r.bit_count() for t, r in zip(totals, graph.reach_masks(mask))]
    return dict(enumerate(totals))
