"""Influence spread under the independent cascade model on small directed graphs.

The sampler reads live-edge outcomes off an array of uniforms as bool
rows, and the kernel takes outcomes as columns of its word, all ones where
an uncertain edge is live: the narrowest of uint8, uint16 and uint32 that
holds a bit per node, or uint64 words above 32 nodes.  One vectorized reach
kernel computes every node's reach over a set of live-edge outcomes at once,
in one pass over the graph's links when it is acyclic: it visits the
strongly connected components sinks first and repeats only the links inside
a component.  It computes spread exactly, over every outcome in order, when
the graph is small enough, and scores sampled outcomes a chunk at a time:
Monte Carlo estimates, marginal samples and simulated worlds.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

# 2^20 live-edge realizations is the largest enumeration we are willing to run.
EXACT_EDGE_LIMIT = 20
# The most word operations (_kernel_rows) one reach-kernel call, or one
# continuous greedy, may take: about 10 s and 100 MB of max RSS up to 1,000
# nodes.  At the limit, on a 2-core x86 host (Python 3.11, numpy 2.4), exact
# singleton tables took 0.6-1.0 s, Monte Carlo ones, on graphs of 3 links a
# node with p in [0.02, 0.2], 4.4 s on 200 nodes, 6.0 s on 500 and 11.1 s on
# 1,000 (+17 to +53 MB), and greedies 2.0-4.3 s (+4 to +18 MB).  A word costs
# more as the node count grows and chunks narrow: 23 s on 2,000 nodes.
MAX_KERNEL_WORK = 1 << 28
# The bytes a chunk of outcomes may hold: its kernel arrays and each row's
# arrays beside them (_chunk_columns); the exact path rounds that down to a
# power of two and reuses one reach buffer from chunk to chunk.  Larger
# chunks run no faster on 16-node graphs and raise peak memory: there, in
# uint16 words, an exact singleton table took a median 3.6 ms warm in
# 2^14-outcome chunks and 4.4 ms in chunks of 2^15 and 2^16 (8 and 16 MB),
# on the host above.
KERNEL_BYTES = 4 << 20
# Sampled outcomes are keyed in blocks of this many rows: outcome i is row
# i % BLOCK of block i // BLOCK, whose stream is keyed by the block, so it
# depends neither on how many outcomes are drawn nor on how they are chunked.
# On 16 nodes a block's arrays take about 0.5 MB; 2048 rows ran 25% faster
# per world there but raised peak RSS by 0.6 MB.
BLOCK = 1024

# reach links (source, target, live column or None for a forced edge): the
# source gains the target's reach where the edge is live
Links = tuple[tuple[int, int, int | None], ...]


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


def _count(value, field: str, index: int | None = None, label: str | None = None) -> int:
    """A non-negative integer of any integer type (numpy's too) but bool, as
    a plain int; anything else raises InstanceError naming the field."""
    try:
        count = None if isinstance(value, bool) else int(operator.index(value))
    except TypeError:
        count = None
    if count is None or count < 0:
        raise InstanceError(f"{label or field} must be a non-negative integer, got {value!r}", field, index)
    return count


def _positive(value, name: str) -> int:
    """A count (_count) of at least 1, as a plain int; anything else raises
    ValueError naming it."""
    try:
        count = _count(value, name)
    except InstanceError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def _admit(
    count: int, limit: int, what: str, unit: str, parts: str, error: type[ValueError] | None = ValueError
) -> bool:
    """The package's one size rule: whether count, the work or memory an
    input needs in unit, is within limit.  Above it, raises error with
    "<what> needs <count> <unit> (<parts>), above the limit of <limit>",
    or, when error is None, returns False."""
    if count <= limit:
        return True
    if error is None:
        return False
    raise error(f"{what} needs {count} {unit} ({parts}), above the limit of {limit}")


def _is_real(value) -> bool:
    """The one rule for real-valued fields: a number of any real type
    (numpy's too) but bool."""
    if type(value) is float:
        return True  # what the instance parser yields, without numbers.Real's slower check
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, field: str, index: int | None = None, label: str | None = None) -> float:
    """A real number (_is_real) as a plain float; anything else raises
    InstanceError naming the field."""
    if not _is_real(value):
        raise InstanceError(f"{label or field} must be a real number, got {value!r}", field, index)
    return float(value)


@dataclass(frozen=True)
class Graph:
    """Directed graph with an independent activation probability per edge.

    Nodes are the integers 0..node_count-1.  Edges are (source, target, prob)
    triples; self-loops and duplicate ordered pairs are rejected.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_count", _count(self.node_count, "node_count"))
        if self.node_count < 1:
            raise InstanceError(f"node count must be positive, got {self.node_count}", "node_count")
        object.__setattr__(self, "edges", tuple(
            (
                _count(u, "edges", i, "edge endpoint"),
                _count(v, "edges", i, "edge endpoint"),
                _real(p, "edges", i, "edge probability"),
            )
            for i, (u, v, p) in enumerate(self.edges)
        ))
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
    def singleton_table(self) -> Mapping[int, float]:
        """singleton_influence_table at its defaults, computed once per graph."""
        return MappingProxyType(singleton_influence_table(self))

    @cached_property
    def reach_order(self) -> tuple[tuple[tuple[int, ...], Links, Links], ...]:
        """The reach kernel's link order: (members, leaving links, inner
        links) per strongly connected component of the positive-probability
        edges, sinks first, so every link that leaves a component points at
        one already done.  Inner links are sorted by their source's DFS
        index, deepest first; on a DAG no component has any."""
        column = {i: j for j, i in enumerate(self.uncertain_edges)}
        links: list[list[tuple[int, int, int | None]]] = [[] for _ in range(self.node_count)]
        for i, (u, v, p) in enumerate(self.edges):
            if p > 0.0:
                links[u].append((u, v, column.get(i)))
        components, index = _tarjan([[v for _, v, _ in out] for out in links])
        owner = {u: c for c, members in enumerate(components) for u in members}
        order = []
        for c, members in enumerate(components):
            out = [link for u in members for link in links[u]]
            inner = sorted((link for link in out if owner[link[1]] == c),
                           key=lambda link: (-index[link[0]], -index[link[1]]))
            order.append((tuple(members), tuple(link for link in out if owner[link[1]] != c), tuple(inner)))
        return tuple(order)


def _tarjan(succ: list[list[int]]) -> tuple[list[list[int]], dict[int, int]]:
    """Strongly connected components of the graph with successor lists succ,
    in the order Tarjan's algorithm completes them (sinks first), and each
    node's DFS index.  The search keeps its own stack, so its depth is not
    bounded by the interpreter's recursion limit."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    for root in range(len(succ)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, targets = work[-1]
            for v in targets:
                if v not in index:
                    index[v] = low[v] = len(index)
                    stack.append(v)
                    on_stack.add(v)
                    work.append((v, iter(succ[v])))
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                if low[u] == index[u]:
                    at = stack.index(u)
                    components.append(stack[at:])
                    on_stack.difference_update(stack[at:])
                    del stack[at:]
    return components, index


def _seed_list(graph: Graph, seeds: Iterable[int]) -> list[int]:
    out = sorted({int(s) for s in seeds})
    for s in out:
        if not 0 <= s < graph.node_count:
            raise ValueError(f"seed {s} is not a node of the graph")
    return out


def _word(graph: Graph) -> tuple[type[np.unsignedinteger], int]:
    """The reach kernel's word and the words a node's reach takes per
    outcome: one uint8, uint16 or uint32, the narrowest that holds a bit per
    node, up to 32 nodes, and ceil(n / 64) uint64 words above."""
    for word in (np.uint8, np.uint16, np.uint32):
        if graph.node_count <= np.iinfo(word).bits:
            return word, 1
    return np.uint64, -(-graph.node_count // 64)


def _chunk_columns(graph: Graph, extra_bytes: int = 0) -> int:
    """Outcome columns per chunk, the one memory rule for outcomes: the
    largest count, at least 1, whose arrays fit in KERNEL_BYTES = 4 MB, at
    the kernel's word (_word) per column for each node's reach words (twice,
    for temporaries) and each uncertain edge's live column, 8 bytes for each
    of six outcome vectors (weights, gains, a union and its counts), plus
    extra_bytes for what the caller holds per column (draws, accepts, live
    edges, seeds).  _exact_spreads rounds it down to a power of two; sampled
    paths take it as it is."""
    word, words = _word(graph)
    column = np.dtype(word).itemsize * (2 * graph.node_count * words + len(graph.uncertain_edges)) + 8 * 6
    return max(1, KERNEL_BYTES // (column + extra_bytes))


def _kernel_rows(graph: Graph, sets: int) -> tuple[int, str]:
    """The reach kernel's word operations per outcome column when it scores
    `sets` seed sets, and what they are made of: a node's words (_word) a
    row, and a row per node (its own bit), per link of positive probability
    and per seed set.  Links are counted once, though a component's inner
    links repeat until its reach stops growing."""
    words = _word(graph)[1]
    links = sum(len(leaving) + len(inner) for _, leaving, inner in graph.reach_order)
    rows = graph.node_count + links + sets
    return words * rows, f"{words} words x {rows} rows: {graph.node_count} nodes, {links} links and {sets} seed sets"


def _admit_kernel(graph: Graph, columns: int, sets: int, error: type[ValueError] | None = ValueError) -> bool:
    """Whether a reach-kernel call over that many outcome columns that
    scores `sets` seed sets is within MAX_KERNEL_WORK word operations
    (_admit)."""
    per_column, parts = _kernel_rows(graph, sets)
    return _admit(columns * per_column, MAX_KERNEL_WORK, "the reach kernel", "word operations",
                  f"{columns} outcomes x {parts}", error)


def _admit_exact(graph: Graph, sets: int, error: type[ValueError] | None = ValueError) -> bool:
    """Whether _exact_spreads may score `sets` seed sets (_admit): at most
    EXACT_EDGE_LIMIT uncertain edges, whose outcomes are the kernel's
    columns, within MAX_KERNEL_WORK."""
    edges = len(graph.uncertain_edges)
    return (_admit(edges, EXACT_EDGE_LIMIT, "exact influence", "uncertain edges",
                   f"2^{edges} live-edge outcomes", error)
            and _admit_kernel(graph, 1 << edges, sets, error))


def _or_links(rows: list[np.ndarray], live: np.ndarray, step: np.ndarray, links: Links) -> None:
    """One pass of rows[u] |= rows[v] over links, masked by live[j] for an
    uncertain edge; step is a scratch row."""
    for u, v, j in links:
        if j is None:
            np.bitwise_or(rows[u], rows[v], out=rows[u])
        else:
            np.bitwise_and(rows[v], live[j], out=step)
            np.bitwise_or(rows[u], step, out=rows[u])


def _reach_columns(graph: Graph, live: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each node's reach in each column of live-edge outcomes.

    live[j], in the kernel's word (_word), is all ones in the columns where
    edge uncertain_edges[j] is live and zero elsewhere; forced edges are live
    in every column and dead edges in none.  Returns words of shape (n, words,
    columns), in out when given, where bit t of node u's words, counted from
    the low bit of its first, is set when u reaches t.  Reach is ORed along
    the live edges one component of graph.reach_order at a time, sinks
    first: the links leaving a component once, as their targets' reach is
    already whole, then its inner links until the bit count of its rows
    stops moving.  On a DAG that is one pass over the links.
    """
    n = graph.node_count
    word, words = _word(graph)
    bits = np.iinfo(word).bits
    shape = (n, words, live.shape[1])
    nodes = np.arange(n)
    itself = np.zeros(shape[:2] + (1,), dtype=word)
    itself[nodes, nodes // bits] = np.left_shift(word(1), (nodes % bits).astype(word))[:, None]
    reach = np.empty(shape, dtype=word) if out is None else out
    np.copyto(reach, itself)
    rows = list(reach)  # per-node views, updated in place
    step = np.empty(shape[1:], dtype=word)
    # the fixpoint test counts bits on uint64 views where a row's bytes
    # allow: the counts are the same, and wide words count several times faster
    counted = reach.reshape(n, -1)
    if counted.shape[1] * counted.itemsize % 8 == 0:
        counted = counted.view(np.uint64)
    for members, leaving, inner in graph.reach_order:
        _or_links(rows, live, step, leaving)
        count = -1
        while inner:
            _or_links(rows, live, step, inner)
            # reach only grows, so an unchanged bit count means a fixpoint
            new_count = sum(int(np.bitwise_count(counted[u]).sum()) for u in members)
            if new_count == count:
                break
            count = new_count
    return reach


def _exact_spreads(graph: Graph, seed_sets: list[list[int]]) -> list[float]:
    """Exact expected spread of each (non-empty, validated) seed set.

    Enumerates the live-edge outcomes k = 0, 1, ..., 2^e - 1 of the e
    uncertain edges: the j-th is live in outcome k when bit j of k is set,
    and k weighs the product, in edge order, of p for a live edge and 1 - p
    for a dead one.  They come in chunks of 2^m outcomes: the largest power
    of two within _chunk_columns, and at most all of them.  Outcome
    `high << m | c` is column c of chunk `high`, so the low m bits vary with
    the column and the others are constant in a chunk.  The low-bit weights
    and live columns are built once, the weights by doubling; each chunk
    multiplies the weights by its high-bit factors as scalars, and makes
    each high-bit edge live or dead in every column.  That is the same
    per-edge product in the same order, and each set's sum is a sequential
    cumsum started from the total carried over from the last chunk, so every
    total equals the per-outcome loop `total += weight * reached` bit for bit.
    What _admit_exact does not admit is refused before any pass.
    """
    _admit_exact(graph, len(seed_sets))
    unc = graph.uncertain_edges
    probs = [graph.edges[i][2] for i in unc]
    m = min(_chunk_columns(graph).bit_length() - 1, len(unc))
    low = np.ones(1)
    for p in probs[:m]:
        low = np.concatenate((low * (1.0 - p), low * p))
    word = _word(graph)[0]
    ones = np.iinfo(word).max
    live = np.empty((len(unc), 1 << m), dtype=word)
    for j in range(m):
        halves = live[j].reshape(-1, 2, 1 << j)  # [:, 1] are the columns with bit j set
        halves[:, 0] = 0
        halves[:, 1] = ones
    reach = None
    gains = np.empty(1 << m)
    totals = [0.0] * len(seed_sets)
    for high in range(1 << (len(unc) - m)):
        weights = low
        for j in range(m, len(unc)):
            live_high = high >> (j - m) & 1
            weights = weights * (probs[j] if live_high else 1.0 - probs[j])
            live[j] = ones if live_high else 0
        reach = _reach_columns(graph, live, out=reach)
        for k, ids in enumerate(seed_sets):
            union = reach[ids[0]]
            for s in ids[1:]:
                union = union | reach[s]
            counts = np.bitwise_count(union)  # one word needs no sum
            np.multiply(counts[0] if len(counts) == 1 else counts.sum(axis=0), weights, out=gains)
            gains[0] += totals[k]
            totals[k] = float(np.cumsum(gains, out=gains)[-1])
    return totals


def live_edges(graph: Graph, uniforms: np.ndarray) -> np.ndarray:
    """Which uncertain edges are live in each sampled outcome, as a bool array.

    Row r of uniforms holds one uniform per uncertain edge, in
    uncertain_edges order; an edge is live when its uniform is below its
    probability.  Edges of probability 0 or 1 have no column: they are dead
    or live in every outcome.
    """
    return uniforms < np.array([graph.edges[i][2] for i in graph.uncertain_edges])


def _sampled_reach(graph: Graph, live: np.ndarray) -> np.ndarray:
    """_reach_columns over sampled outcomes in one kernel pass: row r of
    live is outcome r, as live_edges gives it, and column r of the reach.
    Callers size live by _chunk_columns."""
    columns = live.T.astype(_word(graph)[0], order="C")
    np.negative(columns, out=columns)  # all ones where the edge is live
    return _reach_columns(graph, columns)


def _seeded_union(reach: np.ndarray, seeded: np.ndarray) -> np.ndarray:
    """OR of the seeded nodes' reach per column: reach as _reach_columns gives
    it, seeded a bool (n, columns) matrix, column c the seeds of column c."""
    return np.bitwise_or.reduce(reach * seeded[:, None, :], axis=0)


def sampled_spreads(graph: Graph, live: np.ndarray, seeded: np.ndarray) -> np.ndarray:
    """Spread of a seed set in each sampled outcome, as an int64 array, in
    one kernel pass over outcomes that the caller sizes by _chunk_columns.

    Row r of live is an outcome, as live_edges gives it, and column r of the
    bool (n, outcomes) matrix seeded is true at its seeds; an outcome with no
    seed spreads to 0 and takes no kernel column.
    """
    out = np.zeros(seeded.shape[1], dtype=np.int64)
    hit = np.flatnonzero(seeded.any(axis=0))
    if len(hit):
        out[hit] = np.bitwise_count(_seeded_union(_sampled_reach(graph, live[hit]), seeded[:, hit])).sum(axis=0)
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


def _mc_reach(graph: Graph, samples: int, rng_seed: int, sets: int) -> Iterator[np.ndarray]:
    """Every node's reach in each Monte Carlo sample, a chunk at a time, for
    scoring `sets` seed sets; refused before the first draw unless
    _admit_kernel admits it.

    Block b of BLOCK samples draws one uniform per uncertain edge and sample
    on a stream keyed by (rng_seed, b), as many rows of one block at a time
    as _chunk_columns gives for the uniforms and live edges they hold, so
    sample i depends only on (rng_seed, i).
    """
    _admit_kernel(graph, samples, sets)
    unc = len(graph.uncertain_edges)
    step = _chunk_columns(graph, 9 * unc)  # uniforms at 8 bytes, live edges at 1
    for b, start in enumerate(range(0, samples, BLOCK)):
        gen = np.random.default_rng([rng_seed, b])
        rows = min(BLOCK, samples - start)
        for first in range(0, rows, step):
            yield _sampled_reach(graph, live_edges(graph, gen.random((min(step, rows - first), unc))))


def influence_mc_stats(
    graph: Graph, seeds: Iterable[int], samples: int, rng_seed: int
) -> tuple[float, float]:
    """Monte Carlo spread estimate with its standard error, over the samples
    of _mc_reach."""
    samples = _positive(samples, "samples")
    rng_seed = _count(rng_seed, "rng_seed")
    seed_ids = _seed_list(graph, seeds)
    if not seed_ids:
        return 0.0, 0.0
    total = 0
    total_sq = 0
    for reach in _mc_reach(graph, samples, rng_seed, 1):
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
    """Expected spread of each single node, exact when _admit_exact admits it.

    The exact table takes one kernel pass over the live-edge outcomes for all
    nodes.  The Monte Carlo fallback takes one over the samples of _mc_reach,
    shared by every node: node v's entry equals
    influence_mc_stats(graph, [v], samples, rng_seed)[0].
    """
    samples = _positive(samples, "samples")
    rng_seed = _count(rng_seed, "rng_seed")
    n = graph.node_count
    if _admit_exact(graph, n, None):
        return dict(enumerate(_exact_spreads(graph, [[v] for v in range(n)])))
    totals = np.zeros(n, dtype=np.int64)
    for reach in _mc_reach(graph, samples, rng_seed, n):
        totals += np.bitwise_count(reach).sum(axis=(1, 2), dtype=np.int64)
    return {v: int(total) / samples for v, total in enumerate(totals)}
