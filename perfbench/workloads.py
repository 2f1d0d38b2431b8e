"""Seeded workload generator.

Each workload is one instance shape plus one CLI command.  `generate(name,
seed, directory)` writes a batch of instance files of that shape and returns
one `couponprobe.cli.main` argv per file; the same seed always gives the same
file bytes and the same argvs.  The program under test sees only those files
and flags.  A run averages over its batch because the cost of one instance
depends on it (how many pivots its LPs take, how far its cascades reach) by
more than the benchmark's bounds allow.

Randomness comes from `random.Random("<name>:<seed>:<k>")`, whose output for
a string seed is fixed across Python 3 versions, so the inputs do not move
when numpy or the package's own RNG streams change.
"""

from __future__ import annotations

import os
import random

# A seed that no tuning run or recorded baseline has used.  Keep it for
# confirming a claimed gain on inputs the change was not tuned on.
HELD_OUT_SEED = 90017


def _attract_row(rnd: random.Random, coupons: int) -> list[float]:
    # a rational user never wants a bigger coupon less: rows are non-decreasing
    return sorted(round(rnd.uniform(0.05, 0.95), 3) for _ in range(coupons))


def _random_edges(rnd: random.Random, nodes: int, count: int, lo: float, hi: float,
                  taken: set[tuple[int, int]]) -> list[tuple[int, int, float]]:
    edges = []
    while len(edges) < count:
        u, v = rnd.randrange(nodes), rnd.randrange(nodes)
        if u == v or (u, v) in taken:
            continue
        taken.add((u, v))
        edges.append((u, v, round(rnd.uniform(lo, hi), 3)))
    return edges


def _write_instance(path: str, nodes: int, edges, coupons, rows, K: int, B: float,
                    W: int | None = None) -> None:
    lines = [f"nodes {nodes}"]
    lines += [f"edge {u} {v} {p!r}" for u, v, p in edges]
    lines.append("coupons " + " ".join(repr(float(c)) for c in coupons))
    lines += ["attract " + " ".join(repr(p) for p in row) for row in rows]
    lines += [f"K {K}", f"B {B!r}"]
    if W is not None:
        lines.append(f"W {W}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _relax48(rnd: random.Random, path: str) -> list[str]:
    # 8 users x (3 singles + 3 pairs of the low coupons 1, 2, 3) = 48 actions
    nodes, coupons = 8, (1.0, 2.0, 3.0, 6.0)
    edges = _random_edges(rnd, nodes, 10, 0.1, 0.6, set())
    rows = [_attract_row(rnd, len(coupons)) for _ in range(nodes)]
    _write_instance(path, nodes, edges, coupons, rows, K=2, B=7.0)
    return ["run", path, "--policy", "alg1", "--delta", "0.0208333",
            "--marginal-samples", "10", "--worlds", "400"]


def _sim16(rnd: random.Random, path: str) -> list[str]:
    # 15 uncertain edges: the exact singleton table enumerates 2^15 cascades
    nodes, coupons = 16, (1.0, 3.0)
    taken: set[tuple[int, int]] = set()
    edges = _random_edges(rnd, nodes, 3, 1.0, 1.0, taken)
    edges += _random_edges(rnd, nodes, 15, 0.1, 0.7, taken)
    # acceptance of the probed (largest) coupon in a narrow band, so every
    # instance probes about the same number of users per world
    rows = [[round(rnd.uniform(0.05, 0.3), 3), round(rnd.uniform(0.35, 0.5), 3)]
            for _ in range(nodes)]
    _write_instance(path, nodes, edges, coupons, rows, K=1, B=3.0)
    return ["run", path, "--policy", "alg2", "--worlds", "6000"]


def _oracle4(rnd: random.Random, path: str) -> list[str]:
    # coupons 1 and 2 are low-value (<= B/2); 4 is the alg2 coupon
    nodes, coupons = 4, (1.0, 2.0, 4.0)
    edges = _random_edges(rnd, nodes, 4, 0.2, 0.8, set())
    rows = [_attract_row(rnd, len(coupons)) for _ in range(nodes)]
    _write_instance(path, nodes, edges, coupons, rows, K=2, B=4.0, W=2)
    return ["compare", path, "--policy", "stoch-cp,e-stoch-cp,opt-oracle",
            "--delta", "0.25", "--marginal-samples", "50", "--worlds", "2000"]


# name -> (instance generator, instances per batch)
WORKLOADS = {"relax48": (_relax48, 9), "sim16": (_sim16, 3), "oracle4": (_oracle4, 8)}


def generate(name: str, seed: int, directory: str) -> list[list[str]]:
    """Write the workload's batch of instance files for `seed`; return their argvs."""
    build, batch = WORKLOADS[name]
    argvs = []
    for k in range(batch):
        rnd = random.Random(f"{name}:{seed}:{k}")
        argv = build(rnd, os.path.join(directory, f"{name}-{seed}-{k}.txt"))
        argvs.append(argv + ["--seed", str(rnd.randrange(1_000_000))])
    return argvs
