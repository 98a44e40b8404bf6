"""Seeded random connected graphs for benchmarks and sampled verification.

Construction: a spanning tree drawn uniformly at random over all labelled
trees (random Pruefer sequence), then an independent coin flip at the given
density for every non-tree vertex pair.  The same seed always produces the
same graph.  The CLI's ``bench`` handler, which times the engine on such a
graph, lives here.
"""

from __future__ import annotations

import heapq
import math
import random
import time

from .graph import MAX_VERTICES, Graph


def random_connected_graph(n: int, density: float, seed: int) -> Graph:
    # before the O(n²) coin flips: ``bench --n`` takes any decimal
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"edge density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    adj = [0] * n

    def add_edge(u: int, v: int) -> None:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    if n == 2:
        add_edge(0, 1)
    elif n > 2:
        prufer = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in prufer:
            degree[x] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in prufer:
            leaf = heapq.heappop(leaves)
            add_edge(leaf, x)
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        add_edge(heapq.heappop(leaves), heapq.heappop(leaves))

    for u in range(n):
        for v in range(u + 1, n):
            if not (adj[u] >> v) & 1 and rng.random() < density:
                add_edge(u, v)
    return Graph(n, tuple(adj))


def _cmd_bench(opts: dict, g: Graph) -> dict:
    """The CLI's ``bench`` command (see ``cli._COMMANDS``)."""
    from .counting import _ratio_text, sigma

    start = time.perf_counter()
    count = sigma(g).sigma
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "n": opts["n"],
        "density": opts["density"],
        "seed": opts["seed"],
        "sigma": str(count),
        "sigma_prime": _ratio_text(count, math.factorial(g.n)),
        "elapsed_ms": round(elapsed_ms, 3),
    }
