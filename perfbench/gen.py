"""Seeded input graphs and their exact properties, computed by the benchmark.

The construction copies the one in ``succorder.randgraph`` (a uniformly
random labelled tree from a Pruefer sequence, then one coin flip at the
given density per non-tree vertex pair), so a change to the program's own
generator cannot change a workload.  Graphs are adjacency bitmask lists:
``adj[v]`` has bit ``u`` set when ``u`` and ``v`` are adjacent.

For a fixed seed the coin flips are drawn whatever the density, so the edge
set only grows with the density and the number of independent sets only
falls.  ``graph_near_target`` uses that to bisect on the density until the
independent-set count is close to a target, which keeps the work of a
workload nearly the same from seed to seed.
"""

from __future__ import annotations

import heapq
import random


def random_connected_adj(n: int, density: float, seed: int) -> list[int]:
    """Pruefer-tree-plus-coin-flips graph on n vertices."""
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
            add_edge(heapq.heappop(leaves), x)
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        add_edge(heapq.heappop(leaves), heapq.heappop(leaves))

    for u in range(n):
        for v in range(u + 1, n):
            if not (adj[u] >> v) & 1 and rng.random() < density:
                add_edge(u, v)
    return adj


def from_edges(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if (adj[u] >> v) & 1]


def edge_list_text(adj: list[int], comment: str) -> str:
    """The program's input format: a comment, 'n m', then one 'u v' line per edge."""
    edges = edges_of(adj)
    lines = [f"# {comment}", f"{len(adj)} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _pivot(adj: list[int], mask: int) -> tuple[int, int]:
    """A vertex of the mask with the most neighbours inside it, and that degree."""
    best, best_degree = -1, -1
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        degree = (adj[v] & mask).bit_count()
        if degree > best_degree:
            best, best_degree = v, degree
    return best, best_degree


def count_independent_sets(adj: list[int], within: int | None = None) -> int:
    """|IS(G)|, or of the subgraph induced on the mask ``within``, the empty set
    included, by memoised branching on a vertex."""
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v, degree = _pivot(adj, mask) if mask else (-1, 0)
        if degree <= 0:
            result = 1 << mask.bit_count()
        else:
            without = mask & ~(1 << v)
            result = count(without) + count(without & ~adj[v])
        memo[mask] = result
        return result

    return count((1 << len(adj)) - 1 if within is None else within)


def independence_number(adj: list[int]) -> int:
    """alpha(G), by the same memoised branching."""
    memo: dict[int, int] = {}

    def alpha(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v, degree = _pivot(adj, mask) if mask else (-1, 0)
        if degree <= 0:
            result = mask.bit_count()
        else:
            without = mask & ~(1 << v)
            result = max(alpha(without), 1 + alpha(without & ~adj[v]))
        memo[mask] = result
        return result

    return alpha((1 << len(adj)) - 1)


def independent_sets(adj: list[int]) -> list[int]:
    """Every independent set as a mask, by a scan over all subsets (small n only)."""
    return [mask for mask in range(1 << len(adj)) if is_independent(adj, mask)]


def is_independent(adj: list[int], members: int) -> bool:
    return not any((members >> v) & 1 and adj[v] & members for v in range(len(adj)))


def outside_count(adj: list[int], members: int) -> int:
    """a(I): vertices outside the closed neighbourhood of the set."""
    closed = members
    for v in range(len(adj)):
        if (members >> v) & 1:
            closed |= adj[v]
    return len(adj) - closed.bit_count()


def graph_near_target(
    n: int, lo: float, hi: float, target: int, seed: int, tolerance: float = 0.03
) -> tuple[list[int], float, int]:
    """A graph whose |IS| is within ``tolerance`` of ``target``.

    Tries generator seeds ``seed * 1000 + attempt`` in turn and, for each,
    bisects the density over [lo, hi].  Returns ``(adj, density, gen_seed)``.
    """
    for attempt in range(1000):
        gen_seed = seed * 1000 + attempt
        a, b = lo, hi
        for _ in range(16):
            density = (a + b) / 2
            adj = random_connected_adj(n, density, gen_seed)
            count = count_independent_sets(adj)
            if abs(count - target) <= tolerance * target:
                return adj, density, gen_seed
            if count > target:
                a = density
            else:
                b = density
    raise RuntimeError(f"no graph on {n} vertices with about {target} independent sets")
