"""The one layered pass: independent sets by cardinality, with their counts.

Sets are generated by canonical extension: a set is extended only by
vertices greater than its maximum that avoid its closed neighbourhood, so
every independent set is produced exactly once, from its own
maximum-element-removed parent.  Children are built vertex by vertex, each
from the parents below that vertex in mask order, so every layer comes out
mask-ascending without a sort, which keeps downstream sums in a stable order.

Each set I carries its closed neighbourhood N[I] in the whole graph, built as
N[I ∪ {v}] = N[I] | N[v], and its count B(I) = n! b(I): the number of
orderings in which every vertex of I precedes all of its neighbours.  In
those the first vertex of N[I] is some v in I, which is first in 1/|N[I]| of
the orderings counted by B(I minus v); so |N[I]| B(I) = sum over v in I of
B(I minus v), with B(empty) = n!.  A child's sum starts from its generating
parent's count.  Each layer carries its weight W_k = sum of a(I) B(I), with
a(I) = n - |N[I]|.  B(I) is taken by floor division; n sum B - W_k, which is
sum |N[I]| B(I), must equal the sum of the child sums, and differs exactly
when a division left a remainder.  On a pass over a sealed universe U, one
that no edge leaves (the whole graph is one), every J in layer k lies in
|U| - |N[J]| = a(J) - (n - |U|) sets of layer k + 1, so those child sums add
up to W_k - (n - |U|) sum B(J); a child lost or doubled fails this.  Other
universes have no such count and skip it.  Either check raises
InternalCheckError.  Only one previous layer stays resident.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from itertools import islice

from .errors import InternalCheckError
from .graph import Graph, Record, VertexSet, iter_vertices


class Layer(Record):
    """All independent sets of one cardinality, mask-ascending.

    ``nbhds[i]`` is the closed neighbourhood of ``sets[i]`` in the whole
    graph, whatever universe the enumeration was restricted to; ``counts[i]``
    is n! b(sets[i]), and ``weight`` is the sum of a(I) n! b(I) over the
    layer, with n the vertex count of the whole graph.
    """

    __slots__ = ("k", "sets", "nbhds", "counts", "weight")
    k: int
    sets: tuple[VertexSet, ...]
    nbhds: tuple[VertexSet, ...]
    counts: tuple[int, ...]
    weight: int

    def __len__(self) -> int:
        return len(self.sets)


def iter_layers(g: Graph, universe: VertexSet | None = None) -> Iterator[Layer]:
    """Yield layers k = 0, 1, ... of independent sets contained in ``universe``.

    Only the previous layer is kept resident, so memory is bounded by the
    two largest layers.  Stops after the last nonempty layer.  When no edge
    leaves ``universe``, each layer's child sums are checked against the
    layer below, as on the whole graph.
    """
    if universe is None:
        universe = g.full_mask
    elif universe & ~g.full_mask:
        raise ValueError("universe mentions vertices outside the graph")
    n = g.n
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    vertices = list(iter_vertices(universe))
    sealed = not any(closed[v] & ~universe for v in vertices)
    outside = n - len(vertices)
    sets, nbhds, counts = (0,), (0,), (math.factorial(n),)
    total = counts[0]
    weight = n * total
    k = 0
    while sets:
        yield Layer(k, sets, nbhds, counts, weight)
        parent_sums = weight - outside * total
        children = _children(sets, nbhds, counts, vertices, closed, n)
        sets, nbhds, counts, child_sums, total, weight = children
        k += 1
        if n * total - weight != child_sums:
            raise InternalCheckError(f"layer {k}: a count is not its child sum over |N[I]|")
        if sealed and child_sums != parent_sums:
            raise InternalCheckError(f"layer {k}: child sums differ from layer {k - 1}'s weight")


def _children(
    sets: tuple, nbhds: tuple, counts: tuple, vertices: list, closed: list, n: int
) -> tuple:
    """The next layer's sets, neighbourhoods and counts, then the sums of its
    child sums, of its counts and of a(I) times its counts.  Children with
    maximum v follow all children with a smaller maximum, in parent order."""
    count_of = dict(zip(sets, counts))
    child_sets, child_nbhds, child_counts = [], [], []
    child_sums = weight = 0
    for v in vertices:
        low = 1 << v
        closed_v = closed[v]
        # the parents whose maximum lies below v are a prefix of the layer
        for members, nbhd, count in islice(zip(sets, nbhds, counts), bisect_left(sets, low)):
            if nbhd & low:
                continue
            child = members | low
            child_nbhd = nbhd | closed_v
            child_sum, rest = count, members
            while rest:
                bit = rest & -rest
                rest ^= bit
                child_sum += count_of[child ^ bit]
            size = child_nbhd.bit_count()
            child_count = child_sum // size
            child_sets.append(child)
            child_nbhds.append(child_nbhd)
            child_counts.append(child_count)
            child_sums += child_sum
            weight += (n - size) * child_count
    total = sum(child_counts)
    return tuple(child_sets), tuple(child_nbhds), tuple(child_counts), child_sums, total, weight


def independence_number(g: Graph) -> int:
    """Size of the largest independent set."""
    alpha = 0
    for layer in iter_layers(g):
        alpha = layer.k
    return alpha
