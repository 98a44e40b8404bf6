"""Duplicate-free enumeration of independent sets, streamed by cardinality.

Sets are generated by canonical extension: a set is extended only by
vertices greater than its maximum that avoid its closed neighbourhood, so
every independent set is produced exactly once, from its own
maximum-element-removed parent.  Children are built vertex by vertex, each
from the parents lying below that vertex in mask order, so every layer comes
out in strictly increasing mask order without a sort; that keeps golden
files and downstream accumulation orders stable.

Each set carries its closed neighbourhood N[I] in the whole graph,
``Layer.nbhds``, built as N[I ∪ {v}] = N[I] | N[v]; a(I) = n - |N[I]| is
read from it, so no consumer recomputes a neighbourhood.  Only one previous
layer of masks and neighbourhoods stays resident.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import islice

from .graph import Graph, Record, VertexSet, iter_vertices


class Layer(Record):
    """All independent sets of one cardinality, mask-ascending.

    ``nbhds[i]`` is the closed neighbourhood of ``sets[i]`` in the whole
    graph, whatever universe the enumeration was restricted to.
    """

    __slots__ = ("k", "sets", "nbhds")
    k: int
    sets: tuple[VertexSet, ...]
    nbhds: tuple[VertexSet, ...]

    def __len__(self) -> int:
        return len(self.sets)


def iter_layers(g: Graph, universe: VertexSet | None = None) -> Iterator[Layer]:
    """Yield layers k = 0, 1, ... of independent sets contained in ``universe``.

    Only the previous layer is kept resident, so memory is bounded by the
    two largest layers.  Stops after the last nonempty layer.
    """
    if universe is None:
        universe = g.full_mask
    elif universe & ~g.full_mask:
        raise ValueError("universe mentions vertices outside the graph")
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    vertices = list(iter_vertices(universe))
    sets: tuple[VertexSet, ...] = (0,)
    nbhds: tuple[VertexSet, ...] = (0,)
    k = 0
    while sets:
        yield Layer(k, sets, nbhds)
        sets, nbhds = _children(sets, nbhds, vertices, closed)
        k += 1


def _children(
    sets: tuple[VertexSet, ...],
    nbhds: tuple[VertexSet, ...],
    vertices: list[int],
    closed: list[VertexSet],
) -> tuple[tuple[VertexSet, ...], tuple[VertexSet, ...]]:
    """The next layer's sets and neighbourhoods, mask-ascending.

    Children with maximum v come after all children with a smaller maximum,
    and among themselves in the order of their parents.
    """
    child_sets: list[VertexSet] = []
    child_nbhds: list[VertexSet] = []
    for v in vertices:
        low = 1 << v
        closed_v = closed[v]
        # the parents whose maximum lies below v are a prefix of the layer
        for members, nbhd in islice(zip(sets, nbhds), bisect_left(sets, low)):
            if not nbhd & low:
                child_sets.append(members | low)
                child_nbhds.append(nbhd | closed_v)
    return tuple(child_sets), tuple(child_nbhds)


def independence_number(g: Graph) -> int:
    """Size of the largest independent set."""
    alpha = 0
    for layer in iter_layers(g):
        alpha = layer.k
    return alpha
