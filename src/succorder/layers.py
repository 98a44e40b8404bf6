"""The one layered pass: independent sets by cardinality, with their counts.

Sets are generated by canonical extension: a set is extended only by
vertices greater than its maximum that avoid its closed neighbourhood, so
every independent set is produced exactly once, from its own
maximum-element-removed parent.  A layer is held as one block per maximum
vertex, in mask order, with the empty set in a block of its own; read block
after block it is mask-ascending without a sort, which keeps downstream sums
in a stable order.  A child J = I ∪ {v} lies in v's block; its parents I are
in the blocks below v, and every other J minus u, u != v, has maximum v, so
its lookups need v's parent block alone.  The child layer is therefore built
from the top block down, and each parent block is dropped as soon as its
own children exist: the pass holds about one layer, not two.  That holds if
the caller lets go of each yielded layer before asking for the next, as
``map`` does and a ``for`` loop variable does not; a layer the caller keeps
is complete and never changed, and keeps its memory.

Each set I carries its closed neighbourhood N[I] in the whole graph, built as
N[I ∪ {v}] = N[I] | N[v], and its count B(I) = n! b(I): the number of
orderings in which every vertex of I precedes all of its neighbours.  In
those the first vertex of N[I] is some v in I, which is first in 1/|N[I]| of
the orderings counted by B(I minus v); so |N[I]| B(I) = sum over v in I of
B(I minus v), with B(empty) = n!.  A child's sum starts from its generating
parent's count.  Each layer carries its weight W_k = sum of a(I) B(I), with
a(I) = n - |N[I]|.  B(I) is taken by floor division; n sum B - W_k, which is
sum |N[I]| B(I), must equal the sum of the child sums, and differs exactly
when a division left a remainder.  On a pass over any universe U, every J
in layer k lies in |U minus N[J]| sets of layer k + 1, so those child sums
add up to the sum of |U minus N[J]| B(J); a child lost or doubled fails
this.  On a sealed universe, one that no edge leaves (the whole graph is
one), |U minus N[J]| = a(J) - (n - |U|), and the sum is W_k - (n - |U|)
sum B(J) without a look at the sets.  Either check raises
InternalCheckError.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain, islice
from operator import attrgetter

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


#: The block of a maximum vertex that no set of the layer has.
_EMPTY = ((), (), ())


def iter_layers(g: Graph, universe: VertexSet | None = None) -> Iterator[Layer]:
    """Yield layers k = 0, 1, ... of independent sets contained in ``universe``.

    The pass holds about one layer: the parent's blocks are dropped from
    the top down as the next layer is built.  A yielded layer is complete
    and never mutated, but a caller that keeps it keeps its memory, so the
    hot callers let go of each layer before asking for the next.  Stops
    after the last nonempty layer.  On every pass, each layer's child sums
    are checked against the layer below.
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
    total = math.factorial(n)
    weight = n * total
    # blocks[0] holds the empty set and blocks[i + 1] the sets whose maximum
    # is vertices[i]: the layer in mask order, cut where the maximum changes
    blocks = [([0], [0], [total])] + [_EMPTY] * len(vertices)
    k = 0
    while any(sets for sets, _, _ in blocks):
        layer = Layer(k, *_columns(blocks), weight)
        parent_sums = weight - outside * total if sealed else sum(
            (universe & ~nbhd).bit_count() * count for nbhd, count in zip(layer.nbhds, layer.counts))
        yield layer
        del layer  # let go of it before the next layer is built
        child_sums, total, weight = _children(blocks, vertices, closed, n)
        k += 1
        if n * total - weight != child_sums:
            raise InternalCheckError(f"layer {k}: a count is not its child sum over |N[I]|")
        if child_sums != parent_sums:
            raise InternalCheckError(f"layer {k}: child sums differ from layer {k - 1}'s weight")


def _columns(blocks: list) -> tuple:
    """A layer's sets, neighbourhoods and counts as flat tuples, block after block."""
    return tuple(tuple(chain.from_iterable(block[i] for block in blocks)) for i in range(3))


def _children(blocks: list, vertices: list, closed: list, n: int) -> tuple:
    """Replace each block of a layer by its children's block, in place and
    from the top block down (see the module docstring), and return the sums
    of the new layer's child sums, of its counts and of a(I) times its
    counts.  Children follow their parents' order."""
    child_sums = total = weight = 0
    for i in range(len(vertices), 0, -1):
        v = vertices[i - 1]
        low = 1 << v
        closed_v = closed[v]
        count_of = dict(zip(blocks[i][0], blocks[i][2]))
        sets, nbhds, counts = blocks[i] = [], [], []
        for members, nbhd, count in chain.from_iterable(zip(*block) for block in islice(blocks, i)):
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
            sets.append(child)
            nbhds.append(child_nbhd)
            counts.append(child_count)
            child_sums += child_sum
            weight += (n - size) * child_count
        del count_of  # the last hold on v's parent block, freed before the next dict is built
        total += sum(counts)
    blocks[0] = _EMPTY
    return child_sums, total, weight


def independence_number(g: Graph) -> int:
    """Size of the largest independent set."""
    return max(map(attrgetter("k"), iter_layers(g)))
