"""Cross-check routes: independent ways to the engine's answers.

Nothing on a command's path runs these.  They recompute what the layer pass
gives by other means, so that agreement between the two is a test: the
b-table as exact Fractions, w(I) from it, b(I) as its sum over the
orderings of I, Pr(every vertex of I bad) by Moebius inversion of
``pr_good``, Δb under deletion by the paper's triangular recursion, and the
per-set graph helpers these routes and the tests use.  Only a cross-check
imports this module: ``polynomial.eval_indicator`` imports it when it runs,
and ``counting`` resolves its old name ``compute_b_table`` through a module
``__getattr__`` (PEP 562).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .counting import pr_good
from .errors import InternalCheckError, require_internal
from .graph import Graph, VertexSet, iter_vertices, open_neighborhood, vertices_of
from .layers import iter_layers
from .polynomial import delete_decompose

#: Cap on |I| for the factorial-cost permutation-sum cross-check.
PERMUTATION_SUM_MAX = 8


def closed_neighborhood(g: Graph, members: VertexSet) -> VertexSet:
    return members | open_neighborhood(g, members)


def a_value(g: Graph, members: VertexSet) -> int:
    """Number of vertices outside the closed neighbourhood of the set."""
    return g.n - closed_neighborhood(g, members).bit_count()


def is_independent(g: Graph, members: VertexSet) -> bool:
    return not members & open_neighborhood(g, members)


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep``, relabelled to 0..k-1.

    Returns the subgraph together with ``old`` where ``old[i]`` is the
    original label of the subgraph's vertex ``i`` (increasing order).
    """
    if keep & ~g.full_mask:
        raise ValueError("keep mask mentions vertices outside the graph")
    if not keep:
        raise ValueError("induced subgraph needs at least one vertex")
    old = tuple(iter_vertices(keep))
    new_index = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        row = 0
        for u in iter_vertices(g.adj[v] & keep):
            row |= 1 << new_index[u]
        adj.append(row)
    return Graph(len(old), tuple(adj)), old


class BTable:
    """b-values of every independent set, grouped by cardinality.

    ``table[mask]`` is the exact Fraction b(mask); lookup of a set that is
    not independent raises KeyError.  Immutable once built.
    """

    def __init__(self, layers: tuple[dict[VertexSet, Fraction], ...]):
        self._layers = layers

    @property
    def layers(self) -> tuple[Mapping[VertexSet, Fraction], ...]:
        return self._layers

    def __getitem__(self, members: VertexSet) -> Fraction:
        return self._layers[members.bit_count()][members]

    def __contains__(self, members: VertexSet) -> bool:
        k = members.bit_count()
        return k < len(self._layers) and members in self._layers[k]

    def __len__(self) -> int:
        return sum(len(layer) for layer in self._layers)

    def items(self) -> Iterator[tuple[VertexSet, Fraction]]:
        for layer in self._layers:
            yield from layer.items()


def compute_b_table(g: Graph) -> BTable:
    """Materialize b(I) for every independent I.

    b(empty) = 1 and for nonempty I,
    b(I) = (1 / |N[I]|) * sum over v in I of b(I minus v).
    """
    nfact = math.factorial(g.n)
    return BTable(tuple(
        {mask: Fraction(count, nfact) for mask, count in zip(layer.sets, layer.counts)}
        for layer in iter_layers(g)
    ))


def b_permutation_sum(g: Graph, members: VertexSet) -> Fraction:
    """b(I) evaluated as its explicit sum over orderings of I.

    For each ordering rho of I, the term is the product over suffixes
    {rho_j, ..., rho_k} of 1 / |N[suffix]|.  Cost is |I|!, so this is a
    cross-check tool, guarded at |I| <= 8.
    """
    k = members.bit_count()
    if k > PERMUTATION_SUM_MAX:
        raise ValueError(f"permutation sum is limited to |I| <= {PERMUTATION_SUM_MAX}, got {k}")
    if not is_independent(g, members):
        raise ValueError("permutation sum requires an independent set")
    n = g.n
    suffix_size: dict[VertexSet, int] = {}
    total = Fraction(0)
    for rho in itertools.permutations(vertices_of(members)):
        denom = 1
        suffix = 0
        for v in reversed(rho):
            suffix |= 1 << v
            m = suffix_size.get(suffix)
            if m is None:
                m = suffix_size[suffix] = n - a_value(g, suffix)
            denom *= m
        total += Fraction(1, denom)
    return total


def weight(g: Graph, members: VertexSet, table: BTable) -> Fraction:
    """w(I) = a(I)/n * b(I): the probability that every vertex of I is bad.

    A vertex is bad in an ordering when it is not first yet precedes all of
    its neighbours.
    """
    try:
        b = table[members]
    except KeyError:
        raise ValueError("weight is defined for independent sets only") from None
    return Fraction(a_value(g, members), g.n) * b


def pr_bad_via_mobius(g: Graph, members: VertexSet) -> Fraction:
    """Pr(every vertex of an independent set is bad), via the dual good events.

    Inverts pr_good over the subset lattice:
    sum over T subset of I of (-1)^|T| * pr_good(T).  Must equal
    weight(g, I, ...) exactly; keeping the two routes separate makes the
    agreement a meaningful test.
    """
    if not is_independent(g, members):
        raise ValueError("Moebius inversion requires an independent set")
    total = Fraction(0)
    sub = members
    while True:
        sign = -1 if sub.bit_count() & 1 else 1
        total += sign * pr_good(g, sub)
        if sub == 0:
            break
        sub = (sub - 1) & members
    return total


def delta_b(g: Graph, removed: VertexSet) -> dict[VertexSet, Fraction]:
    """Δb_I = b_{G-S}(I) - b_G(I) for every independent set I of G - S.

    S is ``removed``; the keys are the sets in G's labels, layer by layer and
    mask-ascending.  Computed by the paper's triangular recursion on
    Δ_I = n! Δb_I over G's survivors, the sets I with I ∩ S = ∅:
    |N_{G'}[I]| Δ_I = sum over v in I of Δ_{I\\v} + |N_G[I] ∩ S| B_G(I),
    with Δ_∅ = 0 and B = n! b, on one pass over G with two layers of
    survivors resident.  P_{G-S} comes from ``delete_decompose``, whose
    second pass runs over G - S itself, and the recursion must reach it.

    Checks, each raising InternalCheckError that names the degree, the layer
    or the set:
      (b) every division of the Δ recursion is exact;
      (c) for every survivor I, a_{G'}(I) = n' - |N_{G'}[I]| equals
          a_G(I) - (|S| - |N_G[I] ∩ S|), two independently built
          neighbourhoods against each other;
      (d) G''s own recursion and completeness: for each layer k,
          the sum of |N_{G'}[J]| B_{G'}(J) over its layer k + 1 equals
          the sum of a_{G'}(I) B_{G'}(I) over its layer k;
      (h) a survivor with a subset missing from the layer below;
      (k) the recursion's weight of G' at every degree, the sum of
          a_{G'}(I) B_{G'}(I), equals n' n!/n'! times the coefficient of F
          that ``delete_decompose`` reports for P_{G'}.
    """
    p_gprime = delete_decompose(g, removed).p_gprime
    n = g.n
    nfact = math.factorial(n)
    removed_size = removed.bit_count()
    sub_n = n - removed_size
    sub_closed = [(row | 1 << v) & ~removed for v, row in enumerate(g.adj)]
    table: dict[VertexSet, Fraction] = {}
    weights: list[int] = []
    survivors: dict[VertexSet, tuple[VertexSet, int]] = {}
    acc = 0
    for layer in iter_layers(g):
        k, prev, parent_acc, survivors = layer.k, survivors, acc, {}
        # acc and child sum a_{G'} B_{G'} and |N_{G'}| B_{G'} over the survivors
        acc = child = 0
        try:
            for mask, nbhd, num_g in zip(layer.sets, layer.nbhds, layer.counts):
                if mask & removed:
                    continue
                if not mask:
                    survivors[0] = (0, 0)
                    acc += sub_n * num_g
                    continue
                # as in iter_layers, the sum starts from the generating parent's Δ
                top = mask.bit_length() - 1
                rest = mask ^ 1 << top
                sub_nbhd, child_sum = prev[rest]
                sub_nbhd |= sub_closed[top]
                size = sub_nbhd.bit_count()
                overlap = (nbhd & removed).bit_count()
                if sub_n - size != n - nbhd.bit_count() - removed_size + overlap:
                    raise InternalCheckError(f"outside-count mismatch after deletion for set {mask:#x}")
                child_sum += overlap * num_g
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    child_sum += prev[mask ^ bit][1]
                delta, rem = divmod(child_sum, size)
                if rem:
                    raise InternalCheckError(f"delta-b recursion fails for set {mask:#x}")
                survivors[mask] = (sub_nbhd, delta)
                num = num_g + delta
                acc += (sub_n - size) * num
                child += size * num
        except KeyError:
            raise InternalCheckError(f"set {mask:#x} lacks a subset in layer {k - 1}") from None
        del prev  # before the next G layer is built: two layers of survivors resident
        if child != parent_acc:
            raise InternalCheckError(f"G' child sums at layer {k} differ from layer {k - 1}'s weight")
        weights.append(acc)
        table.update((mask, Fraction(delta, nfact)) for mask, (_, delta) in survivors.items())
    require_internal(not acc, f"G' child sums at layer {k + 1} differ from layer {k}'s weight")
    scale = sub_n * nfact // math.factorial(sub_n)
    for k, (total, coeff) in enumerate(itertools.zip_longest(weights, p_gprime.f_coeffs, fillvalue=0)):
        if total != scale * coeff:
            raise InternalCheckError(f"G' weight at degree {k} differs from the delta-b recursion's")
    return table
