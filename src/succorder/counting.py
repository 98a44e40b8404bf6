"""Exact counting of successive vertex orderings.

A vertex ordering is successive when every vertex except the first has an
earlier neighbour.  The count sigma(G) comes out of an alternating sum over
independent sets I, each weighted by w(I) = a(I)/n * b(I) where a(I) is the
number of vertices outside the closed neighbourhood of I and b(I) is a
recursively defined rational correction factor.

All arithmetic is exact.  The hot path works on B(I) = n! b(I), the number
of orderings in which every vertex of I comes before all of its neighbours,
so the recursion and the weights are pure big-integer work no wider than
n! times n; public surfaces expose ordinary ``fractions.Fraction`` values.
Because sigma(G) reaches n!-scale and the alternating sum cancels heavily,
the final "n! * sigma' is an integer in [0, n!]" assertion doubles as a
free correctness check.

Every feature here runs on one pass of ``layers.iter_layers``, which
carries, per layer, each set's closed neighbourhood N[I] and count B(I),
and the layer's weight W_k = sum of a(I) B(I); nothing is recomputed
downstream, and only one previous layer stays resident.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .errors import require_internal
from .graph import (
    Graph, Record, VertexSet, a_value, is_independent, open_neighborhood, vertices_of,
)
from .layers import iter_layers

#: Cap on |I| for the factorial-cost permutation-sum cross-check.
PERMUTATION_SUM_MAX = 8


def _layer_weights(
    g: Graph, universe: VertexSet | None = None, required: VertexSet = 0
) -> list[int]:
    """Per layer k, the sum of a(I) * n! * b(I) over the layer's independent
    sets I within ``universe`` that contain ``required``."""
    if not required:
        return [layer.weight for layer in iter_layers(g, universe)]
    n = g.n
    return [
        sum(
            (n - nbhd.bit_count()) * count
            for mask, nbhd, count in zip(layer.sets, layer.nbhds, layer.counts)
            if not required & ~mask
        )
        for layer in iter_layers(g, universe)
    ]


class SigmaResult(Record):
    """Exact count of successive orderings and the matching probability."""

    __slots__ = ("n", "sigma", "sigma_prime")
    n: int
    sigma: int
    sigma_prime: Fraction


class BTable:
    """b-values of every independent set, grouped by cardinality.

    ``table[mask]`` is the exact Fraction b(mask); lookup of a set that is
    not independent (or lies outside the table's universe) raises KeyError.
    Immutable once built.
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


def compute_b_table(g: Graph, universe: VertexSet | None = None) -> BTable:
    """Materialize b(I) for every independent I (optionally within a universe).

    b(empty) = 1 and for nonempty I,
    b(I) = (1 / |N[I]|) * sum over v in I of b(I minus v).
    """
    nfact = math.factorial(g.n)
    return BTable(tuple(
        {mask: Fraction(count, nfact) for mask, count in zip(layer.sets, layer.counts)}
        for layer in iter_layers(g, universe)
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


def _alternating_total(g: Graph, universe: VertexSet | None, required: VertexSet = 0) -> Fraction:
    """Signed sum of w(I) over independent I in universe with required ⊆ I.

    The sign is (-1) to the power |I minus required|.  Accumulation runs
    layer by layer, mask-ascending, entirely in integers scaled by n * n!.
    The sum is a probability, so a value outside [0, 1] raises
    InternalCheckError.
    """
    tsize = required.bit_count()
    numer = 0
    for k, acc in enumerate(_layer_weights(g, universe, required)):
        numer += -acc if (k - tsize) & 1 else acc
    value = Fraction(numer, g.n * math.factorial(g.n))
    require_internal(0 <= value <= 1, f"signed weight sum {value} outside [0, 1]")
    return value


def sigma(g: Graph) -> SigmaResult:
    """Count the successive vertex orderings of g, exactly.

    sigma'(G) = sum over independent I of (-1)^|I| * a(I)/n * b(I) and
    sigma(G) = n! * sigma'(G); integrality and the [0, n!] range are
    asserted (a failure would mean an engine bug, not bad input).
    """
    sigma_prime = _alternating_total(g, None)
    scaled = sigma_prime * math.factorial(g.n)
    require_internal(scaled.denominator == 1, f"n! * sigma' = {scaled} is not an integer")
    return SigmaResult(g.n, scaled.numerator, sigma_prime)


def pr_good(g: Graph, universe: VertexSet) -> Fraction:
    """Probability that every vertex of ``universe`` is good.

    A vertex is good when it is first or some neighbour precedes it.  Equals
    the signed sum of w(I) over independent I contained in ``universe``.
    """
    return _alternating_total(g, universe)


def eval_partial(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> Fraction:
    """Partial derivatives in the T variables, evaluated at -1_S.

    Equals sum over independent I with T ⊆ I ⊆ S∪T of (-1)^|I\\T| w(I),
    which is Pr(every vertex of T bad and every vertex of S\\T good).  When
    T is not independent there are no independent supersets and the value
    is 0.  Every independent superset of T avoids T's open neighbourhood
    N(T), and b(I) does not depend on the universe, so the pass enumerates
    only (S∪T) minus N(T).
    """
    if (bad_set | good_set) & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    outside = open_neighborhood(g, bad_set)
    if bad_set & outside:
        return Fraction(0)
    return _alternating_total(g, (bad_set | good_set) & ~outside, required=bad_set)


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
