"""Exact counting of successive vertex orderings.

A vertex ordering is successive when every vertex except the first has an
earlier neighbour.  The count sigma(G) comes out of an alternating sum over
independent sets I, each weighted by w(I) = a(I)/n * b(I) where a(I) is the
number of vertices outside the closed neighbourhood of I and b(I) is a
recursively defined rational correction factor.

All arithmetic is exact.  The hot path scales b-values by lcm(1..n)**|I|,
which turns the recursion into pure big-integer work; public surfaces
expose ordinary ``fractions.Fraction`` values.  Because sigma(G) reaches
n!-scale and the alternating sum cancels heavily, the final
"n! * sigma' is an integer in [0, n!]" assertion doubles as a free
correctness check.

Every feature here runs on one pass of ``layers.iter_layers``: each layer
carries, in ``Layer.nbhds``, the closed neighbourhood N[I] of every set, so
|N[I]| for the recursion and a(I) = n - |N[I]| for the weights are read
from the pass, never recomputed.  Only one previous layer of masks,
neighbourhoods and scaled b-values stays resident.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import require_internal
from .graph import (
    Graph,
    VertexSet,
    a_value,
    is_independent,
    vertices_of,
)
from .layers import Layer, iter_layers

#: Cap on |I| for the factorial-cost permutation-sum cross-check.
PERMUTATION_SUM_MAX = 8


def _scale_base(n: int) -> int:
    """lcm(1..n); every closed-neighbourhood size divides it."""
    return math.lcm(*range(1, n + 1))


def _scaled_layers(
    g: Graph, universe: VertexSet | None = None
) -> Iterator[tuple[Layer, dict[VertexSet, int]]]:
    """Layered b-recursion over independent sets contained in ``universe``.

    Yields ``(layer, {mask: num})`` where ``num = b(mask) * lcm(1..n)**k``
    is an exact integer; the dict follows ``layer.sets`` in order, so it
    zips with ``layer.nbhds``.  |N[mask]| is read from the layer, and
    neighbourhoods are always those of the full graph: the universe only
    restricts which sets are enumerated.  Only the previous layer's
    b-values are retained.
    """
    scale = _scale_base(g.n)
    prev: dict[VertexSet, int] = {}
    for layer in iter_layers(g, universe):
        if layer.k == 0:
            cur = {0: 1}
        else:
            cur = {}
            for members, nbhd in zip(layer.sets, layer.nbhds):
                child_sum = 0
                rest = members
                while rest:
                    low = rest & -rest
                    rest ^= low
                    child_sum += prev[members ^ low]
                cur[members] = (scale // nbhd.bit_count()) * child_sum
        yield layer, cur
        prev = cur


def _layer_weights(
    g: Graph, universe: VertexSet | None = None, required: VertexSet = 0
) -> list[int]:
    """Per layer k, the sum of a(I) * b(I) * lcm(1..n)**k over the layer's
    independent sets I within ``universe`` that contain ``required``."""
    n = g.n
    sums = []
    for layer, cur in _scaled_layers(g, universe):
        acc = 0
        for nbhd, (mask, num) in zip(layer.nbhds, cur.items()):
            if not required & ~mask:
                acc += (n - nbhd.bit_count()) * num
        sums.append(acc)
    return sums


@dataclass(frozen=True)
class SigmaResult:
    """Exact count of successive orderings and the matching probability."""

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
    scale = _scale_base(g.n)
    layers = []
    for layer, cur in _scaled_layers(g, universe):
        denom = scale**layer.k
        layers.append({mask: Fraction(num, denom) for mask, num in cur.items()})
    return BTable(tuple(layers))


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
    layer by layer, mask-ascending, entirely in scaled integers.  The sum is
    a probability, so a value outside [0, 1] raises InternalCheckError.
    """
    scale = _scale_base(g.n)
    tsize = required.bit_count()
    layer_sums = _layer_weights(g, universe, required)
    alpha = len(layer_sums) - 1
    numer = 0
    for k, acc in enumerate(layer_sums):
        sign = -1 if (k - tsize) & 1 else 1
        numer += sign * acc * scale ** (alpha - k)
    value = Fraction(numer, g.n * scale**alpha)
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
