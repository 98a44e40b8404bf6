"""Exact counting of successive vertex orderings.

A vertex ordering is successive when every vertex except the first has an
earlier neighbour.  The count sigma(G) comes out of an alternating sum over
independent sets I, each weighted by w(I) = a(I)/n * b(I) where a(I) is the
number of vertices outside the closed neighbourhood of I and b(I) is a
recursively defined rational correction factor.

All arithmetic is exact.  The hot path works on B(I) = n! b(I), the number
of orderings in which every vertex of I comes before all of its neighbours,
so the recursion and the weights are pure big-integer work no wider than
n! times n.  Because sigma(G) reaches n!-scale and the alternating sum
cancels heavily, the final "n! * sigma' is an integer in [0, n!]" assertion
doubles as a free correctness check.

Every result here is a signed layer sum, a numerator over n * n!, whose
[0, 1] and integrality checks run in integers.  ``sigma`` returns the
integer count; ``pr_good``, ``eval_partial`` and ``SigmaResult``'s derived
``sigma_prime`` return Fractions and import ``fractions`` only where they
build one.  The CLI's ``count`` and ``eval`` handlers live here and print
their ratios through ``_ratio_text``, so those processes load neither
``fractions`` nor the ``decimal`` module it imports.

Every feature here runs on one pass of ``layers.iter_layers``, which
carries, per layer, each set's closed neighbourhood N[I] and count B(I),
and the layer's weight W_k = sum of a(I) B(I); nothing is recomputed
downstream.  The pass holds about one layer while it builds the next, and
``_layer_weights`` reads each layer through ``map``, which lets go of it
before the next is built; a caller that keeps a layer keeps its memory.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import InternalCheckError
from .graph import Graph, Record, VertexSet, _parse_vertex_list, open_neighborhood, vertices_of
from .layers import Layer, iter_layers

#: Old paths of cross-check routes, kept because the benchmark's tracer wraps
#: ``counting.compute_b_table``; they resolve from ``crosscheck``.
_CROSSCHECK = ("compute_b_table",)


def __getattr__(name: str):
    # PEP 562: the cross-check route loads only when a cross-check asks for it
    if name not in _CROSSCHECK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import crosscheck

    return getattr(crosscheck, name)


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without importing fractions:
    ``"p/q"`` in lowest terms, or ``"p"`` when q is 1."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def _layer_weights(
    g: Graph, universe: VertexSet | None = None, required: VertexSet = 0
) -> list[int]:
    """Per layer k, the sum of a(I) * n! * b(I) over the layer's independent
    sets I within ``universe`` that contain ``required``.

    ``map`` lets go of each layer before it asks the pass for the next; a
    loop variable would keep the old layer alive while the next is built.
    """
    if not required:
        return list(map(attrgetter("weight"), iter_layers(g, universe)))
    n = g.n

    def weight(layer: Layer) -> int:
        return sum(
            (n - nbhd.bit_count()) * count
            for mask, nbhd, count in zip(layer.sets, layer.nbhds, layer.counts)
            if not required & ~mask
        )

    return list(map(weight, iter_layers(g, universe)))


class SigmaResult(Record):
    """Exact count of successive orderings; ``sigma_prime`` is the probability sigma / n!."""

    __slots__ = ("n", "sigma")
    n: int
    sigma: int

    @property
    def sigma_prime(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.sigma, math.factorial(self.n))


def _signed_sum(g: Graph, universe: VertexSet | None, required: VertexSet = 0) -> int:
    """Signed sum of w(I) over independent I in universe with required ⊆ I,
    as a numerator over n * n!.

    The sign is (-1) to the power |I minus required|.  Accumulation runs
    layer by layer, mask-ascending, entirely in integers.  The sum is a
    probability, so a numerator outside [0, n * n!] raises InternalCheckError.
    """
    tsize = required.bit_count()
    numer = 0
    for k, acc in enumerate(_layer_weights(g, universe, required)):
        numer += -acc if (k - tsize) & 1 else acc
    den = g.n * math.factorial(g.n)
    if not 0 <= numer <= den:
        raise InternalCheckError(f"signed weight sum {_ratio_text(numer, den)} outside [0, 1]")
    return numer


def sigma(g: Graph) -> SigmaResult:
    """Count the successive vertex orderings of g, exactly.

    sigma'(G) = sum over independent I of (-1)^|I| * a(I)/n * b(I) and
    sigma(G) = n! * sigma'(G), the signed sum over every independent set
    divided by n; integrality and the [0, n!] range are asserted (a failure
    would mean an engine bug, not bad input).
    """
    numer = _signed_sum(g, None)
    count, rem = divmod(numer, g.n)
    if rem:
        raise InternalCheckError(f"n! * sigma' = {_ratio_text(numer, g.n)} is not an integer")
    return SigmaResult(g.n, count)


def pr_good(g: Graph, universe: VertexSet) -> Fraction:
    """Probability that every vertex of ``universe`` is good.

    A vertex is good when it is first or some neighbour precedes it.  Equals
    the signed sum of w(I) over independent I contained in ``universe``.
    """
    from fractions import Fraction

    return Fraction(_signed_sum(g, universe), g.n * math.factorial(g.n))


def _partial_sum(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> int:
    """``eval_partial`` as a numerator over n * n!."""
    if (bad_set | good_set) & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    outside = open_neighborhood(g, bad_set)
    if bad_set & outside:
        return 0
    return _signed_sum(g, (bad_set | good_set) & ~outside, required=bad_set)


def eval_partial(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> Fraction:
    """Partial derivatives in the T variables, evaluated at -1_S.

    Equals sum over independent I with T ⊆ I ⊆ S∪T of (-1)^|I\\T| w(I),
    which is Pr(every vertex of T bad and every vertex of S\\T good).  When
    T is not independent there are no independent supersets and the value
    is 0.  Every independent superset of T avoids T's open neighbourhood
    N(T), and b(I) does not depend on the universe, so the pass enumerates
    only (S∪T) minus N(T).
    """
    from fractions import Fraction

    return Fraction(_partial_sum(g, bad_set, good_set), g.n * math.factorial(g.n))


def _cmd_count(opts: dict, g: Graph) -> dict:
    """The CLI's ``count`` command (see ``cli._COMMANDS``)."""
    count = sigma(g).sigma
    return {"sigma": str(count), "sigma_prime": _ratio_text(count, math.factorial(g.n))}


def _cmd_eval(opts: dict, g: Graph) -> dict:
    """The CLI's ``eval`` command (see ``cli._COMMANDS``)."""
    good = _parse_vertex_list(g, opts["good"])
    bad = _parse_vertex_list(g, opts["bad"])
    return {
        "good": vertices_of(good & ~bad),
        "bad": vertices_of(bad),
        "probability": _ratio_text(_partial_sum(g, bad, good), g.n * math.factorial(g.n)),
    }
