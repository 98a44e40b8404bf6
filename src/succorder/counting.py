"""Exact counting of successive vertex orderings: F, sigma = F(-1) and events.

A vertex ordering is successive when every vertex except the first has an
earlier neighbour.  Every result here is a signed sum over independent sets
I, each weighted by w(I) = a(I)/n * b(I), where a(I) is the number of
vertices outside the closed neighbourhood of I and b(I) is a recursively
defined rational correction factor.

All arithmetic is exact.  The hot path works on B(I) = n! b(I), the number
of orderings in which every vertex of I comes before all of its neighbours,
so the recursion and the weights are pure big-integer work no wider than
n! times n.  Collected by cardinality, the weights give the integer
polynomial F(x) = n! * sum of w(I) x^|I|, each coefficient asserted to be a
nonnegative integer and F(0) = n!.  The count sigma(G) is F(-1), asserted
in [0, n!]; because the alternating sum cancels heavily, these checks
double as a free correctness check.  Every event probability ("these
vertices bad, those good") is one more signed sum, ``_event_sum``, a
numerator over n * n! asserted in [0, n * n!]; ``pr_good`` and
``eval_partial`` wrap it.  ``fractions`` is imported only where a Fraction
is built, and the CLI's ``count`` and ``eval`` handlers, which live here,
print their ratios through ``_ratio_text``.

Every result runs on one pass of ``layers.iter_layers``, which carries, per
layer, each set's closed neighbourhood N[I] and count B(I), and the layer's
weight W_k = sum of a(I) B(I); nothing is recomputed downstream.  The pass
holds about one layer while it builds the next, and ``_layer_weights``
reads each layer through ``map``, which lets go of it before the next is
built; a caller that keeps a layer keeps its memory.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import InternalCheckError, require_internal
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


class OrderingPolynomial(Record):
    """Coefficients of F(x) = n! P_G(x), and of P_G(x) derived from them.

    ``f_coeffs[j]`` counts pairs (ordering, independent j-subset of its bad
    vertices), hence is a nonnegative integer; ``p_coeffs[j] = f_coeffs[j]
    / n!`` is the total weight of independent sets of size j.  Trailing
    zero coefficients are trimmed.
    """

    __slots__ = ("n", "f_coeffs")
    n: int
    f_coeffs: tuple[int, ...]

    @property
    def p_coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        nfact = math.factorial(self.n)
        return tuple(Fraction(c, nfact) for c in self.f_coeffs)


def build_polynomial(g: Graph) -> OrderingPolynomial:
    """Assemble P_G and F from the layered weight sums."""
    return _polynomial(g.n, _layer_weights(g))


def _polynomial(n: int, layer_sums: list[int]) -> OrderingPolynomial:
    """F, hence P_G, from the per-layer sums W_k of a(I) * n! * b(I).

    F's coefficient at degree k is W_k / n; its integrality and
    nonnegativity are asserted, and a failure would signal an arithmetic bug.
    """
    f: list[int] = []
    for k, layer_sum in enumerate(layer_sums):
        c, rem = divmod(layer_sum, n)
        require_internal(rem == 0, f"F coefficient at degree {k} is not integral")
        require_internal(c >= 0, f"F coefficient at degree {k} is negative")
        f.append(c)
    require_internal(f[0] == math.factorial(n), "constant coefficient of P_G must be 1")
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return OrderingPolynomial(n, tuple(f))


def eval_at_minus_one(poly: OrderingPolynomial) -> SigmaResult:
    """sigma(G) = F(-1): the count of orderings with no bad vertex."""
    total = sum(-c if k & 1 else c for k, c in enumerate(poly.f_coeffs))
    require_internal(0 <= total <= math.factorial(poly.n), f"F(-1) = {total} outside [0, n!]")
    return SigmaResult(poly.n, total)


def sigma(g: Graph) -> SigmaResult:
    """Count the successive vertex orderings of g, exactly, as F(-1).

    sigma'(G) = sum over independent I of (-1)^|I| * a(I)/n * b(I), and
    sigma(G) = n! * sigma'(G) is F(-1).  ``build_polynomial``'s per-degree
    checks and the [0, n!] range are asserted (a failure would mean an
    engine bug, not bad input).
    """
    return eval_at_minus_one(build_polynomial(g))


def _event_sum(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> int:
    """Pr(every vertex of T = ``bad_set`` bad and every vertex of S minus T
    good, with S = ``good_set``), as a numerator over n * n!.

    Equals the sum over independent I with T ⊆ I ⊆ S∪T of (-1)^|I\\T| w(I).
    When T is not independent there are no independent supersets and the
    value is 0.  Every independent superset of T avoids T's open
    neighbourhood N(T), and b(I) does not depend on the universe, so the
    pass enumerates only (S∪T) minus N(T).  Accumulation runs layer by
    layer, mask-ascending, entirely in integers.  The sum is a probability,
    so a numerator outside [0, n * n!] raises InternalCheckError.
    """
    if (bad_set | good_set) & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    outside = open_neighborhood(g, bad_set)
    if bad_set & outside:
        return 0
    tsize = bad_set.bit_count()
    numer = 0
    for k, acc in enumerate(_layer_weights(g, (bad_set | good_set) & ~outside, bad_set)):
        numer += -acc if (k - tsize) & 1 else acc
    den = g.n * math.factorial(g.n)
    if not 0 <= numer <= den:
        raise InternalCheckError(f"signed weight sum {_ratio_text(numer, den)} outside [0, 1]")
    return numer


def pr_good(g: Graph, universe: VertexSet) -> Fraction:
    """Probability that every vertex of ``universe`` is good.

    A vertex is good when it is first or some neighbour precedes it.  Equals
    the signed sum of w(I) over independent I contained in ``universe``.
    """
    from fractions import Fraction

    return Fraction(_event_sum(g, 0, universe), g.n * math.factorial(g.n))


def eval_partial(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> Fraction:
    """Partial derivatives in the T variables, evaluated at -1_S.

    Equals Pr(every vertex of T bad and every vertex of S\\T good), with
    T = ``bad_set`` and S = ``good_set`` (see ``_event_sum``).
    """
    from fractions import Fraction

    return Fraction(_event_sum(g, bad_set, good_set), g.n * math.factorial(g.n))


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
        "probability": _ratio_text(_event_sum(g, bad, good), g.n * math.factorial(g.n)),
    }
