"""What the ordering polynomial encodes.

``counting`` builds F(x) = n! * P_G(x), where P_G(x) = sum of w(I) x^|I|
collects the weights of independent sets by cardinality, and reads sigma(G)
off it as F(-1).  This module holds what else F encodes: rewritten in powers
of (x + 1), F gives the distribution of orderings by number of bad
vertices; the multivariate refinement (one variable per vertex) at an
indicator point gives Pr(every vertex of S good), by a route apart from
``counting.pr_good``; and P_G decomposes under vertex deletion, while the
paper's Δb recursion for that deletion is the cross-check route
``crosscheck.delta_b``.  The multivariate polynomial is never materialized
monomial by monomial: each evaluation of it reduces to a filtered signed
sum over independent sets.  The CLI handlers of ``poly``,
``distribution`` and ``delete`` live here; only the rational results of
``eval_indicator`` and ``delete_decompose`` import ``fractions``.
"""

from __future__ import annotations

import math

# perfbench traces polynomial.build_polynomial and polynomial.eval_partial;
# eval_partial is imported only to keep that path
from .counting import OrderingPolynomial, _polynomial, _ratio_text, build_polynomial
from .counting import eval_at_minus_one, eval_partial
from .errors import InternalCheckError, require_internal
from .graph import Graph, Record, VertexSet, _parse_vertex_list, vertices_of
from .layers import Layer, iter_layers


class BadDistribution(Record):
    """counts[k] = number of orderings with exactly k bad vertices, k = 0..n."""

    __slots__ = ("counts",)
    counts: tuple[int, ...]


class DeletionReport(Record):
    """Decomposition of P_G against P_{G-S} for a removed vertex set S.

    The identity P_G(x) = P_{G-S}(x) - R_S(x) + U_S(x) holds coefficientwise:
    U_S collects the sets that meet S (weighted in G), R_S the reweighting of
    the sets that survive.  Of ``delete_decompose``'s checks, (a), (e) and
    (g) vouch for ``p_g``; (f), (g), (i) and (j) for ``p_gprime``; (e) for
    ``u_s`` and ``r_s``.  ``crosscheck.delta_b`` reaches ``p_gprime`` by
    the paper's Δb recursion instead.
    """

    __slots__ = ("removed", "p_g", "p_gprime", "r_s", "u_s")
    removed: VertexSet
    p_g: OrderingPolynomial
    p_gprime: OrderingPolynomial
    r_s: tuple[Fraction, ...]
    u_s: tuple[Fraction, ...]


def bad_distribution(poly: OrderingPolynomial) -> BadDistribution:
    """Distribution of orderings by bad-vertex count, k = 0..n.

    Uses the binomial transform A_k = sum_{j>=k} (-1)^(j-k) C(j,k) c_j,
    which is the coefficient of (x+1)^k in F; the pipeline stays in
    integers throughout.  Nonnegativity and the total n! are asserted.
    """
    c = poly.f_coeffs
    n = poly.n
    counts = []
    for k in range(n + 1):
        acc = 0
        for j in range(k, len(c)):
            term = math.comb(j, k) * c[j]
            acc += -term if (j - k) & 1 else term
        require_internal(acc >= 0, f"ordering count for {k} bad vertices is negative: {acc}")
        counts.append(acc)
    require_internal(
        sum(counts) == math.factorial(n),
        "bad-vertex distribution does not sum to n!",
    )
    return BadDistribution(tuple(counts))


def eval_indicator(g: Graph, good_set: VertexSet) -> Fraction:
    """Multivariate polynomial at x_v = -1 for v in S, 0 elsewhere.

    Only independent sets inside S survive the substitution, each with sign
    (-1)^|I|, so the value is Pr(every vertex of S is good).  Computed by
    filtering the full-graph b-table, deliberately a different route from
    ``pr_good``'s restricted enumeration.
    """
    from fractions import Fraction

    from .crosscheck import compute_b_table, weight

    if good_set & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    table = compute_b_table(g)
    total = Fraction(0)
    for mask, _ in table.items():
        if not mask & ~good_set:
            total += (-1) ** mask.bit_count() * weight(g, mask, table)
    return total


def delete_decompose(g: Graph, removed: VertexSet) -> DeletionReport:
    """Decompose P_G against G' = G - S, the graph with ``removed`` = S deleted.

    Two passes, one after the other, so only one pass's layers are ever
    resident.  G's pass sums, per degree, a_G(I) B_G(I) with B = n! b over
    the sets that meet S (U_S) and over the survivors, the sets I with
    I ∩ S = ∅, and keeps the survivors' count and mask sum.  G' keeps G's n
    vertices and labels with every edge at S dropped, and its pass runs over
    V minus S, a universe no edge leaves: it yields the sets of G - S in G's
    labels and order, with counts n! b_{G'}(I) in the units of G's.  A set's
    closed neighbourhood there lies inside V minus S, so its layer weight,
    less |S| times its sum of counts, is the sum of a_{G'}(I) B_{G'}(I),
    which gives P_{G'} and, against the survivors' G-side sum, R_S.

    Checks on every call, each raising InternalCheckError that names the
    degree, the layer or the set:
      (a) G's pass runs its own checks (see ``iter_layers``);
      (e) the identity P_G = P_{G'} - R_S + U_S at every degree, which with
          R_S and U_S summed set by set reduces to G's layer weight W_k
          against the sum of G's per-set terms a_G(I) B_G(I);
      (f) G''s weight at every degree divides exactly by n!/n'!;
      (g) ``_polynomial``'s checks on P_G and P_{G'};
      (i) G''s pass runs its own checks, exactness and, on its sealed
          universe, completeness;
      (j) G''s layer k has as many sets as G has survivors of size k, with
          the same mask sum, and G' has no layer more or fewer.
    The paper's triangular recursion on Δb = b_{G-S} - b_G, and its checks
    (b), (c), (d), (h) and (k), run in ``crosscheck.delta_b``.
    """
    from fractions import Fraction

    full = g.full_mask
    if removed & ~full:
        raise ValueError("removal set mentions vertices outside the graph")
    if removed == full:
        raise ValueError("cannot remove every vertex; the remainder must be nonempty")
    n = g.n
    removed_size = removed.bit_count()
    sub_n = n - removed_size
    nfact = math.factorial(n)
    ratio = nfact // math.factorial(sub_n)
    # each pass goes through ``map`` so that it lets go of a layer before the
    # next is built; per degree, G's pass keeps its layer weight, U_S and the
    # survivors' sum of a_G B_G, count and mask sum
    def g_terms(layer: Layer) -> tuple:
        meets = old_w = count = mask_sum = 0
        for mask, nbhd, num in zip(layer.sets, layer.nbhds, layer.counts):
            term = (n - nbhd.bit_count()) * num
            if mask & removed:
                meets += term
            else:
                old_w += term
                count += 1
                mask_sum += mask
        require_internal(layer.weight == old_w + meets, f"deletion identity fails at degree {layer.k}")
        return layer.weight, meets, old_w, count, mask_sum

    g_sums, u_s, kept = [], [], []
    for weight, meets, old_w, count, mask_sum in map(g_terms, iter_layers(g)):
        g_sums.append(weight)
        u_s.append(Fraction(meets, n * nfact))
        if count:
            kept.append((old_w, count, mask_sum))

    def g_prime_terms(layer: Layer) -> tuple:
        k = layer.k
        old_w, count, mask_sum = kept[k] if k < len(kept) else (0, 0, 0)
        if (len(layer), sum(layer.sets)) != (count, mask_sum):
            raise InternalCheckError(f"G' layer {k} differs from G's survivors of size {k}")
        acc = layer.weight - removed_size * sum(layer.counts)
        sub_sum, rem = divmod(acc, ratio)
        require_internal(rem == 0, f"G' weight at degree {k} is not a multiple of n!/n'!")
        # R_S at degree k, in units of 1 / (n n' n!)
        return sub_sum, Fraction(n * acc - sub_n * old_w, n * sub_n * nfact)

    remaining = full & ~removed
    sub = Graph(n, tuple(row & remaining if remaining >> v & 1 else 0 for v, row in enumerate(g.adj)))
    sub_sums, r_s = [], []
    for sub_sum, r in map(g_prime_terms, iter_layers(sub, remaining)):
        sub_sums.append(sub_sum)
        r_s.append(r)
    k = len(sub_sums)
    require_internal(k == len(kept), f"G' layer {k} differs from G's survivors of size {k}")
    return DeletionReport(
        removed=removed,
        p_g=_polynomial(n, g_sums),
        p_gprime=_polynomial(sub_n, sub_sums),
        r_s=tuple(r_s),
        u_s=tuple(u_s),
    )


def _cmd_poly(opts: dict, g: Graph) -> dict:
    """The CLI's ``poly`` and ``distribution`` commands (see ``cli._COMMANDS``)."""
    poly = build_polynomial(g)
    dist = bad_distribution(poly)
    nfact = math.factorial(g.n)
    return {
        "p_coeffs": [_ratio_text(c, nfact) for c in poly.f_coeffs],
        "f_coeffs": [str(c) for c in poly.f_coeffs],
        "A": [str(c) for c in dist.counts],
        "sigma": str(eval_at_minus_one(poly).sigma),
    }


def _cmd_delete(opts: dict, g: Graph) -> dict:
    """The CLI's ``delete`` command (see ``cli._COMMANDS``)."""
    removed = _parse_vertex_list(g, opts["set"])
    report = delete_decompose(g, removed)
    nfact, sub_nfact = math.factorial(g.n), math.factorial(report.p_gprime.n)
    return {
        "set": vertices_of(removed),
        "p_g": [_ratio_text(c, nfact) for c in report.p_g.f_coeffs],
        "p_gprime": [_ratio_text(c, sub_nfact) for c in report.p_gprime.f_coeffs],
        "r_s": [str(c) for c in report.r_s],
        "u_s": [str(c) for c in report.u_s],
    }
