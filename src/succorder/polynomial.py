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
sum over independent sets.  The deletion runs in integers, on numerators
over n!.  The CLI handlers of ``poly``, ``distribution`` and ``delete``
live here; only ``eval_indicator`` and ``DeletionReport``'s Fraction views
import ``fractions``.
"""

from __future__ import annotations

import math
from itertools import zip_longest

# perfbench traces polynomial.build_polynomial and polynomial.eval_partial;
# eval_partial is imported only to keep that path
from .counting import OrderingPolynomial, _degree_counts, _polynomial, _ratio_text, build_polynomial
from .counting import eval_at_minus_one, eval_partial
from .errors import require_internal
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
    the sets that survive.  Scaled by n! every term is an integer, so the
    record stores n! R_S and n! U_S, signed numerators over n!, one per layer
    of G - S and of G; ``r_s`` and ``u_s`` are their Fraction views.  Of
    ``delete_decompose``'s checks, (a), (e) and (g) vouch for ``p_g``; (f),
    (g), (i) and (j) for ``p_gprime``; (e) and (l) for ``u_s_numer``; and,
    R_S being read off the identity, (e), (f), (g) and (j) for ``r_s_numer``.
    ``crosscheck.delta_b`` reaches ``p_gprime`` by the paper's Δb recursion.
    """

    __slots__ = ("removed", "p_g", "p_gprime", "r_s_numer", "u_s_numer")
    removed: VertexSet
    p_g: OrderingPolynomial
    p_gprime: OrderingPolynomial
    r_s_numer: tuple[int, ...]
    u_s_numer: tuple[int, ...]

    @property
    def r_s(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        nfact = math.factorial(self.p_g.n)
        return tuple(Fraction(c, nfact) for c in self.r_s_numer)

    @property
    def u_s(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        nfact = math.factorial(self.p_g.n)
        return tuple(Fraction(c, nfact) for c in self.u_s_numer)


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
    the sets that meet S, which is n * n! U_S, and keeps the count and mask
    sum of the survivors, the sets I with I ∩ S = ∅.  G' keeps G's n
    vertices and labels with every edge at S dropped, and its pass runs over
    V minus S, a universe no edge leaves: it yields the sets of G - S in G's
    labels and order, with counts n! b_{G'}(I) in the units of G's.  A set's
    closed neighbourhood there lies inside V minus S, so its layer weight,
    less |S| times its sum of counts, is the sum of a_{G'}(I) B_{G'}(I),
    which gives P_{G'}.  R_S is read off the identity, in integers.

    Checks on every call, each raising InternalCheckError that names the
    degree, the layer or the set:
      (a) G's pass runs its own checks (see ``iter_layers``);
      (e) G's layer weight W_k is the sum of its per-set terms a_G(I) B_G(I);
      (l) n! U_S at every degree is an integer, its sum dividing by n;
      (f) G''s weight at every degree divides exactly by n!/n'!;
      (g) ``_degree_counts``'s and ``_polynomial``'s checks on P_G and P_{G'};
      (i) G''s pass runs its own checks, exactness and completeness;
      (j) after G''s pass, one comparison: G''s layer k has as many sets as
          G has survivors of size k, with the same mask sum, at every k.
    The paper's triangular recursion on Δb = b_{G-S} - b_G, and its checks
    (b), (c), (d), (h) and (k), run in ``crosscheck.delta_b``.
    """
    full = g.full_mask
    if removed & ~full:
        raise ValueError("removal set mentions vertices outside the graph")
    if removed == full:
        raise ValueError("cannot remove every vertex; the remainder must be nonempty")
    n = g.n
    removed_size = removed.bit_count()
    sub_n = n - removed_size
    ratio = math.factorial(n) // math.factorial(sub_n)
    # each pass goes through ``map`` so that it lets go of a layer before the
    # next is built; per degree, G's pass keeps its layer weight, n! U_S and
    # the survivors' count and mask sum
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
        u, rem = divmod(meets, n)
        require_internal(rem == 0, f"n! U_S at degree {layer.k} is not an integer")
        return layer.weight, u, (count, mask_sum)

    def g_prime_terms(layer: Layer) -> tuple:
        acc = layer.weight - removed_size * sum(layer.counts)
        sub_sum, rem = divmod(acc, ratio)
        require_internal(rem == 0, f"G' weight at degree {layer.k} is not a multiple of n!/n'!")
        return sub_sum, (len(layer), sum(layer.sets))

    g_sums, u_s, survivors = zip(*map(g_terms, iter_layers(g)))
    remaining = full & ~removed
    sub = Graph(n, tuple(row & remaining if remaining >> v & 1 else 0 for v, row in enumerate(g.adj)))
    sub_sums, sub_layers = zip(*map(g_prime_terms, iter_layers(sub, remaining)))
    kept = (summary for summary in survivors if summary[0])
    for k, (mine, theirs) in enumerate(zip_longest(kept, sub_layers)):
        require_internal(mine == theirs, f"G' layer {k} differs from G's survivors of size {k}")
    f, sub_f = _degree_counts(n, g_sums), _degree_counts(sub_n, sub_sums)
    # n! R_S = n! P_{G'} - n! P_G + n! U_S, with n! P_{G'} = (n!/n'!) F' and n! P_G = F
    r_s = (ratio * sub_c - c + u for sub_c, c, u in zip(sub_f, f, u_s))
    return DeletionReport(removed, _polynomial(n, f), _polynomial(sub_n, sub_f), tuple(r_s), u_s)


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
        "r_s": [_ratio_text(c, nfact) for c in report.r_s_numer],
        "u_s": [_ratio_text(c, nfact) for c in report.u_s_numer],
    }
