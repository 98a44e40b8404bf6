"""The successive ordering polynomial and what it encodes.

P_G(x) collects the weights w(I) of independent sets by cardinality:
P_G(x) = sum w(I) x^|I|.  Its integer companion F(x) = n! * P_G(x) carries
the combinatorics: F(-1) = sigma(G), and rewriting F in powers of (x + 1)
yields the full distribution of orderings by number of bad vertices.  The
module also evaluates the multivariate refinement (one variable per
vertex) at indicator points, and decomposes P_G under vertex deletion.

The multivariate polynomial is never materialized monomial by monomial;
every evaluation of it that matters here reduces to a filtered signed sum
over independent sets, and that is what is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import (
    SigmaResult,
    _alternating_total,
    _layer_weights,
    _scale_base,
    _scaled_layers,
    compute_b_table,
    weight,
)
from .errors import InternalCheckError, require_internal
from .graph import (
    Graph,
    VertexSet,
    induced_subgraph,
    is_independent,
    iter_vertices,
)


@dataclass(frozen=True)
class OrderingPolynomial:
    """Coefficients of P_G(x) and of its integer companion F(x) = n! P_G(x).

    ``p_coeffs[j]`` is the total weight of independent sets of size j;
    ``f_coeffs[j] = n! * p_coeffs[j]`` counts pairs (ordering, independent
    j-subset of its bad vertices), hence is a nonnegative integer.
    Trailing zero coefficients are trimmed.
    """

    n: int
    p_coeffs: tuple[Fraction, ...]
    f_coeffs: tuple[int, ...]

    def f_at(self, x: int) -> int:
        """Evaluate F at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.f_coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class BadDistribution:
    """counts[k] = number of orderings with exactly k bad vertices, k = 0..n."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class DeletionReport:
    """Decomposition of P_G against P_{G-S} for a removed vertex set S.

    The identity P_G(x) = P_{G-S}(x) - R_S(x) + U_S(x) is verified
    coefficientwise before the report is returned: U_S collects sets that
    meet S (weighted in G), R_S the reweighting of sets that survive.
    ``delta_b`` maps every independent set of G-S (in the original vertex
    labels) to b_{G-S}(I) - b_G(I), the direct difference of the two
    b-recursions; the triangular recursion it must satisfy is checked set by
    set, in scaled integers, before the report is returned.
    """

    removed: VertexSet
    p_g: OrderingPolynomial
    p_gprime: OrderingPolynomial
    r_s: tuple[Fraction, ...]
    u_s: tuple[Fraction, ...]
    delta_b: dict[VertexSet, Fraction] = field(repr=False)


def build_polynomial(g: Graph) -> OrderingPolynomial:
    """Assemble P_G and F from the layered weight sums."""
    return _polynomial(g.n, _layer_weights(g))


def _polynomial(n: int, layer_sums: list[int]) -> OrderingPolynomial:
    """P_G and F from the per-layer sums of a(I) * b(I) * lcm(1..n)**k.

    Integrality and nonnegativity of every F coefficient are asserted; a
    failure would signal an arithmetic bug.
    """
    scale = _scale_base(n)
    nfact = math.factorial(n)
    p: list[Fraction] = []
    f: list[int] = []
    for k, layer_sum in enumerate(layer_sums):
        p.append(Fraction(layer_sum, n * scale**k))
        c, rem = divmod(nfact * layer_sum, n * scale**k)
        require_internal(rem == 0, f"F coefficient at degree {k} is not integral")
        require_internal(c >= 0, f"F coefficient at degree {k} is negative")
        f.append(c)
    require_internal(p[0] == 1, "constant coefficient of P_G must be 1")
    while len(f) > 1 and f[-1] == 0:
        f.pop()
        p.pop()
    return OrderingPolynomial(n, tuple(p), tuple(f))


def eval_at_minus_one(poly: OrderingPolynomial) -> SigmaResult:
    """sigma(G) = F(-1): the count of orderings with no bad vertex."""
    nfact = math.factorial(poly.n)
    total = poly.f_at(-1)
    require_internal(0 <= total <= nfact, f"F(-1) = {total} outside [0, n!]")
    return SigmaResult(poly.n, total, Fraction(total, nfact))


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
    if good_set & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    table = compute_b_table(g)
    total = Fraction(0)
    for k, layer in enumerate(table.layers):
        sign = -1 if k & 1 else 1
        for mask in layer:
            if mask & ~good_set:
                continue
            total += sign * weight(g, mask, table)
    return total


def eval_partial(g: Graph, bad_set: VertexSet, good_set: VertexSet) -> Fraction:
    """Partial derivatives in the T variables, evaluated at -1_S.

    Equals sum over independent I with T ⊆ I ⊆ S∪T of (-1)^|I\\T| w(I),
    which is Pr(every vertex of T bad and every vertex of S\\T good).  When
    T is not independent there are no independent supersets and the value
    is 0.
    """
    if (bad_set | good_set) & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    if not is_independent(g, bad_set):
        return Fraction(0)
    return _alternating_total(g, bad_set | good_set, required=bad_set)


def _translate(mask: VertexSet, positions: tuple[int, ...]) -> VertexSet:
    """Map a subgraph-label mask back to original labels."""
    out = 0
    for i in iter_vertices(mask):
        out |= 1 << positions[i]
    return out


def delete_decompose(g: Graph, removed: VertexSet) -> DeletionReport:
    """Decompose P_G against G' = G - S, the graph with ``removed`` = S deleted.

    The passes over G and G' run in lockstep, one layer of each resident.
    G' is relabelled monotonically, so its layer k is G's layer k less the
    sets meeting S, in order; the two are paired by position.  Verifies:
      * the two enumerations agree set by set: each layer of G' has as many
        sets as G's has outside S, each translating back to its partner, and
        G' has no layer left over;
      * the coefficient identity P_G = P_{G'} - R_S + U_S;
      * a_{G'}(I) = a_G(I) - (|S| - |N_G[I] ∩ S|) for every independent I
        of G';
      * for every independent I of G', the triangular recursion
        |N_{G'}[I]| Δb_I = sum_v Δb_{I\\v} + |N_G[I] ∩ S| b_G(I)
        on Δb_I = b_{G'}(I) - b_G(I), with Δb_∅ = 0, checked exactly in
        integers scaled by lcm(1..n)**|I| on the direct difference of the passes.
    Any violation raises InternalCheckError naming the degree or the set.
    """
    full = g.full_mask
    if removed & ~full:
        raise ValueError("removal set mentions vertices outside the graph")
    if removed == full:
        raise ValueError("cannot remove every vertex; the remainder must be nonempty")
    sub, old_labels = induced_subgraph(g, full & ~removed)
    n, scale = g.n, _scale_base(g.n)
    sub_n, sub_scale = sub.n, _scale_base(sub.n)
    ratio = scale // sub_scale
    removed_size = removed.bit_count()

    # delta[I] = Δb_I * lcm(1..n)**|I|, an integer as lcm(1..n') divides lcm(1..n)
    g_sums: list[int] = []
    sub_sums: list[int] = []
    r_s: list[Fraction] = []
    u_s: list[Fraction] = []
    delta_b: dict[VertexSet, Fraction] = {}
    delta: dict[VertexSet, int] = {}
    sub_pass = _scaled_layers(sub)
    for k, (layer, cur) in enumerate(_scaled_layers(g)):
        meets = stays = 0
        survivors = []
        for nbhd, (mask, num) in zip(layer.nbhds, cur.items()):
            term = (n - nbhd.bit_count()) * num
            if mask & removed:
                meets += term
            else:
                stays += term
                survivors.append((mask, num, nbhd))
        g_sums.append(meets + stays)
        u_s.append(Fraction(meets, n * scale**k))
        sub_layer, sub_cur = next(sub_pass, (None, {}))
        kept, sub_kept = len(survivors), len(sub_cur)
        require_internal(kept == sub_kept, f"layer {k}: G' has {sub_kept} sets, G {kept} outside S")
        if sub_layer is None:
            continue
        ratio_k, denom = ratio**k, scale**k
        prev, delta = delta, {}
        acc = 0
        pairs = zip(survivors, sub_layer.nbhds, sub_cur.items())
        for (mask, num_g, nbhd), sub_nbhd, (sub_mask, num) in pairs:
            if _translate(sub_mask, old_labels) != mask:
                raise InternalCheckError(f"set {sub_mask:#x} of G' does not translate to {mask:#x}")
            nbhd_size = sub_nbhd.bit_count()
            acc += (sub_n - nbhd_size) * num
            overlap = (nbhd & removed).bit_count()
            if sub_n - nbhd_size != n - nbhd.bit_count() - (removed_size - overlap):
                raise InternalCheckError(f"outside-count mismatch after deletion for set {mask:#x}")
            d = delta[mask] = num * ratio_k - num_g
            child_sum = sum(prev[mask ^ (1 << v)] for v in iter_vertices(mask))
            if nbhd_size * d != scale * child_sum + overlap * num_g if mask else d != 0:
                raise InternalCheckError(f"delta-b recursion fails for set {mask:#x}")
            delta_b[mask] = Fraction(d, denom)
        sub_sums.append(acc)
        r_s.append(Fraction(acc, sub_n * sub_scale**k) - Fraction(stays, n * denom))
    require_internal(next(sub_pass, None) is None, "G' has more layers than G")
    p_g = _polynomial(n, g_sums)
    p_sub = _polynomial(sub_n, sub_sums)

    width = max(len(p_g.p_coeffs), len(p_sub.p_coeffs), len(r_s), len(u_s))

    def coeff(seq, j):
        return seq[j] if j < len(seq) else Fraction(0)

    for j in range(width):
        lhs = coeff(p_g.p_coeffs, j)
        rhs = coeff(p_sub.p_coeffs, j) - coeff(r_s, j) + coeff(u_s, j)
        require_internal(lhs == rhs, f"deletion identity fails at degree {j}: {lhs} != {rhs}")

    return DeletionReport(
        removed=removed, p_g=p_g, p_gprime=p_sub, r_s=tuple(r_s), u_s=tuple(u_s), delta_b=delta_b
    )
