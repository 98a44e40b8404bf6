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
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .counting import (
    SigmaResult,
    _alternating_total,
    _layer_weights,
    compute_b_table,
    weight,
)
from .errors import InternalCheckError, require_internal
from .graph import Graph, Record, VertexSet, open_neighborhood
from .layers import iter_layers


class OrderingPolynomial(Record):
    """Coefficients of P_G(x) and of its integer companion F(x) = n! P_G(x).

    ``p_coeffs[j]`` is the total weight of independent sets of size j;
    ``f_coeffs[j] = n! * p_coeffs[j]`` counts pairs (ordering, independent
    j-subset of its bad vertices), hence is a nonnegative integer.
    Trailing zero coefficients are trimmed.
    """

    __slots__ = ("n", "p_coeffs", "f_coeffs")
    n: int
    p_coeffs: tuple[Fraction, ...]
    f_coeffs: tuple[int, ...]

    def f_at(self, x: int) -> int:
        """Evaluate F at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.f_coeffs):
            acc = acc * x + c
        return acc


class BadDistribution(Record):
    """counts[k] = number of orderings with exactly k bad vertices, k = 0..n."""

    __slots__ = ("counts",)
    counts: tuple[int, ...]


class DeletionReport(Record):
    """Decomposition of P_G against P_{G-S} for a removed vertex set S.

    The identity P_G(x) = P_{G-S}(x) - R_S(x) + U_S(x) is verified
    coefficientwise before the report is returned: U_S collects sets that
    meet S (weighted in G), R_S the reweighting of sets that survive.
    ``delta_b`` maps every independent set of G-S (in the original vertex
    labels) to b_{G-S}(I) - b_G(I), the direct difference of the two
    b-recursions; the triangular recursion it must satisfy is checked set by
    set, in integers scaled by n!, before the report is returned.  It is a
    read-only mapping over those integers, layer by layer and mask-ascending,
    that builds each exact Fraction when it is read.  ``repr`` leaves
    ``delta_b`` out.
    """

    __slots__ = ("removed", "p_g", "p_gprime", "r_s", "u_s", "delta_b")
    _hidden = ("delta_b",)
    removed: VertexSet
    p_g: OrderingPolynomial
    p_gprime: OrderingPolynomial
    r_s: tuple[Fraction, ...]
    u_s: tuple[Fraction, ...]
    delta_b: Mapping[VertexSet, Fraction]


class _ScaledFractions(Mapping):
    """Read-only mapping of keys to integers over one common denominator.

    Each value is built as an exact Fraction when it is read; the integers
    are held as given, in their insertion order.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, numerators: dict[VertexSet, int], denominator: int) -> None:
        self._numerators = numerators
        self._denominator = denominator

    def __getitem__(self, members: VertexSet) -> Fraction:
        return Fraction(self._numerators[members], self._denominator)

    def __contains__(self, members: object) -> bool:
        return members in self._numerators

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self._numerators)

    def __len__(self) -> int:
        return len(self._numerators)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return type(self), (self._numerators, self._denominator)


def build_polynomial(g: Graph) -> OrderingPolynomial:
    """Assemble P_G and F from the layered weight sums."""
    return _polynomial(g.n, _layer_weights(g))


def _polynomial(n: int, layer_sums: list[int]) -> OrderingPolynomial:
    """P_G and F from the per-layer sums W_k of a(I) * n! * b(I).

    F's coefficient at degree k is W_k / n; its integrality and
    nonnegativity are asserted, and a failure would signal an arithmetic bug.
    """
    nfact = math.factorial(n)
    f: list[int] = []
    for k, layer_sum in enumerate(layer_sums):
        c, rem = divmod(layer_sum, n)
        require_internal(rem == 0, f"F coefficient at degree {k} is not integral")
        require_internal(c >= 0, f"F coefficient at degree {k} is negative")
        f.append(c)
    require_internal(f[0] == nfact, "constant coefficient of P_G must be 1")
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return OrderingPolynomial(n, tuple(Fraction(c, nfact) for c in f), tuple(f))


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


def delete_decompose(g: Graph, removed: VertexSet) -> DeletionReport:
    """Decompose P_G against G' = G - S, the graph with ``removed`` = S deleted.

    The passes over G and G' run in lockstep, one layer of each resident.
    G' keeps G's n vertices and labels with every edge at S dropped, and its
    pass runs over V minus S, a universe no edge leaves, so it yields the
    sets of G - S in G's labels and counts n! b_{G'}(I) in the same n! units
    as G's n! b_G(I).  Its layer k is G's layer k less the sets meeting S,
    in order: one loop walks G's layer and draws each survivor's partner
    from the layer of G' in turn.  Δb is kept as the integers n! Δb_I, in
    one table that serves the recursion and backs the report's ``delta_b``.
    Only P_{G'}'s weight at each degree is rescaled, divided exactly by
    n!/n'!.
    Verifies:
      * the two enumerations agree set by set: each layer of G' has as many
        sets as G's has outside S, each equal to its partner, and G' has no
        layer left over;
      * a_{G'}(I) = a_G(I) - (|S| - |N_G[I] ∩ S|) for every independent I
        of G';
      * for every independent I of G', the triangular recursion
        |N_{G'}[I]| Δb_I = sum_v Δb_{I\\v} + |N_G[I] ∩ S| b_G(I)
        on Δb_I = b_{G'}(I) - b_G(I), with Δb_∅ = 0, checked exactly in
        integers scaled by n! on the direct difference of the two passes'
        counts, n! b_{G'}(I) - n! b_G(I);
      * the coefficient identity P_G = P_{G'} - R_S + U_S at every degree G'
        reaches.  Its two sides share no sum: P_G is G's layer weight as the
        pass accumulated it, while U_S and R_S are summed here set by set,
        U_S over the sets meeting S and R_S over the survivors as the
        reweighting
        w_{G'}(I) - w_G(I) = a_{G'}(I)/n' (b_G(I) + Δb_I) - a_G(I)/n b_G(I),
        with a_{G'}(I) taken from the outside-count relation above.  A term
        the pass lost from, or doubled in, G's layer weight fails it; a wrong
        b or neighbourhood of a single survivor is caught first, by the Δb
        recursion or the outside-count check of that set.
    Any violation raises InternalCheckError naming the degree or the set.
    """
    full = g.full_mask
    if removed & ~full:
        raise ValueError("removal set mentions vertices outside the graph")
    if removed == full:
        raise ValueError("cannot remove every vertex; the remainder must be nonempty")
    n = g.n
    remaining = full & ~removed
    sub = Graph(n, tuple(row & remaining if remaining >> v & 1 else 0 for v, row in enumerate(g.adj)))
    removed_size = removed.bit_count()
    sub_n = n - removed_size
    nfact = math.factorial(n)
    ratio = nfact // math.factorial(sub_n)

    # delta[I] = n! Δb_I, one entry per survivor, in G' pass order
    g_sums: list[int] = []
    sub_sums: list[int] = []
    r_s: list[Fraction] = []
    u_s: list[Fraction] = []
    delta: dict[VertexSet, int] = {}
    sub_pass = iter_layers(sub, remaining)
    for k, layer in enumerate(iter_layers(g)):
        sets = layer.sets
        kept = len(sets) - sum(map(bool, map(removed.__and__, sets)))
        sub_layer = next(sub_pass, None)
        sub_kept = len(sub_layer or ())
        require_internal(kept == sub_kept, f"layer {k}: G' has {sub_kept} sets, G {kept} outside S")
        partners = iter(())
        if sub_layer is not None:
            partners = zip(sub_layer.sets, sub_layer.nbhds, sub_layer.counts)
        # acc sums a_{G'} n! b_{G'}; meets sums a_G n! b_G over the sets
        # meeting S; new_w and old_w sum the survivors' a_{G'} n! (b_G + Δb)
        # and a_G n! b_G
        acc = meets = new_w = old_w = 0
        for mask, nbhd, num_g in zip(sets, layer.nbhds, layer.counts):
            term = (n - nbhd.bit_count()) * num_g
            if mask & removed:
                meets += term
                continue
            sub_mask, sub_nbhd, num = next(partners)
            if sub_mask != mask:
                raise InternalCheckError(f"set {sub_mask:#x} of G' is not G's survivor {mask:#x}")
            nbhd_size = sub_nbhd.bit_count()
            acc += (sub_n - nbhd_size) * num
            overlap = (nbhd & removed).bit_count()
            a_sub = n - nbhd.bit_count() - (removed_size - overlap)
            if sub_n - nbhd_size != a_sub:
                raise InternalCheckError(f"outside-count mismatch after deletion for set {mask:#x}")
            d = delta[mask] = num - num_g
            child_sum, rest = 0, mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                child_sum += delta[mask ^ bit]
            if nbhd_size * d != child_sum + overlap * num_g if mask else d != 0:
                raise InternalCheckError(f"delta-b recursion fails for set {mask:#x}")
            new_w += a_sub * (num_g + d)
            old_w += term
        total = layer.weight
        g_sums.append(total)
        u_s.append(Fraction(meets, n * nfact))
        if sub_layer is None:
            continue
        sub_sum, rem = divmod(acc, ratio)
        require_internal(rem == 0, f"G' weight at degree {k} is not a multiple of n!/n'!")
        sub_sums.append(sub_sum)
        # degree k in units of 1 / (n n' n!)
        reweight = n * new_w - sub_n * old_w
        if sub_n * total != n * acc - reweight + sub_n * meets:
            raise InternalCheckError(f"deletion identity fails at degree {k}")
        r_s.append(Fraction(reweight, n * sub_n * nfact))
    require_internal(next(sub_pass, None) is None, "G' has more layers than G")

    return DeletionReport(
        removed=removed,
        p_g=_polynomial(n, g_sums),
        p_gprime=_polynomial(sub_n, sub_sums),
        r_s=tuple(r_s),
        u_s=tuple(u_s),
        delta_b=_ScaledFractions(delta, nfact),
    )
