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

    The identity P_G(x) = P_{G-S}(x) - R_S(x) + U_S(x) holds coefficientwise:
    U_S collects the sets that meet S (weighted in G), R_S the reweighting of
    the sets that survive.  ``delta_b`` maps every independent set of G-S (in
    the original vertex labels) to Δb_I = b_{G-S}(I) - b_G(I), layer by layer
    and mask-ascending, as a read-only mapping of exact Fractions.  The
    deletion computes each Δb_I from the triangular recursion and keeps it
    for two layers only, so the mapping is filled when first read, by
    rerunning that pass.  Of ``delete_decompose``'s checks, (a), (e) and (g)
    vouch for ``p_g``; (c), (d), (f) and (g) for ``p_gprime``; (e) for
    ``u_s`` and ``r_s``; (b) and (h) for ``delta_b``, on every pass that
    fills it.  ``repr`` leaves ``delta_b`` out.
    """

    __slots__ = ("removed", "p_g", "p_gprime", "r_s", "u_s", "delta_b")
    _hidden = ("delta_b",)
    removed: VertexSet
    p_g: OrderingPolynomial
    p_gprime: OrderingPolynomial
    r_s: tuple[Fraction, ...]
    u_s: tuple[Fraction, ...]
    delta_b: Mapping[VertexSet, Fraction]


class _DeltaB(Mapping):
    """Read-only mapping of G's survivors to Δb, filled on first read."""

    __slots__ = ("_g", "_removed", "_table")

    def __init__(self, g: Graph, removed: VertexSet) -> None:
        self._g, self._removed, self._table = g, removed, None

    def _filled(self) -> dict[VertexSet, Fraction]:
        if self._table is None:
            nfact = math.factorial(self._g.n)
            self._table = {
                mask: Fraction(delta, nfact)
                for *_, survivors in _deletion_layers(self._g, self._removed)
                for mask, (_, delta) in survivors.items()
            }
        return self._table

    def __getitem__(self, members: VertexSet) -> Fraction:
        return self._filled()[members]

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self._filled())

    def __len__(self) -> int:
        return len(self._filled())

    def __repr__(self) -> str:
        return repr(self._filled())

    def __reduce__(self):
        return type(self), (self._g, self._removed)


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

    One pass over G.  Its survivors, the sets I with I ∩ S = ∅, are the
    independent sets of G', in G's labels and order, and G''s counts come
    from the paper's triangular recursion on Δ_I = n! Δb_I,
    |N_{G'}[I]| Δ_I = sum over v in I of Δ_{I\\v} + |N_G[I] ∩ S| B_G(I),
    with Δ_∅ = 0, so that B_{G'}(I) = n! b_{G'}(I) = B_G(I) + Δ_I.
    N_{G'}[I] is built as the pass builds N_G[I], from the parent's and the
    top vertex's closed row in G', which is G's row with S masked off.  Only
    two layers of (N_{G'}, Δ) stay resident.  Checks, each raising
    InternalCheckError that names the layer or the set:
      (a) G's pass runs its own checks (see ``iter_layers``);
      (b) every division of the Δ recursion is exact;
      (c) for every survivor I, a_{G'}(I) = n' - |N_{G'}[I]| equals
          a_G(I) - (|S| - |N_G[I] ∩ S|), two independently built
          neighbourhoods against each other;
      (d) G''s own recursion and completeness: for each layer k,
          the sum of |N_{G'}[J]| B_{G'}(J) over its layer k + 1 equals
          the sum of a_{G'}(I) B_{G'}(I) over its layer k;
      (e) the identity P_G = P_{G'} - R_S + U_S at every degree, which with
          R_S and U_S summed set by set reduces to G's layer weight W_k
          against the sum of G's per-set terms a_G(I) B_G(I);
      (f) G''s weight at every degree divides exactly by n!/n'!;
      (g) ``_polynomial``'s checks on P_G and P_{G'};
      (h) a survivor with a subset missing from the layer below.
    """
    full = g.full_mask
    if removed & ~full:
        raise ValueError("removal set mentions vertices outside the graph")
    if removed == full:
        raise ValueError("cannot remove every vertex; the remainder must be nonempty")
    n = g.n
    sub_n = n - removed.bit_count()
    nfact = math.factorial(n)
    ratio = nfact // math.factorial(sub_n)
    g_sums, sub_sums, r_s, u_s = [], [], [], []
    for k, (total, meets, old_w, acc, survivors) in enumerate(_deletion_layers(g, removed)):
        g_sums.append(total)
        u_s.append(Fraction(meets, n * nfact))
        if survivors:
            sub_sum, rem = divmod(acc, ratio)
            require_internal(rem == 0, f"G' weight at degree {k} is not a multiple of n!/n'!")
            sub_sums.append(sub_sum)
            # R_S at degree k, in units of 1 / (n n' n!)
            r_s.append(Fraction(n * acc - sub_n * old_w, n * sub_n * nfact))
    return DeletionReport(
        removed=removed,
        p_g=_polynomial(n, g_sums),
        p_gprime=_polynomial(sub_n, sub_sums),
        r_s=tuple(r_s),
        u_s=tuple(u_s),
        delta_b=_DeltaB(g, removed),
    )


def _deletion_layers(g: Graph, removed: VertexSet) -> Iterator[tuple]:
    """Per layer k of G: its weight W_k, the sums of a_G(I) B_G(I) over the
    sets meeting S and over the survivors, the survivors' a_{G'}(I) B_{G'}(I)
    sum, and the survivors mapped to (N_{G'}[I], Δ_I); checks (b)-(e) and (h)
    of ``delete_decompose`` run here."""
    n = g.n
    removed_size = removed.bit_count()
    sub_n = n - removed_size
    sub_closed = [(row | 1 << v) & ~removed for v, row in enumerate(g.adj)]
    survivors: dict[VertexSet, tuple[VertexSet, int]] = {}
    acc = 0
    for layer in iter_layers(g):
        k, prev, parent_acc, survivors = layer.k, survivors, acc, {}
        # meets and old_w sum a_G B_G over the sets meeting S and over the
        # survivors, acc and child sum a_{G'} B_{G'} and |N_{G'}| B_{G'}
        meets = old_w = acc = child = 0
        try:
            for mask, nbhd, num_g in zip(layer.sets, layer.nbhds, layer.counts):
                outside = n - nbhd.bit_count()
                if mask & removed:
                    meets += outside * num_g
                    continue
                old_w += outside * num_g
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
                if sub_n - size != outside - removed_size + overlap:
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
        require_internal(layer.weight == old_w + meets, f"deletion identity fails at degree {k}")
        if child != parent_acc:
            raise InternalCheckError(f"G' child sums at layer {k} differ from layer {k - 1}'s weight")
        yield layer.weight, meets, old_w, acc, survivors
    require_internal(not acc, f"G' child sums at layer {k + 1} differ from layer {k}'s weight")
