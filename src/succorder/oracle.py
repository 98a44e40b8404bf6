"""Exact ground truth from the prefixes of each ordering.

An ordering of the vertices is a chain of prefixes ∅ = P_0 ⊂ P_1 ⊂ … ⊂
P_n = V, each one vertex larger than the one before.  The vertex v that
extends P to P ∪ {v} is bad (not first, yet before all of its neighbours)
exactly when P ≠ ∅ and N(v) ∩ P = ∅.  That depends on the set P, not on
the order inside it.  So instead of scanning the n! orderings, the oracle
walks the 2^n prefixes by size and keeps, for each one, how many ways of
reaching it have k bad vertices so far.  Summed over all chains, the
counts at P = V are the bad-vertex histogram of all n! orderings: σ is its
k = 0 entry, and an event ("these vertices bad, those good") is the same
walk with the steps that break it left out.

The walk takes O(n·2^n) steps and shares nothing with the engine: no
independent sets and no b-recursion.  Counts are plain integers, so every
result is exact.  ``bad_vertices`` classifies a single ordering straight
from the definition; the tests scan all n! orderings with it to check
this walk.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .graph import Graph, VertexSet, iter_vertices
from .polynomial import BadDistribution

#: Largest vertex count the oracle accepts.
ORACLE_MAX_N = 10


def bad_vertices(g: Graph, ordering: Sequence[int]) -> VertexSet:
    """Bad-vertex mask of a single ordering.

    A vertex is bad when it is not first and none of its neighbours
    appears earlier.
    """
    if sorted(ordering) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of all vertices")
    seen = 0
    bad = 0
    for position, v in enumerate(ordering):
        if position and not g.adj[v] & seen:
            bad |= 1 << v
        seen |= 1 << v
    return bad


def _guard(g: Graph) -> None:
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {ORACLE_MAX_N}, got n = {g.n}")


def _prefix_counts(g: Graph, bad_req: VertexSet, good_req: VertexSet) -> list[int]:
    """counts[k]: orderings with k bad vertices in which bad_req is all bad and good_req all good.

    Each prefix P carries its counts as the polynomial sum_k counts[k]·y^k
    evaluated at y = 2^w, one integer, so a bad step is a multiplication by
    y and merging two chains is an addition.  No count at P exceeds |P|! ≤
    n! < 2^w, so the w-bit fields never carry into each other.  Only the
    prefixes of two sizes are held at a time, as {prefix mask: counts}.
    """
    w = math.factorial(g.n).bit_length()
    layer = {0: 1}
    for _ in range(g.n):
        below, layer = layer, {}
        for prefix, counts in below.items():
            for v in iter_vertices(g.full_mask & ~prefix):
                bad = prefix != 0 and not g.adj[v] & prefix
                if (good_req if bad else bad_req) >> v & 1:
                    continue
                key = prefix | 1 << v
                layer[key] = layer.get(key, 0) + (counts << w if bad else counts)
    counts = layer.get(g.full_mask, 0)
    return [(counts >> k * w) & ((1 << w) - 1) for k in range(g.n + 1)]


def brute_sigma(g: Graph) -> int:
    """Number of orderings whose bad-vertex set is empty."""
    _guard(g)
    return _prefix_counts(g, 0, g.full_mask)[0]


def brute_distribution(g: Graph) -> BadDistribution:
    """Histogram of orderings by bad-vertex count, k = 0..n."""
    _guard(g)
    return BadDistribution(tuple(_prefix_counts(g, 0, 0)))


def brute_event(g: Graph, bad_req: VertexSet, good_req: VertexSet) -> Fraction:
    """Probability that all of bad_req are bad and none of good_req is.

    Covers every event the engine computes: Pr(B_I) with good_req empty,
    Pr(G_U) with bad_req empty, and the mixed Pr(B_T ∩ G_S).
    """
    _guard(g)
    full = g.full_mask
    if (bad_req | good_req) & ~full:
        raise ValueError("requirement set mentions vertices outside the graph")
    if bad_req & good_req:
        raise ValueError("bad and good requirement sets overlap")
    return Fraction(sum(_prefix_counts(g, bad_req, good_req)), math.factorial(g.n))
