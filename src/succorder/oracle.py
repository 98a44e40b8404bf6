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

The CLI's ``verify`` handler, which compares the engine with this walk,
lives here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import VerificationError
from .graph import Graph, VertexSet, vertices_of
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
    n! < 2^w, so the w-bit fields never carry into each other.  P also
    carries its open neighbourhood N(P): a free vertex in N(P) steps in
    good, any other bad, so each prefix splits its free vertices once into
    a good-step and a bad-step mask, with the steps that break the event
    already left out.  A prefix whose N(P) holds a free required-bad vertex
    is dropped: that vertex can only step in good, so no chain through P
    meets the event.  Only the prefixes of two sizes are held at a time,
    as {prefix mask: [N(P), counts]}.
    """
    n, full = g.n, g.full_mask
    w = math.factorial(n).bit_length()
    row = {1 << v: adj for v, adj in enumerate(g.adj)}
    # the first vertex is never bad
    layer = {bit: [adj, 1] for bit, adj in row.items() if not bit & bad_req}
    for _ in range(n - 1):
        below, layer = layer, {}
        for prefix, (nbhd, counts) in below.items():
            free = full & ~prefix
            if free & nbhd & bad_req:
                continue  # a required-bad vertex already has an earlier neighbour
            good, bad = free & nbhd & ~bad_req, free & ~nbhd & ~good_req
            for steps, step_counts in ((good, counts), (bad, counts << w)):
                while steps:
                    bit = steps & -steps
                    steps ^= bit
                    key = prefix | bit
                    entry = layer.get(key)
                    if entry is None:
                        layer[key] = [nbhd | row[bit], step_counts]
                    else:
                        entry[1] += step_counts
    counts = layer[full][1] if full in layer else 0
    return [(counts >> k * w) & ((1 << w) - 1) for k in range(n + 1)]


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


def _cmd_verify(opts: dict, g: Graph) -> dict:
    """The CLI's ``verify`` command (see ``cli._COMMANDS``)."""
    import random

    from .counting import eval_partial, pr_good, sigma
    from .polynomial import bad_distribution, build_polynomial

    limit = ORACLE_MAX_N if opts["max_n"] is None else min(opts["max_n"], ORACLE_MAX_N)
    if g.n > limit:
        raise ValueError(f"verify is limited to n <= {limit}, got n = {g.n}")

    engine_sigma = sigma(g).sigma
    oracle_sigma = brute_sigma(g)
    if engine_sigma != oracle_sigma:
        raise VerificationError(f"sigma: engine {engine_sigma} != oracle {oracle_sigma}")

    engine_dist = bad_distribution(build_polynomial(g)).counts
    oracle_dist = brute_distribution(g).counts
    if engine_dist != oracle_dist:
        raise VerificationError(
            f"distribution: engine {engine_dist} != oracle {oracle_dist}"
        )

    rng = random.Random(opts["seed"])
    samples = 0
    for _ in range(8):
        universe = rng.getrandbits(g.n)
        engine_p = pr_good(g, universe)
        oracle_p = brute_event(g, 0, universe)
        if engine_p != oracle_p:
            raise VerificationError(
                f"Pr(G_U) for U={vertices_of(universe)}: engine {engine_p} != oracle {oracle_p}"
            )
        samples += 1
    for _ in range(8):
        bad = rng.getrandbits(g.n)
        good = rng.getrandbits(g.n) & ~bad
        engine_p = eval_partial(g, bad, good)
        oracle_p = brute_event(g, bad, good)
        if engine_p != oracle_p:
            raise VerificationError(
                f"Pr(B_T ∩ G_S) for T={vertices_of(bad)}, S={vertices_of(good)}: "
                f"engine {engine_p} != oracle {oracle_p}"
            )
        samples += 1

    return {
        "sigma": str(engine_sigma),
        "checks": {"sigma": "ok", "distribution": "ok", "events": "ok"},
        "events_sampled": samples,
    }
