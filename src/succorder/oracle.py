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
walk with the steps that break it left out.  One walk serves any number of
events, each in its own block of the integer a prefix carries; it holds the
size guard and checks every event, so each entry point here is one call of it.

The walk takes O(n·2^n) steps and shares nothing with the engine: no
independent sets and no b-recursion.  Counts are plain integers, so every
result is exact.  ``bad_vertices`` classifies a single ordering straight
from the definition; the tests scan all n! orderings with it to check
this walk.

The CLI's ``verify`` handler, which compares the engine's integers with
this walk's, lives here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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


def _prefix_counts(g: Graph, events: Sequence[tuple[VertexSet, VertexSet]]) -> list[list[int]]:
    """Per event (bad_req, good_req): counts[k], orderings with k bad vertices that meet it.

    A prefix P carries its counts in one integer: for each event the
    polynomial sum_k counts[k]·y^k at y = 2^w, n + 1 fields of w bits, in a
    block that sits e·(n + 1)·w bits up for event e.  A bad step is then a
    multiplication by y and merging two chains an addition.  Nothing carries
    between fields or blocks: no count at P exceeds |P|! ≤ n! < 2^w, and no
    ordering has n bad vertices, so no shift reaches the next block.  P also
    carries N(P): a free vertex in N(P) steps in good, any other bad.  A free
    required-bad vertex in N(P) can only step in good, so the blocks of the
    events requiring it are cleared, and a prefix with no counts left is
    dropped.  Only the prefixes of two sizes are held at a time, as
    {prefix mask: [N(P), counts]}.  A graph past ``ORACLE_MAX_N``, or an event
    naming a foreign vertex or one both bad and good, raises ValueError.
    """
    n, full = g.n, g.full_mask
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {ORACLE_MAX_N}, got n = {n}")
    w = math.factorial(n).bit_length()
    span = (n + 1) * w
    block = (1 << span) - 1
    ones = any_bad = any_good = 0
    always_good = full
    for e, (bad_req, good_req) in enumerate(events):
        if (bad_req | good_req) & ~full:
            raise ValueError("requirement set mentions vertices outside the graph")
        if bad_req & good_req:
            raise ValueError("bad and good requirement sets overlap")
        ones |= 1 << e * span  # a count of 1 in the k = 0 field of event e's block
        any_bad |= bad_req
        any_good |= good_req
        always_good &= good_req
    # bad steps: free for the vertices no event requires good, masked for the
    # vertices only some events do (mixed), left out for the rest
    mixed, plain = any_good & ~always_good, ~any_good
    row = {1 << v: adj for v, adj in enumerate(g.adj)}

    def blocks_without(vertices: VertexSet, side: int) -> dict[VertexSet, int]:
        """By vertex bit: the blocks of the events whose requirement on this side misses it."""
        return {bit: sum(block << e * span for e, req in enumerate(events) if not req[side] & bit)
                for bit in row if bit & vertices}

    keep, allow = blocks_without(any_bad, 0), blocks_without(mixed, 1)
    # the first vertex is never bad
    layer = {bit: [adj, ones & keep.get(bit, ones)] for bit, adj in row.items()}
    for _ in range(n - 1):
        below, layer = layer, {}
        for prefix, (nbhd, counts) in below.items():
            free = full & ~prefix
            doomed = free & nbhd & any_bad
            while doomed:
                bit = doomed & -doomed
                doomed ^= bit
                counts &= keep[bit]  # a required-bad vertex already has an earlier neighbour
            if not counts:
                continue
            bad, shifted = free & ~nbhd, counts << w
            moves = [(free & nbhd, counts), (bad & plain, shifted)]
            bad &= mixed
            while bad:
                bit = bad & -bad
                bad ^= bit
                moves.append((bit, shifted & allow[bit]))
            for steps, step_counts in moves:
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
    fields = [(counts >> i * w) & ((1 << w) - 1) for i in range(len(events) * (n + 1))]
    return [fields[i:i + n + 1] for i in range(0, len(fields), n + 1)]


def brute_sigma(g: Graph) -> int:
    """Number of orderings whose bad-vertex set is empty."""
    return _prefix_counts(g, [(0, g.full_mask)])[0][0]


def brute_distribution(g: Graph) -> BadDistribution:
    """Histogram of orderings by bad-vertex count, k = 0..n."""
    return BadDistribution(tuple(_prefix_counts(g, [(0, 0)])[0]))


def brute_event(g: Graph, bad_req: VertexSet, good_req: VertexSet) -> Fraction:
    """Probability that all of bad_req are bad and none of good_req is.

    Covers every event the engine computes: Pr(B_I) with good_req empty,
    Pr(G_U) with bad_req empty, and the mixed Pr(B_T ∩ G_S).
    """
    from fractions import Fraction

    return Fraction(sum(_prefix_counts(g, [(bad_req, good_req)])[0]), math.factorial(g.n))


def _cmd_verify(opts: dict, g: Graph) -> dict:
    """The CLI's ``verify`` (see ``cli._COMMANDS``): one walk, 17 events, compared as counts."""
    import random

    from .counting import _event_sum, _ratio_text, build_polynomial, eval_at_minus_one
    from .polynomial import bad_distribution

    rng = random.Random(opts["seed"])
    universes = [(0, rng.getrandbits(g.n)) for _ in range(8)]
    pairs = [(bad := rng.getrandbits(g.n), rng.getrandbits(g.n) & ~bad) for _ in range(8)]
    oracle_dist, *histograms = map(tuple, _prefix_counts(g, [(0, 0), *universes, *pairs]))

    # one pass over the whole graph: sigma is F(-1), as counting.sigma reads it
    poly = build_polynomial(g)
    engine_sigma = eval_at_minus_one(poly).sigma
    if engine_sigma != oracle_dist[0]:
        raise VerificationError(f"sigma: engine {engine_sigma} != oracle {oracle_dist[0]}")

    engine_dist = bad_distribution(poly).counts
    if engine_dist != oracle_dist:
        raise VerificationError(f"distribution: engine {engine_dist} != oracle {oracle_dist}")

    nfact = math.factorial(g.n)
    for i, ((bad, good), counts) in enumerate(zip(universes + pairs, histograms)):
        engine, oracle = _event_sum(g, bad, good), sum(counts)
        if engine != oracle:
            # by position: a sampled T can be empty
            event = (f"Pr(G_U) for U={vertices_of(good)}" if i < len(universes)
                     else f"Pr(B_T ∩ G_S) for T={vertices_of(bad)}, S={vertices_of(good)}")
            raise VerificationError(
                f"{event}: engine {_ratio_text(engine, nfact)} != oracle {_ratio_text(oracle, nfact)}"
            )

    return {
        "sigma": str(engine_sigma),
        "checks": {"sigma": "ok", "distribution": "ok", "events": "ok"},
        "events_sampled": len(histograms),
    }
