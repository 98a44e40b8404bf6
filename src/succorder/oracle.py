"""Brute-force ground truth over all n! vertex orderings.

Everything here scans every ordering of the vertices in lexicographic
order and classifies it by its set of bad vertices (vertices that are not
first yet precede all their neighbours).  The scan is vectorized in
blocks, which keeps the oracle honest — no formula is trusted — while
staying usable at the n = 10 guard (3.6M orderings).  Counts are plain
integers, so every result is exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph import Graph, VertexSet
from .polynomial import BadDistribution

#: Hard guard: n! orderings beyond this are not worth scanning.
ORACLE_MAX_N = 10

_POPCOUNT = np.array([m.bit_count() for m in range(1 << ORACLE_MAX_N)], dtype=np.uint8)


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


def _perm_blocks(n: int) -> Iterator[np.ndarray]:
    """All permutations of range(n) in lexicographic order, one block per first vertex."""
    if n == 1:
        yield np.zeros((1, 1), dtype=np.int8)
        return
    # read as one flat stream: a list of (n-1)! tuples would be a large temporary
    flat = itertools.chain.from_iterable(itertools.permutations(range(n - 1)))
    count = math.factorial(n - 1) * (n - 1)
    sub = np.fromiter(flat, dtype=np.int8, count=count).reshape(-1, n - 1)
    for first in range(n):
        rest = np.array([v for v in range(n) if v != first], dtype=np.int8)
        block = np.empty((sub.shape[0], n), dtype=np.int8)
        block[:, 0] = first
        block[:, 1:] = rest[sub]
        yield block


@lru_cache(maxsize=2)
def _bad_mask_array(g: Graph) -> np.ndarray:
    """B(pi) for every ordering pi, lexicographic, as a uint16 mask array."""
    n = g.n
    bits = np.array([1 << v for v in range(n)], dtype=np.uint16)
    adj = np.array(g.adj, dtype=np.uint16)
    out = np.empty(math.factorial(n), dtype=np.uint16)
    pos = 0
    for block in _perm_blocks(n):
        vertex_bits = bits[block]
        seen = np.empty_like(vertex_bits)
        seen[:, 0] = 0
        np.bitwise_or.accumulate(vertex_bits[:, :-1], axis=1, out=seen[:, 1:])
        bad = (adj[block] & seen) == 0
        bad[:, 0] = False
        np.bitwise_or.reduce(
            np.where(bad, vertex_bits, 0), axis=1, out=out[pos : pos + len(block)]
        )
        pos += len(block)
    return out


def brute_sigma(g: Graph) -> int:
    """Number of orderings whose bad-vertex set is empty."""
    _guard(g)
    return int((_bad_mask_array(g) == 0).sum())


def brute_distribution(g: Graph) -> BadDistribution:
    """Histogram of orderings by bad-vertex count, k = 0..n."""
    _guard(g)
    sizes = _POPCOUNT[_bad_mask_array(g)]
    hist = np.bincount(sizes, minlength=g.n + 1)
    return BadDistribution(tuple(int(c) for c in hist))


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
    masks = _bad_mask_array(g)
    hits = ((masks & bad_req) == bad_req) & ((masks & good_req) == 0)
    return Fraction(int(hits.sum()), math.factorial(g.n))
