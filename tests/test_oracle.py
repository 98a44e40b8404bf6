import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from succorder import (
    bad_vertices,
    brute_distribution,
    brute_event,
    brute_sigma,
    mask_of,
    random_connected_graph,
)

from conftest import (
    c5_chord,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    p2_plus_isolated,
    path_graph,
    star_graph,
)


class TestBadVertices:
    def test_first_vertex_never_bad(self):
        g = path_graph(3)
        assert bad_vertices(g, [0, 1, 2]) == 0

    def test_isolated_later_vertex_is_bad(self):
        g = p2_plus_isolated()
        assert bad_vertices(g, [0, 1, 2]) == mask_of([2])
        assert bad_vertices(g, [2, 0, 1]) == mask_of([0])

    def test_adjacent_vertices_never_both_bad(self):
        g = c5_chord()
        import itertools

        for perm in itertools.permutations(range(5)):
            bad = bad_vertices(g, perm)
            for u in range(5):
                if bad & (1 << u):
                    assert not bad & g.adj[u]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            bad_vertices(path_graph(3), [0, 1])
        with pytest.raises(ValueError):
            bad_vertices(path_graph(3), [0, 1, 1])


class TestBruteSigma:
    def test_c5_chord(self):
        assert brute_sigma(c5_chord()) == 60

    def test_k2(self):
        assert brute_sigma(complete_graph(2)) == 2

    def test_star_with_three_leaves(self):
        # centre first: 3! orderings; a leaf first forces the centre second: 3 * 2!
        assert brute_sigma(star_graph(3)) == 12

    def test_size_guard(self):
        with pytest.raises(ValueError, match="limited"):
            brute_sigma(graph_from_edges(11, [(v, v + 1) for v in range(10)]))


class TestBruteDistribution:
    def test_p3(self):
        assert brute_distribution(path_graph(3)).counts == (4, 2, 0, 0)

    def test_k1(self):
        assert brute_distribution(graph_from_edges(1, [])).counts == (1, 0)

    def test_c5_chord(self):
        assert brute_distribution(c5_chord()).counts == (60, 60, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "g",
        [path_graph(4), cycle_graph(5), star_graph(4), p2_plus_isolated()],
        ids=["p4", "c5", "star4", "disconnected"],
    )
    def test_sums_to_factorial(self, g):
        assert sum(brute_distribution(g).counts) == math.factorial(g.n)


class TestBruteEvent:
    def test_trivial_event(self):
        assert brute_event(c5_chord(), 0, 0) == 1

    def test_all_good_is_sigma_prime(self):
        g = c5_chord()
        assert brute_event(g, 0, g.full_mask) == Fraction(1, 2)

    def test_adjacent_bad_pair_impossible(self):
        assert brute_event(c5_chord(), mask_of([1, 3]), 0) == 0

    @pytest.mark.parametrize(
        "g",
        [c5_chord(), complete_graph(4), star_graph(4), random_connected_graph(8, 0.3, seed=5)],
        ids=["c5chord", "k4", "star4", "n8"],
    )
    def test_every_dependent_bad_set_is_impossible(self, g):
        # the walk drops each prefix next to a required-bad vertex still to come
        full = g.full_mask
        for u, v in g.edges():
            pair = mask_of([u, v])
            for extra_bad in (0, full & ~pair & -(full & ~pair)):
                bad_req = pair | extra_bad
                for good_req in (0, full & ~bad_req):
                    assert brute_event(g, bad_req, good_req) == 0, (u, v, extra_bad, good_req)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            brute_event(path_graph(3), mask_of([0]), mask_of([0, 2]))

    def test_foreign_vertices_rejected(self):
        with pytest.raises(ValueError):
            brute_event(path_graph(3), 1 << 4, 0)

    def test_monotone_in_requirements(self):
        g = cycle_graph(5)
        base_good = mask_of([0])
        base_bad = mask_of([2])
        p = brute_event(g, base_bad, base_good)
        assert brute_event(g, base_bad, base_good | mask_of([1])) <= p
        assert brute_event(g, base_bad | mask_of([4]), base_good) <= p


def assert_matches_permutation_scan(g, seed):
    """sigma, the distribution and sampled events equal a plain scan of all n! orderings."""
    scan = Counter(bad_vertices(g, p) for p in itertools.permutations(range(g.n)))
    histogram = [0] * (g.n + 1)
    for bad, count in scan.items():
        histogram[bad.bit_count()] += count
    assert brute_sigma(g) == scan[0]
    assert brute_distribution(g).counts == tuple(histogram)

    rng = random.Random(seed)
    for _ in range(6):
        bad_req = rng.getrandbits(g.n) & rng.getrandbits(g.n)
        good_req = rng.getrandbits(g.n) & ~bad_req
        for t, s in ((bad_req, good_req), (bad_req, 0), (0, good_req)):
            hits = sum(c for bad, c in scan.items() if bad & t == t and not bad & s)
            assert brute_event(g, t, s) == Fraction(hits, math.factorial(g.n)), (t, s)


class TestAgainstPermutationScan:
    def test_every_graph_up_to_six_vertices(self, connected_catalog, disconnected_catalog):
        small = [g for g in connected_catalog + disconnected_catalog if g.n <= 6]
        assert len(small) == 208
        for i, g in enumerate(small):
            assert_matches_permutation_scan(g, seed=i)

    @pytest.mark.parametrize(
        "g",
        [
            random_connected_graph(7, 0.2, seed=1),
            random_connected_graph(7, 0.6, seed=2),
            random_connected_graph(8, 0.1, seed=3),
            random_connected_graph(8, 0.4, seed=4),
            graph_from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]),
        ],
        ids=["n7-sparse", "n7-dense", "n8-tree-like", "n8-mid", "n8-disconnected"],
    )
    def test_seeded_graphs(self, g):
        assert_matches_permutation_scan(g, seed=g.n)
