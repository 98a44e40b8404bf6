import math
from fractions import Fraction

import pytest

from succorder import (
    ORACLE_MAX_N,
    a_value,
    b_permutation_sum,
    brute_event,
    brute_sigma,
    compute_b_table,
    iter_vertices,
    mask_of,
    pr_bad_via_mobius,
    pr_good,
    random_connected_graph,
    sigma,
    weight,
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

F = Fraction

# Worked-example values for the five-cycle with chord 1-3: per independent
# set, the number of outside vertices and the recursive correction factor.
C5_CHORD_ROWS = {
    0: (5, F(1)),
    mask_of([0]): (2, F(1, 3)),
    mask_of([1]): (1, F(1, 4)),
    mask_of([2]): (2, F(1, 3)),
    mask_of([3]): (1, F(1, 4)),
    mask_of([4]): (2, F(1, 3)),
    mask_of([0, 2]): (0, F(2, 15)),
    mask_of([0, 3]): (0, F(7, 60)),
    mask_of([1, 4]): (0, F(7, 60)),
    mask_of([2, 4]): (0, F(2, 15)),
}


class TestBTable:
    def test_c5_chord_full_table(self):
        g = c5_chord()
        table = compute_b_table(g)
        assert len(table) == len(C5_CHORD_ROWS)
        for mask, (a_expected, b_expected) in C5_CHORD_ROWS.items():
            assert a_value(g, mask) == a_expected
            assert table[mask] == b_expected

    def test_empty_set_base_case(self):
        for g in (c5_chord(), path_graph(4), complete_graph(3)):
            assert compute_b_table(g)[0] == 1

    def test_values_positive(self):
        table = compute_b_table(cycle_graph(7))
        assert all(value > 0 for _, value in table.items())

    def test_non_independent_lookup_fails(self):
        with pytest.raises(KeyError):
            compute_b_table(c5_chord())[mask_of([0, 1])]

    def test_membership_is_independence_and_layers_hold_the_sets(self):
        # {0, 2} is independent, {0, 1} is an edge and {0, 2, 4} is past alpha = 2
        table = compute_b_table(c5_chord())
        assert 0 in table and mask_of([0, 2]) in table
        assert mask_of([0, 1]) not in table and mask_of([0, 2, 4]) not in table
        assert [len(layer) for layer in table.layers] == [1, 5, 4]


class TestPermutationSum:
    def test_c5_chord_pair(self):
        # orderings of {0, 3} contribute 1/20 + 1/15
        assert b_permutation_sum(c5_chord(), mask_of([0, 3])) == F(7, 60)

    def test_empty_set(self):
        assert b_permutation_sum(c5_chord(), 0) == 1

    def test_singleton(self):
        assert b_permutation_sum(c5_chord(), mask_of([0])) == F(1, 3)

    def test_matches_recursion_everywhere(self):
        for g in (c5_chord(), path_graph(6), cycle_graph(6), star_graph(4)):
            table = compute_b_table(g)
            for mask, value in table.items():
                assert b_permutation_sum(g, mask) == value

    def test_matches_recursion_on_larger_random_graphs(self):
        from succorder import random_connected_graph

        for n, density, seed in [(10, 0.25, 1), (11, 0.3, 2), (12, 0.35, 3)]:
            g = random_connected_graph(n, density, seed)
            table = compute_b_table(g)
            for mask, value in table.items():
                if mask.bit_count() <= 6:
                    assert b_permutation_sum(g, mask) == value

    def test_size_guard(self):
        g = graph_from_edges(10, [(v, (v + 1) % 10) for v in range(10)])
        big = mask_of([0, 2, 4, 6, 8]) | mask_of([1, 3])  # not independent anyway
        with pytest.raises(ValueError, match="independent"):
            b_permutation_sum(g, big)
        edgeless = graph_from_edges(9, [])
        with pytest.raises(ValueError, match="limited"):
            b_permutation_sum(edgeless, (1 << 9) - 1)


class TestWeight:
    def test_c5_chord_values(self):
        g = c5_chord()
        table = compute_b_table(g)
        assert weight(g, mask_of([1]), table) == F(1, 20)
        assert weight(g, mask_of([0, 2]), table) == 0
        assert weight(g, 0, table) == 1

    def test_weights_are_probabilities(self):
        for g in (c5_chord(), path_graph(5), cycle_graph(6), complete_graph(4)):
            table = compute_b_table(g)
            for mask, _ in table.items():
                assert 0 <= weight(g, mask, table) <= 1

    def test_rejects_dependent_set(self):
        g = c5_chord()
        with pytest.raises(ValueError):
            weight(g, mask_of([0, 1]), compute_b_table(g))


def assert_sigma_is(g, expected):
    """The engine, and the oracle where it runs, both give the closed form."""
    assert sigma(g).sigma == expected
    if g.n <= ORACLE_MAX_N:
        assert brute_sigma(g) == expected


def hook_length_sigma(tree):
    """Sum over roots r of n! / prod_v h_r(v), h_r(v) = |subtree of v| with the tree hung from r.

    A successive ordering of a tree that starts at r is a linear extension
    of the tree rooted at r; the hook-length formula counts those (Knuth,
    TAOCP vol. 3, section 5.1.4).
    """
    total = 0
    for root in range(tree.n):
        parent, order = {root: None}, [root]
        for v in order:
            for w in iter_vertices(tree.adj[v]):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        size = dict.fromkeys(order, 1)
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        total += math.factorial(tree.n) // math.prod(size.values())
    return total


class TestSigma:
    def test_c5_chord(self):
        result = sigma(c5_chord())
        assert result.sigma == 60
        assert result.sigma_prime == F(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10, 20])
    def test_complete_graphs(self, n):
        assert_sigma_is(complete_graph(n), math.factorial(n))
        assert sigma(complete_graph(n)).sigma_prime == 1

    def test_disconnected_is_zero(self):
        result = sigma(p2_plus_isolated())
        assert result.sigma == 0
        assert result.sigma_prime == 0

    def test_star(self):
        # the centre first, or a leaf and then the centre: 2 * (n - 1)!
        assert sigma(star_graph(3)).sigma == 12
        for leaves in (1, 6, 9, 15):
            assert_sigma_is(star_graph(leaves), 2 * math.factorial(leaves))

    def test_cycle(self):
        # n * 2^(n-2) ways to grow a cycle from any start
        assert sigma(cycle_graph(5)).sigma == 40
        assert sigma(cycle_graph(7)).sigma == 7 * 2**5
        for n in (3, 8, 10, 20):
            assert_sigma_is(cycle_graph(n), n * 2 ** (n - 2))

    @pytest.mark.parametrize("n", [1, 2, 6, 10, 20])
    def test_path(self, n):
        # the prefix is always an interval, grown at either end: 2^(n-1)
        assert_sigma_is(path_graph(n), 2 ** (n - 1))

    @pytest.mark.parametrize("n, seed", [(7, 1), (9, 2), (10, 3), (14, 4), (20, 5)])
    def test_trees_by_hook_lengths(self, n, seed):
        tree = random_connected_graph(n, 0.0, seed=seed)
        assert sum(adj.bit_count() for adj in tree.adj) == 2 * (n - 1)
        assert_sigma_is(tree, hook_length_sigma(tree))

    def test_sigma_prime_is_probability(self):
        for g in (path_graph(6), cycle_graph(6), star_graph(5)):
            assert 0 <= sigma(g).sigma_prime <= 1


class TestPrGood:
    def test_full_vertex_set_recovers_sigma_prime(self):
        g = c5_chord()
        assert pr_good(g, g.full_mask) == F(1, 2)

    def test_empty_set(self):
        assert pr_good(c5_chord(), 0) == 1

    def test_p3_endpoint(self):
        g = path_graph(3)
        assert pr_good(g, mask_of([2])) == F(5, 6)

    def test_matches_oracle_on_all_subsets(self):
        for g in (path_graph(4), c5_chord(), star_graph(3)):
            for universe in range(1 << g.n):
                assert pr_good(g, universe) == brute_event(g, 0, universe)

    def test_rejects_foreign_vertices(self):
        # the event core's own check, not the pass's "universe mentions ..."
        with pytest.raises(ValueError, match="^vertex set mentions vertices outside the graph$"):
            pr_good(path_graph(3), 1 << 4)


class TestMobius:
    def test_c5_chord_singleton(self):
        g = c5_chord()
        assert pr_bad_via_mobius(g, mask_of([1])) == F(1, 20)

    def test_empty(self):
        assert pr_bad_via_mobius(c5_chord(), 0) == 1

    def test_p3_endpoints_vs_oracle(self):
        g = path_graph(3)
        ends = mask_of([0, 2])
        assert pr_bad_via_mobius(g, ends) == brute_event(g, ends, 0)

    def test_equals_weight_everywhere(self):
        for g in (c5_chord(), path_graph(5), cycle_graph(6)):
            table = compute_b_table(g)
            for mask, _ in table.items():
                assert pr_bad_via_mobius(g, mask) == weight(g, mask, table)

    def test_rejects_dependent_set(self):
        with pytest.raises(ValueError, match="independent"):
            pr_bad_via_mobius(c5_chord(), mask_of([1, 3]))


def test_engine_matches_oracle_on_small_named_graphs():
    for g in (
        path_graph(4),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(6),
        star_graph(4),
        complete_graph(4),
        p2_plus_isolated(),
        graph_from_edges(6, [(0, 1), (1, 2), (3, 4)]),
    ):
        assert sigma(g).sigma == brute_sigma(g)
