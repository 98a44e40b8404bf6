"""Property-based checks of the structural invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from succorder import (
    Graph,
    a_value,
    b_permutation_sum,
    brute_sigma,
    closed_neighborhood,
    compute_b_table,
    is_independent,
    iter_layers,
    iter_vertices,
    open_neighborhood,
    parse_edge_list,
    pr_bad_via_mobius,
    sigma,
    weight,
)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picked)


@st.composite
def graph_and_mask(draw, max_n=7):
    g = draw(graphs(max_n=max_n))
    mask = draw(st.integers(0, g.full_mask))
    return g, mask


@given(graph_and_mask())
def test_a_value_counts_vertices_outside_union(gm):
    g, mask = gm
    union = set(iter_vertices(mask)) | set(iter_vertices(open_neighborhood(g, mask)))
    assert a_value(g, mask) == g.n - len(union)


@given(graph_and_mask(), st.integers(0, (1 << 7) - 1))
def test_a_value_antitone_under_inclusion(gm, extra):
    g, mask = gm
    larger = (mask | extra) & g.full_mask
    assert a_value(g, mask) >= a_value(g, larger)


@given(graph_and_mask())
def test_nonempty_sets_leave_something_in_the_neighbourhood(gm):
    g, mask = gm
    if mask:
        assert g.n - a_value(g, mask) >= 1


@given(graph_and_mask())
def test_layers_agree_with_subset_scan(gm):
    g, universe = gm
    for within in (g.full_mask, universe):
        layers = list(iter_layers(g, within))
        by_size = {}
        for mask in range(1 << g.n):
            if not mask & ~within and is_independent(g, mask):
                by_size.setdefault(mask.bit_count(), set()).add(mask)
        assert len(layers) == len(by_size)
        for layer in layers:
            assert set(layer.sets) == by_size[layer.k]
            assert list(layer.sets) == sorted(layer.sets)
            assert layer.nbhds == tuple(closed_neighborhood(g, mask) for mask in layer.sets)


@given(graphs(max_n=6))
@settings(max_examples=40)
def test_b_recursion_equals_permutation_sum(g):
    table = compute_b_table(g)
    for mask, value in table.items():
        assert b_permutation_sum(g, mask) == value


@given(graphs(max_n=6))
@settings(max_examples=40)
def test_weights_are_probabilities_and_dual_to_good_events(g):
    table = compute_b_table(g)
    for mask, _ in table.items():
        w = weight(g, mask, table)
        assert 0 <= w <= 1
        assert pr_bad_via_mobius(g, mask) == w


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_sigma_matches_brute_force(g):
    result = sigma(g)
    assert 0 <= result.sigma_prime <= 1
    assert result.sigma == brute_sigma(g)
    assert result.sigma_prime * math.factorial(g.n) == result.sigma


@given(graphs(max_n=8))
def test_parse_roundtrip(g):
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    assert parse_edge_list("\n".join(lines) + "\n") == g
