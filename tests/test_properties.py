"""Property-based checks of the structural invariants."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succorder import (
    Graph,
    ParseError,
    a_value,
    b_permutation_sum,
    brute_sigma,
    build_polynomial,
    closed_neighborhood,
    compute_b_table,
    eval_partial,
    is_independent,
    iter_layers,
    iter_vertices,
    open_neighborhood,
    parse_edge_list,
    pr_bad_via_mobius,
    random_connected_graph,
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
def test_counts_are_orderings_with_every_set_vertex_before_its_neighbours(g):
    nfact = math.factorial(g.n)
    orderings = list(itertools.permutations(range(g.n)))
    for layer in iter_layers(g):
        for mask, count in zip(layer.sets, layer.counts):
            assert 0 < count <= nfact
            members = [v for v in range(g.n) if mask >> v & 1]
            expected = 0
            for order in orderings:
                position = {v: i for i, v in enumerate(order)}
                expected += all(
                    position[v] < position[u] for v in members for u in range(g.n) if g.adj[v] >> u & 1
                )
            assert count == expected


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


def relabel(g, perm):
    """π(G) for the permutation π: v -> perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def relabel_mask(perm, mask):
    return sum(1 << perm[v] for v in iter_vertices(mask))


@pytest.mark.parametrize("n", [16, 20, 24, 28])
def test_results_do_not_depend_on_vertex_labels(n):
    # past the oracle's and the permutation scan's reach, and nearly every
    # intermediate of the pass depends on the labels: which sets extend
    # which, the block order, each child's parent and the order of the sums
    rng = random.Random(n)
    g = random_connected_graph(n, 0.15, seed=n)
    perm = rng.sample(range(n), n)
    h = relabel(g, perm)
    assert h != g
    assert build_polynomial(g) == build_polynomial(h)
    # an independent T of two vertices, and S drawn from the rest
    t = rng.randrange(n)
    u = rng.choice([v for v in range(n) if v != t and not g.adj[t] >> v & 1])
    bad = 1 << t | 1 << u
    good = rng.getrandbits(n) & ~bad
    p = eval_partial(g, bad, good)
    assert p > 0
    assert eval_partial(h, relabel_mask(perm, bad), relabel_mask(perm, good)) == p


@given(graphs(max_n=8))
def test_parse_roundtrip(g):
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    assert parse_edge_list("\n".join(lines) + "\n") == g


FIELDS = st.one_of(st.integers(0, 70).map(str), st.sampled_from(["-1", "+2", "1_0", "٣", "#", "x", "9" * 5000]))
EDGE_LIST_LIKE = st.lists(st.lists(FIELDS, max_size=3).map(" ".join), max_size=8).map("\n".join)


@given(st.one_of(st.text(), st.text(alphabet="0123456789 \t\n#-+_\ufeff٣"), EDGE_LIST_LIKE))
def test_parser_raises_only_parse_error(text):
    try:
        g = parse_edge_list(text)
    except ParseError:
        return
    assert isinstance(g, Graph)
