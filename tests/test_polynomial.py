import math
from fractions import Fraction

import pytest

from succorder import (
    Graph,
    InternalCheckError,
    Layer,
    OrderingPolynomial,
    bad_distribution,
    brute_distribution,
    brute_event,
    brute_sigma,
    build_polynomial,
    cli,
    compute_b_table,
    delete_decompose,
    eval_at_minus_one,
    eval_indicator,
    eval_partial,
    iter_vertices,
    mask_of,
    polynomial,
    pr_good,
    random_connected_graph,
    sigma,
)

from conftest import (
    c5_chord,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    p2_plus_isolated,
    path_graph,
    star_graph,
)

F = Fraction


def edit_subgraph_layer(monkeypatch, k, edit):
    """Pass layer k of delete_decompose's G' pass on C6 - {0} through ``edit``.

    ``edit`` gets the layer's (mask, nbhd, scaled b) rows as a list and returns
    the rows to yield; the G pass, over all six vertices, is left alone.
    """
    scaled_layers = polynomial._scaled_layers

    def edited(g):
        for layer, cur in scaled_layers(g):
            if g.n == 5 and layer.k == k:
                rows = edit(list(zip(layer.sets, layer.nbhds, cur.values())))
                layer = Layer(k, tuple(row[0] for row in rows), tuple(row[1] for row in rows))
                cur = {mask: num for mask, _, num in rows}
            yield layer, cur

    monkeypatch.setattr(polynomial, "_scaled_layers", edited)


def dropping(index):
    def drop(rows):
        del rows[index]
        return rows

    return drop


class TestBuildPolynomial:
    def test_c5_chord(self):
        poly = build_polynomial(c5_chord())
        assert poly.p_coeffs == (F(1), F(1, 2))
        assert poly.f_coeffs == (120, 60)

    def test_p3(self):
        poly = build_polynomial(path_graph(3))
        assert poly.p_coeffs == (F(1), F(1, 3))
        assert poly.f_coeffs == (6, 2)

    def test_single_vertex(self):
        poly = build_polynomial(graph_from_edges(1, []))
        assert poly.p_coeffs == (F(1),)
        assert poly.f_coeffs == (1,)

    def test_constant_term_is_one(self):
        for g in (cycle_graph(6), star_graph(4), p2_plus_isolated()):
            assert build_polynomial(g).p_coeffs[0] == 1

    def test_coefficients_count_ordering_set_pairs(self):
        # f_coeffs[j] = sum over orderings of C(bad-count, j)
        for g in (path_graph(4), c5_chord(), cycle_graph(6), star_graph(3)):
            poly = build_polynomial(g)
            hist = brute_distribution(g).counts
            for j, c in enumerate(poly.f_coeffs):
                assert c == sum(a_k * math.comb(k, j) for k, a_k in enumerate(hist))


class TestEvalAtMinusOne:
    def test_c5_chord(self):
        assert eval_at_minus_one(build_polynomial(c5_chord())).sigma == 60

    def test_p3(self):
        assert eval_at_minus_one(build_polynomial(path_graph(3))).sigma == 4

    def test_k1(self):
        assert eval_at_minus_one(build_polynomial(graph_from_edges(1, []))).sigma == 1

    def test_agrees_with_direct_count(self):
        for g in (cycle_graph(7), star_graph(5), complete_bipartite(2, 3), p2_plus_isolated()):
            assert eval_at_minus_one(build_polynomial(g)).sigma == sigma(g).sigma

    def test_range_check_fires_on_corrupt_polynomial(self):
        poly = OrderingPolynomial(3, (F(2),), (12,))
        with pytest.raises(InternalCheckError):
            eval_at_minus_one(poly)


class TestBadDistribution:
    def test_c5_chord(self):
        dist = bad_distribution(build_polynomial(c5_chord()))
        assert dist.counts == (60, 60, 0, 0, 0, 0)

    def test_p3(self):
        assert bad_distribution(build_polynomial(path_graph(3))).counts == (4, 2, 0, 0)

    def test_k1(self):
        assert bad_distribution(build_polynomial(graph_from_edges(1, []))).counts == (1, 0)

    def test_matches_oracle_histogram(self):
        for g in (
            path_graph(5),
            cycle_graph(6),
            star_graph(4),
            complete_bipartite(2, 3),
            p2_plus_isolated(),
        ):
            engine = bad_distribution(build_polynomial(g))
            assert engine.counts == brute_distribution(g).counts

    def test_reconstructs_polynomial_in_shifted_basis(self):
        # coefficient of x^j in sum_k A_k (x+1)^k must equal f_coeffs[j]
        for g in (c5_chord(), path_graph(5), cycle_graph(6)):
            poly = build_polynomial(g)
            counts = bad_distribution(poly).counts
            width = len(poly.f_coeffs)
            rebuilt = [
                sum(a_k * math.comb(k, j) for k, a_k in enumerate(counts))
                for j in range(width)
            ]
            assert tuple(rebuilt) == poly.f_coeffs
            assert all(
                a_k == 0 for k, a_k in enumerate(counts) if k >= width
            )


class TestEvalIndicator:
    def test_full_set_gives_sigma_prime(self):
        g = c5_chord()
        assert eval_indicator(g, g.full_mask) == F(1, 2)

    def test_empty_set(self):
        assert eval_indicator(c5_chord(), 0) == 1

    def test_p3_endpoint(self):
        assert eval_indicator(path_graph(3), mask_of([2])) == F(5, 6)

    def test_agrees_with_restricted_route(self):
        for g in (c5_chord(), path_graph(5), star_graph(4)):
            for universe in range(1 << g.n):
                assert eval_indicator(g, universe) == pr_good(g, universe)

    def test_agrees_with_restricted_route_on_random_pairs(self):
        import random

        rng = random.Random(99)
        for i in range(200):
            n = rng.randrange(4, 11)
            g = random_connected_graph(n, 0.15 + 0.05 * (i % 6), seed=3000 + i)
            universe = rng.getrandbits(n)
            assert eval_indicator(g, universe) == pr_good(g, universe)


class TestEvalPartial:
    def test_no_bad_requirement_is_sigma_prime(self):
        g = c5_chord()
        assert eval_partial(g, 0, g.full_mask) == F(1, 2)

    def test_dependent_bad_set_is_zero(self):
        g = c5_chord()
        assert eval_partial(g, mask_of([1, 3]), g.full_mask) == 0
        assert eval_partial(g, mask_of([1, 3]), 0) == 0

    def test_p3_first_vertex_bad_rest_good(self):
        g = path_graph(3)
        expected = brute_event(g, mask_of([0]), mask_of([1, 2]))
        assert eval_partial(g, mask_of([0]), g.full_mask) == expected

    def test_exhaustive_against_oracle_small(self):
        for g in (path_graph(4), star_graph(3), cycle_graph(4)):
            full = g.full_mask
            for bad in range(1 << g.n):
                for good in range(1 << g.n):
                    engine = eval_partial(g, bad, good)
                    oracle = brute_event(g, bad, good & ~bad & full)
                    assert engine == oracle, (g, bad, good)


class TestDeleteDecompose:
    def test_empty_removal_is_identity(self):
        g = c5_chord()
        report = delete_decompose(g, 0)
        assert report.p_g == report.p_gprime
        assert all(c == 0 for c in report.r_s)
        assert all(c == 0 for c in report.u_s)
        assert all(d == 0 for d in report.delta_b.values())

    def test_c5_chord_drop_last_vertex(self):
        g = c5_chord()
        report = delete_decompose(g, mask_of([4]))
        # remainder is the 4-vertex graph with edges 01, 12, 23, 13
        assert report.p_gprime == build_polynomial(
            graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        )
        assert eval_at_minus_one(report.p_gprime).sigma == brute_sigma(
            graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        )

    def test_delta_b_empty_set_is_zero(self):
        report = delete_decompose(cycle_graph(6), mask_of([0, 3]))
        assert report.delta_b[0] == 0

    def test_delta_b_is_the_difference_of_b_tables(self, connected_catalog):
        for i, g in enumerate(connected_catalog):
            if g.n < 2:
                continue
            one = 1 << (i % g.n)
            two = one | 1 << ((i + 1 + i % (g.n - 1)) % g.n)
            for removed in (one, two) if g.n > 2 else (one,):
                report = delete_decompose(g, removed)
                b_g = compute_b_table(g)
                old = list(iter_vertices(g.full_mask & ~removed))
                sub = Graph.from_edges(
                    len(old), [(old.index(u), old.index(v)) for u, v in g.edges() if u in old and v in old]
                )
                expected = {}
                for mask, b in compute_b_table(sub).items():
                    orig = mask_of(old[v] for v in iter_vertices(mask))
                    expected[orig] = b - b_g[orig]
                assert report.delta_b == expected, (g, removed)

    def test_delta_b_check_fires_on_a_corrupt_b_value(self, monkeypatch):
        scaled_layers = polynomial._scaled_layers
        passes = []

        def corrupt_second_pass(g):
            passes.append(g)
            for layer, cur in scaled_layers(g):
                if len(passes) == 2 and layer.k == 2:
                    mask = layer.sets[1]
                    cur = {**cur, mask: cur[mask] + 1}
                yield layer, cur

        monkeypatch.setattr(polynomial, "_scaled_layers", corrupt_second_pass)
        # C6 minus vertex 0 is the path 1-2-3-4-5; its second 2-set is {1, 4} in C6 labels
        with pytest.raises(InternalCheckError, match="delta-b recursion fails for set 0x12"):
            delete_decompose(cycle_graph(6), mask_of([0]))

    # C6 minus vertex 0 is the path 1-2-3-4-5: its only 3-set is {1, 3, 5},
    # its last 2-set {3, 5} and its first singleton {1}, in C6 labels
    @pytest.mark.parametrize(
        "k, index, message",
        [
            (3, 0, "layer 3: G' has 0 sets, G 1 outside S"),
            (2, -1, "layer 2: G' has 5 sets, G 6 outside S"),
            (1, 0, "layer 1: G' has 4 sets, G 5 outside S"),
        ],
        ids=["maximal-3-set", "last-2-set", "first-singleton"],
    )
    def test_agreement_check_fires_on_a_dropped_set(self, monkeypatch, k, index, message):
        edit_subgraph_layer(monkeypatch, k, dropping(index))
        with pytest.raises(InternalCheckError, match=message):
            delete_decompose(cycle_graph(6), mask_of([0]))

    def test_cli_delete_exits_2_on_a_dropped_set(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        edit_subgraph_layer(monkeypatch, 2, dropping(-1))
        assert cli.main(["delete", str(path), "--set", "0", "--json"]) == 2
        assert "internal check failed: layer 2" in capsys.readouterr().err

    def test_agreement_check_fires_on_a_misplaced_set(self, monkeypatch):
        edit_subgraph_layer(monkeypatch, 2, lambda rows: [rows[1], rows[0], *rows[2:]])
        # G' set {0, 3} is {1, 4} in C6 labels, paired with G's first survivor {1, 3}
        with pytest.raises(InternalCheckError, match="set 0x9 of G' does not translate to 0xa"):
            delete_decompose(cycle_graph(6), mask_of([0]))

    def test_agreement_check_fires_on_a_leftover_layer(self, monkeypatch):
        scaled_layers = polynomial._scaled_layers

        def with_extra_layer(g):
            yield from scaled_layers(g)
            if g.n == 5:
                yield Layer(4, (0b1111,), (0b11111,)), {0b1111: 1}

        monkeypatch.setattr(polynomial, "_scaled_layers", with_extra_layer)
        with pytest.raises(InternalCheckError, match="G' has more layers than G"):
            delete_decompose(cycle_graph(6), mask_of([0]))

    def test_outside_count_check_fires_on_a_wrong_subgraph(self, monkeypatch):
        induced_subgraph = polynomial.induced_subgraph

        def with_extra_edge(g, keep):
            sub, old = induced_subgraph(g, keep)
            return Graph.from_edges(sub.n, sub.edges() + [(0, sub.n - 1)]), old

        monkeypatch.setattr(polynomial, "induced_subgraph", with_extra_edge)
        with pytest.raises(InternalCheckError, match="outside-count mismatch after deletion for set 0x2"):
            delete_decompose(cycle_graph(6), mask_of([0]))

    def test_random_pairs(self):
        for i in range(25):
            n = 4 + i % 7
            g = random_connected_graph(n, 0.3, seed=900 + i)
            removed = (i * 2654435761) % (1 << n)
            if removed == g.full_mask:
                removed &= ~1
            delete_decompose(g, removed)

    def test_rejects_full_removal(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            delete_decompose(g, g.full_mask)
        with pytest.raises(ValueError):
            delete_decompose(g, 1 << 5)
