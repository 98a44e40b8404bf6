import inspect
import itertools
import math
import random
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
    crosscheck,
    delete_decompose,
    delta_b,
    eval_at_minus_one,
    eval_indicator,
    eval_partial,
    induced_subgraph,
    iter_layers,
    iter_vertices,
    layers,
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


def edit_g_layer(monkeypatch, k, edit, g_prime=False, module=polynomial):
    """Pass layer k of ``module``'s pass over G through ``edit``, or of its
    pass over G' when ``g_prime`` is set: the deletion's passes in
    ``polynomial``, the Δb recursion's pass over G in ``crosscheck``.

    ``edit`` gets the layer's (mask, nbhd, n! b) rows as a list and returns
    the rows to yield; the layer keeps the weight its pass summed.
    """
    def edited(g, universe=None):
        for layer in iter_layers(g, universe):
            if layer.k == k and (universe is not None) == g_prime:
                rows = edit(list(zip(layer.sets, layer.nbhds, layer.counts)))
                sets, nbhds, counts = (tuple(row[i] for row in rows) for i in range(3))
                layer = Layer(k, sets, nbhds, counts, layer.weight)
            yield layer

    monkeypatch.setattr(module, "iter_layers", edited)


def shift_g_prime_weight(monkeypatch, k, extra):
    """Add ``extra`` to the weight of layer k of the deletion's pass over G'."""
    def shifted(g, universe=None):
        for layer in iter_layers(g, universe):
            if layer.k == k and universe is not None:
                layer = Layer(k, layer.sets, layer.nbhds, layer.counts, layer.weight + extra)
            yield layer

    monkeypatch.setattr(polynomial, "iter_layers", shifted)


def deletion_mutant(monkeypatch, module, name, old, new):
    """Replace ``module.<name>`` with a copy of it that has ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(module, name))
    mutant = source.replace(old, new)
    assert mutant != source
    namespace = dict(vars(module))
    exec(compile(mutant, module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def with_extra_g_layer(g, universe=None):
    """G's pass with an extra layer 4 whose set {1, 2, 3, 4} has no subsets in layer 3."""
    yield from iter_layers(g, universe)
    if universe is None:
        yield Layer(4, (0b11110,), (0b111111,), (1,), 0)


def truncated_g_pass(g, universe=None):
    """G's pass stopped after layer 2."""
    return itertools.islice(iter_layers(g, universe), 3 if universe is None else None)


def c6_minus_0():
    """The deletion of vertex 0 from C6, which the check-firing tests corrupt."""
    return delete_decompose(cycle_graph(6), mask_of([0]))


def c6_minus_0_delta_b():
    """Δb for that deletion, through ``crosscheck.delta_b`` as the tests leave it."""
    return crosscheck.delta_b(cycle_graph(6), mask_of([0]))


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
        # against the event core's signed sum over every vertex good, a second route
        for g in (cycle_graph(7), star_graph(5), complete_bipartite(2, 3), p2_plus_isolated()):
            direct = pr_good(g, g.full_mask) * math.factorial(g.n)
            assert eval_at_minus_one(build_polynomial(g)).sigma == direct == sigma(g).sigma

    def test_range_check_fires_on_corrupt_polynomial(self):
        poly = OrderingPolynomial(3, (12,))
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
        assert all(d == 0 for d in delta_b(g, 0).values())

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
        assert delta_b(cycle_graph(6), mask_of([0, 3]))[0] == 0

    def test_delta_b_is_the_difference_of_b_tables(self, connected_catalog):
        for i, g in enumerate(connected_catalog):
            if g.n < 2:
                continue
            one = 1 << (i % g.n)
            two = one | 1 << ((i + 1 + i % (g.n - 1)) % g.n)
            for removed in (one, two) if g.n > 2 else (one,):
                b_g = compute_b_table(g)
                old = list(iter_vertices(g.full_mask & ~removed))
                sub = Graph.from_edges(
                    len(old), [(old.index(u), old.index(v)) for u, v in g.edges() if u in old and v in old]
                )
                expected = {}
                for mask, b in compute_b_table(sub).items():
                    orig = mask_of(old[v] for v in iter_vertices(mask))
                    expected[orig] = b - b_g[orig]
                assert delta_b(g, removed) == expected, (g, removed)

    def test_delta_b_is_a_dict_of_fractions_layer_by_layer(self):
        table = delta_b(cycle_graph(6), mask_of([0]))
        # C6 minus vertex 0 is the path 1-2-3-4-5; keys come layer by layer, mask-ascending
        assert type(table) is dict
        assert list(table) == [0, 0b10, 0b100, 0b1000, 0b10000, 0b100000,
                               0b1010, 0b10010, 0b10100, 0b100010, 0b100100, 0b101000, 0b101010]
        assert all(type(value) is Fraction for value in table.values())

    def test_delta_b_check_fires_on_a_corrupt_b_value(self, monkeypatch):
        # a source mutant that drops the |N_G[I] ∩ S| B_G(I) term: every Δ is 0,
        # so G''s counts are G's, and G''s recursion fails at its first step
        deletion_mutant(monkeypatch, crosscheck, "delta_b", "child_sum += overlap * num_g\n", "\n")
        with pytest.raises(InternalCheckError, match="G' child sums at layer 1 differ from layer 0's weight"):
            c6_minus_0_delta_b()

    def test_delta_b_check_fires_on_a_lost_survivor_in_g(self, monkeypatch):
        # the recursion's pass over P_5 loses {0}, its first singleton and a
        # survivor of S = {1}: G''s layer 1 then sums short of layer 0's weight
        edit_g_layer(monkeypatch, 1, dropping(0), module=crosscheck)
        with pytest.raises(InternalCheckError, match="^G' child sums at layer 1 differ from layer 0's weight$"):
            crosscheck.delta_b(path_graph(5), mask_of([1]))

    # C6's layers, mask-ascending: its last 3-set is {1, 3, 5}, its last 2-set
    # {3, 5} and its first singleton {0}.  G's pass weight still counts the
    # dropped set and its per-set terms no longer do; {1, 3, 5} adds a_G = 0 to
    # that weight, and G''s own pass finds it instead
    @pytest.mark.parametrize(
        "k, index, message",
        [
            (3, -1, "G' layer 3 differs from G's survivors of size 3"),
            (2, -1, "deletion identity fails at degree 2"),
            (1, 0, "deletion identity fails at degree 1"),
        ],
        ids=["maximal-3-set", "last-2-set", "first-singleton"],
    )
    def test_agreement_check_fires_on_a_dropped_set(self, monkeypatch, k, index, message):
        edit_g_layer(monkeypatch, k, dropping(index))
        with pytest.raises(InternalCheckError, match=f"{message}$"):
            delete_decompose(cycle_graph(6), mask_of([0]))

    def test_cli_delete_exits_2_on_a_dropped_set(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        edit_g_layer(monkeypatch, 2, dropping(-1))
        assert cli.main(["delete", str(path), "--set", "0", "--json"]) == 2
        assert "internal check failed: deletion identity fails at degree 2" in capsys.readouterr().err

    def test_agreement_check_fires_on_a_leftover_layer(self, monkeypatch):
        # an extra layer in the recursion's pass over G; the deletion's are whole
        monkeypatch.setattr(crosscheck, "iter_layers", with_extra_g_layer)
        with pytest.raises(InternalCheckError, match="set 0x1e lacks a subset in layer 3"):
            c6_minus_0_delta_b()

    def test_recursion_check_fires_on_a_lost_top_layer(self, monkeypatch):
        # the recursion's pass over G stops after layer 2, so no layer counts
        # the extension {1, 3, 5} of the survivor {1, 3}
        monkeypatch.setattr(crosscheck, "iter_layers", truncated_g_pass)
        with pytest.raises(InternalCheckError, match="G' child sums at layer 3 differ from layer 2's weight"):
            c6_minus_0_delta_b()

    # G' is the path 1-2-3-4-5: an extra G layer holds the survivor {1, 2, 3, 4},
    # which G' lacks; a truncated G pass lacks G''s 3-set {1, 3, 5}; and a G'
    # layer 2 with {1, 2} for {1, 3} has G's survivor count but not its mask sum
    @pytest.mark.parametrize("edit, k", [("extra-g-layer", 4), ("truncated-g-pass", 3), ("g-prime-set-swapped", 2)],
                             ids=["extra-g-layer", "truncated-g-pass", "g-prime-set-swapped"])
    def test_layer_agreement_check_fires(self, monkeypatch, edit, k):
        if edit == "g-prime-set-swapped":
            swap = lambda rows: [(0b110, *row[1:]) if row[0] == 0b1010 else row for row in rows]  # noqa: E731
            edit_g_layer(monkeypatch, 2, swap, g_prime=True)
        else:
            monkeypatch.setattr(polynomial, "iter_layers", with_extra_g_layer if k == 4 else truncated_g_pass)
        with pytest.raises(InternalCheckError, match=f"^G' layer {k} differs from G's survivors of size {k}$"):
            c6_minus_0()

    # C6's 2-sets that miss vertex 0, mask-ascending: {1, 3}, {1, 4}, {2, 4}, ...
    @pytest.mark.parametrize(
        "target, edit, message",
        [
            (0b1010, lambda mask, nbhd, b: (mask, nbhd, b + 1), "delta-b recursion fails"),
            (0b10100, lambda mask, nbhd, b: (mask, nbhd & ~0b100000, b), "outside-count mismatch"),
        ],
        ids=["b", "neighbourhood"],
    )
    def test_per_set_checks_catch_a_corrupt_survivor_in_g(self, monkeypatch, target, edit, message):
        # corrupted in the recursion's pass over G only: the check of that set
        # fires before any per-layer sum is compared
        def corrupt(rows):
            return [edit(*row) if row[0] == target else row for row in rows]

        edit_g_layer(monkeypatch, 2, corrupt, module=crosscheck)
        with pytest.raises(InternalCheckError, match=f"{message}.* for set {target:#x}$"):
            c6_minus_0_delta_b()

    def test_identity_check_fires_on_a_survivor_term_counted_in_u_s(self, monkeypatch):
        # a source mutant that adds each survivor's G term to U_S's sum as well:
        # G''s pass and the layer agreement pass, and only the identity sees
        # U_S + P_G' - R_S != P_G
        line = "                old_w += term\n"
        deletion_mutant(monkeypatch, polynomial, "delete_decompose", line, line + "                meets += term\n")
        with pytest.raises(InternalCheckError, match="deletion identity fails at degree 0"):
            polynomial.delete_decompose(cycle_graph(6), mask_of([0]))

    def test_u_s_check_fires_on_a_unit_moved_from_survivors_to_u_s(self, monkeypatch):
        # a source mutant that moves one unit of each survivor's G term into
        # the U_S sum: W_k and F are unchanged, so the identity and F's checks
        # pass, but the U_S sum at degree 0, that of the empty set, is 1
        line = "                old_w += term\n"
        mutant = "                old_w += term - 1\n                meets += 1\n"
        deletion_mutant(monkeypatch, polynomial, "delete_decompose", line, mutant)
        with pytest.raises(InternalCheckError, match=r"^n! U_S at degree 0 is not an integer$"):
            polynomial.delete_decompose(cycle_graph(6), mask_of([0]))

    def test_outside_count_check_fires_on_a_wrong_subgraph(self, monkeypatch):
        # a source mutant that leaves S in G''s rows: N_{G'}[{1}] becomes {0, 1, 2}
        deletion_mutant(monkeypatch, crosscheck, "delta_b", " & ~removed for v", " for v")
        with pytest.raises(InternalCheckError, match="outside-count mismatch after deletion for set 0x2"):
            c6_minus_0_delta_b()

    def test_recursion_check_fires_on_a_survivor_term_left_out(self, monkeypatch):
        # a source mutant whose layer-2 sum of |N_{G'}[J]| B_{G'}(J) skips {1, 3}
        line = "                child += size * num\n"
        mutant = line.replace("\n", " if mask != 0b1010 else 0\n")
        deletion_mutant(monkeypatch, crosscheck, "delta_b", line, mutant)
        with pytest.raises(InternalCheckError, match="G' child sums at layer 2 differ from layer 1's weight"):
            c6_minus_0_delta_b()

    # C6 minus vertex 0: n!/n'! = 6 and n' = 5
    @pytest.mark.parametrize("extra, message", [
        (1, "G' weight at degree 1 is not a multiple of n!/n'!"),
        (6, "F coefficient at degree 1 is not integral"),
    ], ids=["ratio", "polynomial"])
    def test_weight_checks_fire_on_a_g_prime_weight_off_by(self, monkeypatch, extra, message):
        shift_g_prime_weight(monkeypatch, 1, extra)
        with pytest.raises(InternalCheckError, match=message):
            c6_minus_0()

    def test_cross_check_fires_on_a_g_prime_weight_off_by_a_coefficient(self, monkeypatch):
        # n' n!/n'! = 30 more weight at degree 1 passes every check of G''s
        # pass and adds 1 to F''s coefficient there; only the recursion, whose
        # pass over G is whole, reaches a different weight
        shift_g_prime_weight(monkeypatch, 1, 30)
        assert c6_minus_0().p_gprime.f_coeffs[1] == build_polynomial(path_graph(5)).f_coeffs[1] + 1
        with pytest.raises(InternalCheckError, match="^G' weight at degree 1 differs from the delta-b recursion's$"):
            c6_minus_0_delta_b()

    @pytest.mark.parametrize("g_prime, k", [(False, 1), (True, 1), (True, 2)],
                             ids=["g-layer-1", "g-prime-layer-1", "g-prime-layer-2"])
    def test_each_pass_runs_its_own_checks(self, monkeypatch, g_prime, k):
        # the first child of layer k, {0} in G and {1} or {1, 3} in G', dropped
        # with its share of the layer's sums: the completeness check of that
        # pass, over G or over the sealed V minus S, fires before any
        # comparison between the two
        children = layers._children

        def dropping(blocks, vertices, closed, n):
            parent_k = next(sets[0] for sets, _, _ in blocks if sets).bit_count()
            child_sums, total, weight = children(blocks, vertices, closed, n)
            if (0 not in vertices) != g_prime or parent_k + 1 != k:
                return child_sums, total, weight
            i = next(i for i, (sets, _, _) in enumerate(blocks) if sets)
            (_, *child_sets), (nbhd, *child_nbhds), (count, *child_counts) = blocks[i]
            blocks[i] = child_sets, child_nbhds, child_counts
            size = nbhd.bit_count()
            return child_sums - size * count, total - count, weight - (n - size) * count

        monkeypatch.setattr(layers, "_children", dropping)
        with pytest.raises(InternalCheckError, match=f"layer {k}: child sums differ from layer {k - 1}'s weight"):
            c6_minus_0()

    def test_g_prime_matches_its_own_pass(self, connected_catalog):
        # routes to P_{G-S} that the deletion does not take: the relabelled
        # induced subgraph's own pass; where n - |S| <= 9, the oracle's
        # bad-vertex counts A_k of G - S, through f_j = sum_k C(k, j) A_k; and
        # delta_b, whose recursion must reach p_gprime, cross-check (k)
        rng = random.Random(11)
        pairs = []
        for i in range(400):
            n = 2 + i % 13
            g = random_connected_graph(n, (0.15, 0.3, 0.5)[i % 3], seed=3000 + i)
            pairs.append((g, rng.randrange(1, g.full_mask)))
        pairs += [(g, 1 << i % g.n) for i, g in enumerate(connected_catalog) if g.n > 1]
        oracle_pairs = 0
        for g, removed in pairs:
            report = delete_decompose(g, removed)
            sub = induced_subgraph(g, g.full_mask & ~removed)[0]
            assert report.p_gprime == build_polynomial(sub)
            if sub.n <= 9:
                counts = brute_distribution(sub).counts
                f = [sum(math.comb(k, j) * a for k, a in enumerate(counts)) for j in range(sub.n + 1)]
                while len(f) > 1 and f[-1] == 0:
                    f.pop()
                assert report.p_gprime.f_coeffs == tuple(f)
                oracle_pairs += 1
            assert len(delta_b(g, removed)) == sum(map(len, iter_layers(sub)))
        assert oracle_pairs >= 300

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
