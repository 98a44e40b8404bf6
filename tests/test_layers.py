import sys
import tracemalloc
from fractions import Fraction

import pytest

from succorder import InternalCheckError, cli, crosscheck, layers, polynomial
from succorder import (
    build_polynomial,
    delete_decompose,
    delta_b,
    detect_fully_regular,
    eval_partial,
    independence_number,
    is_independent,
    iter_layers,
    mask_of,
    pr_good,
    random_connected_graph,
    sigma,
)

from conftest import (
    C5_CHORD_TEXT,
    c5_chord,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
)


def brute_layer_sizes(g):
    """Independent-set counts per size, by scanning all 2^n subsets."""
    sizes = {}
    for mask in range(1 << g.n):
        if is_independent(g, mask):
            k = mask.bit_count()
            sizes[k] = sizes.get(k, 0) + 1
    return [sizes[k] for k in range(max(sizes) + 1)]


def test_c5_chord_layer_sizes():
    layers = list(iter_layers(c5_chord()))
    assert [len(layer) for layer in layers] == [1, 5, 4]
    assert sum(len(layer) for layer in layers) == 10


def test_single_vertex():
    layers = list(iter_layers(graph_from_edges(1, [])))
    assert [layer.sets for layer in layers] == [(0,), (1,)]


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_complete_graph_layers(n):
    layers = list(iter_layers(complete_graph(n)))
    assert [len(layer) for layer in layers] == [1, n]
    assert layers[1].sets == tuple(1 << v for v in range(n))


@pytest.mark.parametrize(
    "g",
    [path_graph(3), path_graph(6), cycle_graph(5), cycle_graph(8), c5_chord(), complete_graph(4)],
    ids=["p3", "p6", "c5", "c8", "c5chord", "k4"],
)
def test_matches_brute_force_subset_scan(g):
    layers = list(iter_layers(g))
    assert [len(layer) for layer in layers] == brute_layer_sizes(g)
    seen = set()
    for layer in layers:
        for mask in layer.sets:
            assert mask.bit_count() == layer.k
            assert is_independent(g, mask)
            assert mask not in seen
            seen.add(mask)


@pytest.mark.parametrize("g", [cycle_graph(6), c5_chord(), path_graph(7)], ids=["c6", "c5chord", "p7"])
def test_layers_sorted_and_downward_closed(g):
    layers = list(iter_layers(g))
    for layer in layers:
        assert list(layer.sets) == sorted(layer.sets)
    for k in range(1, len(layers)):
        below = set(layers[k - 1].sets)
        for mask in layers[k].sets:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                assert (mask ^ low) in below


def test_matches_subset_scan_at_twenty_vertices():
    from succorder import random_connected_graph

    g = random_connected_graph(20, 0.3, seed=3)
    enumerated = sum(len(layer) for layer in iter_layers(g))
    scanned = sum(1 for mask in range(1 << g.n) if is_independent(g, mask))
    assert enumerated == scanned


def test_universe_restriction():
    g = c5_chord()
    restricted = list(iter_layers(g, universe=0b00101))
    flat = [m for layer in restricted for m in layer.sets]
    assert flat == [0, 0b00001, 0b00100, 0b00101]


def test_counts_and_weights_of_the_worked_example():
    # B(I) = 5! b(I) on C5 with the chord 1-3; b({0, 3}) = 7/60
    by_layer = [dict(zip(layer.sets, layer.counts)) for layer in iter_layers(c5_chord())]
    assert by_layer[0] == {0: 120}
    assert by_layer[1] == {0b1: 40, 0b10: 30, 0b100: 40, 0b1000: 30, 0b10000: 40}
    assert by_layer[2][mask_of([0, 3])] == 14
    assert [layer.weight for layer in iter_layers(c5_chord())] == [600, 300, 0]


@pytest.mark.parametrize(
    "g", [cycle_graph(7), c5_chord(), path_graph(6), complete_graph(4)], ids=["c7", "c5chord", "p6", "k4"]
)
def test_child_sums_of_each_layer_add_up_to_the_weight_below(g):
    layers_ = list(iter_layers(g))
    for below, layer in zip(layers_, layers_[1:]):
        count_of = dict(zip(below.sets, below.counts))
        child_sums = sum(count_of[mask ^ (1 << v)] for mask in layer.sets for v in range(g.n) if mask >> v & 1)
        assert child_sums == below.weight
        assert child_sums == sum(c * nbhd.bit_count() for c, nbhd in zip(layer.counts, layer.nbhds))
    assert layers_[-1].weight == 0


def edit_children(monkeypatch, k, edit):
    """Have iter_layers build layer k through ``edit``.

    ``edit`` gets n, the layer's rows (set, neighbourhood, count) and its
    sums [child sums, sum of counts, weight], and returns both; the rows go
    back into the layer's blocks by maximum vertex.
    """
    children = layers._children

    def edited(blocks, vertices, closed, n):
        parent_k = next(sets[0] for sets, _, _ in blocks if sets).bit_count()
        sums = children(blocks, vertices, closed, n)
        if parent_k + 1 != k:
            return sums
        rows, sums = edit(n, [row for block in blocks for row in zip(*block)], list(sums))
        for i, v in enumerate(vertices, 1):
            blocks[i] = tuple(zip(*(row for row in rows if row[0].bit_length() - 1 == v))) or ((), (), ())
        return tuple(sums)

    monkeypatch.setattr(layers, "_children", edited)


def drop_child(index):
    """Drop one child together with its share of every sum of its layer."""

    def drop(n, rows, sums):
        _, nbhd, count = rows.pop(index)
        size = nbhd.bit_count()
        sums[0] -= size * count
        sums[1] -= count
        sums[2] -= (n - size) * count
        return rows, sums

    return drop


def bump_count(index):
    """Add 1 to one child's count and to the sums over counts, but not to the child sums."""

    def bump(n, rows, sums):
        members, nbhd, count = rows[index]
        rows[index] = (members, nbhd, count + 1)
        sums[1] += 1
        sums[2] += n - nbhd.bit_count()
        return rows, sums

    return bump


@pytest.mark.parametrize("k, index", [(1, 0), (2, -1)], ids=["first-singleton", "last-top-set"])
def test_completeness_check_catches_a_dropped_child(monkeypatch, k, index):
    # the layer's own sums agree with its rows, so only the check against layer k - 1 can fire
    edit_children(monkeypatch, k, drop_child(index))
    with pytest.raises(InternalCheckError, match=f"layer {k}: child sums differ from layer {k - 1}'s weight"):
        list(iter_layers(c5_chord()))


@pytest.mark.parametrize("k, index", [(1, 0), (3, 0)], ids=["first-singleton", "top-set"])
def test_completeness_check_runs_on_a_sealed_universe(monkeypatch, k, index):
    # with vertex 0's edges gone no edge leaves {1..5}, so each J of layer
    # k - 1 there lies in a(J) - 1 sets of layer k
    g = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    edit_children(monkeypatch, k, drop_child(index))
    with pytest.raises(InternalCheckError, match=f"layer {k}: child sums differ from layer {k - 1}'s weight"):
        list(iter_layers(g, mask_of([1, 2, 3, 4, 5])))


def test_unsealed_universe_runs_no_completeness_check(monkeypatch):
    # C6's edges {0, 1} and {3, 4} leave {1, 2, 3}, so no child count holds
    # there and none is checked: losing the 2-set {1, 3} goes unseen
    edit_children(monkeypatch, 2, drop_child(0))
    assert [len(layer) for layer in iter_layers(cycle_graph(6), mask_of([1, 2, 3]))] == [1, 3]


@pytest.mark.parametrize("universe", [None, mask_of([0, 2, 3])], ids=["whole", "restricted"])
def test_exactness_check_catches_a_count_off_by_one(monkeypatch, universe):
    edit_children(monkeypatch, 2, bump_count(0))
    with pytest.raises(InternalCheckError, match=r"layer 2: a count is not its child sum over \|N\[I\]\|"):
        list(iter_layers(c5_chord(), universe))


def test_cli_count_exits_2_on_a_dropped_child(monkeypatch, tmp_path, capsys):
    path = tmp_path / "c5chord.txt"
    path.write_text(C5_CHORD_TEXT)
    edit_children(monkeypatch, 2, drop_child(0))
    assert cli.main(["count", str(path), "--json"]) == 2
    assert "internal check failed: layer 2: child sums" in capsys.readouterr().err


def test_independence_number():
    assert independence_number(c5_chord()) == 2
    assert independence_number(complete_graph(6)) == 1
    assert independence_number(path_graph(3)) == 2
    assert independence_number(cycle_graph(8)) == 4


def test_each_feature_enumerates_the_sets_once(monkeypatch, tmp_path):
    passes = []

    def counted(g, universe=None):
        passes.append(universe)
        return iter_layers(g, universe)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "succorder" and getattr(module, "iter_layers", None) is iter_layers:
            monkeypatch.setattr(module, "iter_layers", counted)
    g = c5_chord()
    path = tmp_path / "c5chord.txt"
    path.write_text(C5_CHORD_TEXT)
    features = [
        (1, lambda: sigma(g)),
        (1, lambda: build_polynomial(g)),
        (1, lambda: pr_good(g, mask_of([0, 2, 3]))),
        (1, lambda: eval_partial(g, mask_of([0]), mask_of([2, 3]))),
        (1, lambda: detect_fully_regular(g)),
        (1, lambda: cli.main(["eval", str(path), "--good", "0,2,3"])),
        (2, lambda: delete_decompose(g, mask_of([4]))),
        (2, lambda: cli.main(["delete", str(path), "--set", "4"])),
    ]
    for expected, feature in features:
        passes.clear()
        feature()
        assert len(passes) == expected
    # the deletion's two passes: G, then G' over V minus S
    passes.clear()
    delete_decompose(g, mask_of([4]))
    assert passes == [None, mask_of([0, 1, 2, 3])]
    # eval_partial's one pass leaves out T's open neighbourhood, here N({0}) = {1, 4}
    passes.clear()
    eval_partial(g, mask_of([0]), mask_of([1, 2, 3]))
    assert passes == [mask_of([0, 2, 3])]
    # each command makes one pass over the whole graph: sigma is read off F, and
    # verify's other passes are its sampled events, over restricted universes
    for argv in (["count", str(path)], ["poly", str(path)], ["distribution", str(path)],
                 ["bench", "--n", "8"], ["verify", str(path)]):
        passes.clear()
        assert cli.main(argv) == 0
        assert passes.count(None) == 1, argv


def test_delete_decompose_builds_no_fraction(monkeypatch):
    # Δb is crosscheck.delta_b's, and P_G, P_G', n! R_S and n! U_S are stored
    # as integers, so the deletion builds no Fraction at all
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = delete_decompose(random_connected_graph(14, 0.2, seed=5), mask_of([3]))
    assert built == []
    assert all(type(c) is int for c in report.r_s_numer + report.u_s_numer)


def test_delete_decompose_heap_peak_is_that_of_sigma():
    # the deletion runs G's pass and then G''s, keeping only per-degree sums
    # between them, so its peak is that of one pass over G: at n = 22 (5,643
    # independent sets) about 1.0x sigma's
    g = random_connected_graph(22, 0.15, seed=2)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: delete_decompose(g, mask_of([0]))) <= 1.1 * peak(lambda: sigma(g))


def test_sigma_heap_peak_is_about_one_layer():
    # the pass builds each layer from its top block down and drops each
    # parent block once its children exist, and sigma lets go of each layer
    # before asking for the next, so at n = 24 (32,834 independent sets) the
    # heap peak is about 1.2x the footprint of the largest layer; holding two
    # whole layers read 2.3x
    g = random_connected_graph(24, 0.1, seed=1)
    tracemalloc.start()
    try:
        largest = max(iter_layers(g), key=len)
        footprint = tracemalloc.get_traced_memory()[0]
        del largest
        tracemalloc.reset_peak()
        sigma(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * footprint


def test_kept_layers_equal_a_fresh_run_set_for_set():
    # a yielded layer is complete when yielded and never changed after, so
    # layers kept to the end equal those read one at a time as they come
    g = random_connected_graph(18, 0.15, seed=4)
    kept = list(iter_layers(g))
    fresh = iter_layers(g)
    for layer in kept:
        assert layer == next(fresh)
        assert all(type(column) is tuple for column in (layer.sets, layer.nbhds, layer.counts))
        assert list(layer.sets) == sorted(layer.sets)
    assert next(fresh, None) is None


@pytest.mark.parametrize(
    "g, removed",
    [(cycle_graph(6), mask_of([0])), (random_connected_graph(12, 0.2, seed=7), mask_of([1, 4, 9]))],
    ids=["c6", "random12"],
)
def test_delete_decompose_runs_g_prime_in_g_labels(monkeypatch, g, removed):
    # G's pass ends before G''s starts, and G''s pass, over V minus S, yields
    # G's survivors set for set, in G's labels and G's order
    events, passes = [], []

    def logged(graph, universe=None):
        layers_ = []
        passes.append((graph, universe, layers_))
        events.append(("start", universe))
        for layer in iter_layers(graph, universe):
            layers_.append(layer.sets)
            yield layer
        events.append(("end", universe))

    monkeypatch.setattr(polynomial, "iter_layers", logged)
    report = delete_decompose(g, removed)
    remaining = g.full_mask & ~removed
    assert events == [("start", None), ("end", None), ("start", remaining), ("end", remaining)]
    [(graph, _, g_sets), (sub, _, sub_sets)] = passes
    assert graph is g and sub.n == g.n
    survivors = [tuple(mask for mask in sets if not mask & removed) for sets in g_sets]
    assert sub_sets == [sets for sets in survivors if sets]
    assert list(delta_b(g, removed)) == [mask for sets in sub_sets for mask in sets]


def test_delta_b_runs_the_deletion_then_one_pass_over_g(monkeypatch):
    # the deletion's two passes run no Δb recursion; delta_b runs them, then
    # its own pass over G
    passes = []

    def counted(g, universe=None):
        passes.append(universe)
        return iter_layers(g, universe)

    monkeypatch.setattr(polynomial, "iter_layers", counted)
    monkeypatch.setattr(crosscheck, "iter_layers", counted)
    deletion = [None, mask_of([1, 2, 3, 4, 5])]
    delete_decompose(cycle_graph(6), mask_of([0]))
    assert passes == deletion
    passes.clear()
    assert len(delta_b(cycle_graph(6), mask_of([0]))) == 13
    assert passes == [*deletion, None]
