import sys
from fractions import Fraction

import pytest

from succorder import cli, polynomial
from succorder import (
    build_polynomial,
    delete_decompose,
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
    ]
    for expected, feature in features:
        passes.clear()
        feature()
        assert len(passes) == expected


def test_delete_decompose_builds_one_fraction_per_delta_b_entry(monkeypatch):
    # one reduced Fraction per delta_b entry; the rest are per degree (P_G,
    # P_G', R_S and U_S), never per set
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(polynomial, "Fraction", counted)
    g = random_connected_graph(14, 0.2, seed=5)
    report = delete_decompose(g, mask_of([3]))
    layers = len(report.p_g.p_coeffs)
    assert len(built) <= len(report.delta_b) + 8 * layers


@pytest.mark.parametrize(
    "g, removed",
    [(cycle_graph(6), mask_of([0])), (random_connected_graph(12, 0.2, seed=7), mask_of([1, 4, 9]))],
    ids=["c6", "random12"],
)
def test_delete_decompose_runs_its_two_passes_in_lockstep(monkeypatch, g, removed):
    scaled_layers = polynomial._scaled_layers
    drawn = []

    def logged(graph):
        which = "G" if graph is g else "G'"
        for layer, cur in scaled_layers(graph):
            drawn.append((which, layer.k))
            yield layer, cur

    monkeypatch.setattr(polynomial, "_scaled_layers", logged)
    delete_decompose(g, removed)
    sub_layers = [k for which, k in drawn if which == "G'"]
    assert sub_layers == list(range(len(sub_layers)))
    for k in sub_layers:
        if ("G", k + 1) in drawn:
            assert drawn.index(("G'", k)) < drawn.index(("G", k + 1))
