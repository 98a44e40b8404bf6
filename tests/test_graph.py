import subprocess
import sys
import tracemalloc

import pytest

import succorder.graph
from succorder import (
    Graph,
    ParseError,
    a_value,
    b_permutation_sum,
    closed_neighborhood,
    eval_indicator,
    eval_partial,
    induced_subgraph,
    is_connected,
    is_independent,
    iter_layers,
    mask_of,
    open_neighborhood,
    parse_edge_list,
    pr_bad_via_mobius,
    pr_good,
    vertices_of,
)

from conftest import C5_CHORD_TEXT, c5_chord, complete_graph, p2_plus_isolated, path_graph


class TestParse:
    def test_c5_with_chord(self):
        g = parse_edge_list(C5_CHORD_TEXT)
        assert g == c5_chord()
        assert g.edge_count == 6

    def test_single_vertex(self):
        g = parse_edge_list("1 0\n")
        assert g.n == 1
        assert g.adj == (0,)

    def test_duplicate_edge_collapses(self):
        g = parse_edge_list("3 2\n0 1\n1 0\n")
        assert g == p2_plus_isolated()
        assert g.edge_count == 1

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n3 2\n# edge comment\n0 1\n\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_crlf_accepted(self):
        assert parse_edge_list("3 2\r\n0 1\r\n1 2\r\n") == path_graph(3)

    def test_cr_accepted(self):
        assert parse_edge_list("3 2\r0 1\r\r1 2") == path_graph(3)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("2 1\r\n\r\n0 5\r\n", "line 3"),
            ("2 1\r\r0 5\r", "line 3"),
            ("2 1\n\r\n0 5", "line 3"),
            # str.splitlines breaks lines at \v and \x85 too, so neither joins two fields
            ("2 1\n0\v1\n", "line 2"),
            ("2 1\n0 1\x850 1\n", "line 3"),
        ],
    )
    def test_line_numbers_follow_every_line_break(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_edge_list(text)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 4096])
    @pytest.mark.parametrize(
        "text",
        ["# c\r\n3 2\r0 1\r\n\x85\r\r1 2\v", "3 2\r0 1\r\r1 2", "\n\n3 1\n0 2"],
        ids=["mixed-breaks", "cr-only", "lf-only"],
    )
    def test_blocks_split_lines_as_splitlines_does(self, monkeypatch, block, text):
        monkeypatch.setattr(succorder.graph, "_BLOCK", block)
        assert list(succorder.graph._lines(text)) == text.splitlines()

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_heap_peak_stays_below_the_text_length(self, eol):
        # 10^5 copies of one duplicate edge: a list of lines or of edge tuples
        # would take about 30 times the text
        text = "2 100000" + eol + ("0 1" + eol) * 100_000
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == path_graph(2)
        assert peak < len(text)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("2 1\n0 5\n", "line 2"),
            ("2 1\n1 1\n", "self-loop"),
            ("0 0\n", "line 1"),
            ("65 0\n", "line 1"),
            ("2 1\nnope\n", "line 2"),
            ("2 x\n", "line 1"),
            ("2 2\n0 1\n", "found only 1"),
            ("2 1\n0 1\n0 1\n", "line 3"),
            ("", "empty input"),
            ("1_1 1\n0 1\n", "line 1"),
            ("+2 1\n0 1\n", "line 1"),
            ("2 1\n0 \u0661\n", "line 2"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_edge_list(text)


class TestGraphInvariants:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError, match="mentions vertices"):
            Graph(2, (0b100, 0b000))

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph.from_edges(65, [])

    def test_edges_roundtrip(self):
        g = c5_chord()
        assert Graph.from_edges(g.n, g.edges()) == g


class TestNeighborhoods:
    def test_open_neighborhood_of_chord_endpoint(self):
        # vertex 1 carries the chord, so it has three neighbours
        g = c5_chord()
        assert vertices_of(open_neighborhood(g, mask_of([1]))) == [0, 2, 3]

    def test_open_neighborhood_empty(self):
        assert open_neighborhood(c5_chord(), 0) == 0

    def test_open_neighborhood_may_contain_members(self):
        g = path_graph(3)
        assert open_neighborhood(g, mask_of([0, 2])) == mask_of([1])
        assert open_neighborhood(g, mask_of([0, 1])) == mask_of([0, 1, 2])


class TestAValue:
    def test_c5_chord_singletons(self):
        g = c5_chord()
        assert a_value(g, mask_of([0])) == 2
        assert a_value(g, mask_of([1])) == 1

    def test_c5_chord_pair(self):
        assert a_value(c5_chord(), mask_of([0, 2])) == 0

    def test_empty_set(self):
        for g in (c5_chord(), path_graph(4), complete_graph(3)):
            assert a_value(g, 0) == g.n


class TestIndependence:
    def test_c5_chord_examples(self):
        g = c5_chord()
        assert is_independent(g, mask_of([0, 2]))
        assert not is_independent(g, mask_of([1, 3]))  # the chord
        assert is_independent(g, 0)

    def test_singletons_always_independent(self):
        g = complete_graph(5)
        for v in range(5):
            assert is_independent(g, 1 << v)


class TestConnectivity:
    def test_c5_chord_connected(self):
        assert is_connected(c5_chord())

    def test_p2_plus_isolated_disconnected(self):
        assert not is_connected(p2_plus_isolated())

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1, (0,)))


class TestInducedSubgraph:
    def test_relabels_and_keeps_edges(self):
        g = c5_chord()
        sub, old = induced_subgraph(g, mask_of([1, 2, 3]))
        assert old == (1, 2, 3)
        assert sub == Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_empty_and_foreign(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            induced_subgraph(g, 0)
        with pytest.raises(ValueError):
            induced_subgraph(g, 1 << 5)


def layers_within(g, universe):
    return list(iter_layers(g, universe))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(layers_within, id="iter_layers"),
        pr_good,
        open_neighborhood,
        closed_neighborhood,
        a_value,
        is_independent,
        b_permutation_sum,
        pr_bad_via_mobius,
        eval_indicator,
        pytest.param(lambda g, mask: eval_partial(g, mask, 0), id="eval_partial-bad"),
        pytest.param(lambda g, mask: eval_partial(g, 0, mask), id="eval_partial-good"),
    ],
    ids=lambda call: call.__name__,
)
def test_vertex_mask_outside_the_graph_is_a_value_error(call):
    # the pass names its universe; every other call names a vertex set, so a
    # foreign event reaches the event core's own check, not the pass's
    subject = "universe" if call is layers_within else "vertex set"
    with pytest.raises(ValueError, match=f"^{subject} mentions vertices outside the graph$"):
        call(c5_chord(), 1 << 7)


# a subprocess with a timeout, so a mask that never empties fails instead of hanging
_NEGATIVE_MASK = """
from succorder.graph import iter_vertices, vertices_of
try:
    {call}
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("call", ["list(iter_vertices(-1))", "vertices_of(-6)"])
def test_negative_mask_is_a_value_error(call):
    proc = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_MASK.format(call=call)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.stdout.startswith("vertex mask must be nonnegative, got -"), proc.stderr


def test_negative_mask_is_a_value_error_in_process():
    # ``next`` takes one step, so a check that let the mask through could not hang here
    with pytest.raises(ValueError, match="vertex mask must be nonnegative, got -1"):
        next(succorder.graph.iter_vertices(-1))
