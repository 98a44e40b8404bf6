"""Shared graph builders and session fixtures for the test suite."""

from __future__ import annotations

import signal
from collections import Counter

import pytest

from succorder import Graph, random_connected_graph


def graph_from_edges(n, edges):
    return Graph.from_edges(n, edges)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(m, n):
    return Graph.from_edges(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def c5_chord():
    """Five-cycle with the single chord 1-3."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])


def p2_plus_isolated():
    """Edge 0-1 plus the isolated vertex 2 (disconnected)."""
    return Graph.from_edges(3, [(0, 1)])


C5_CHORD_TEXT = "5 6\n0 1\n1 2\n2 3\n3 4\n4 0\n1 3\n"


def _atlas_graphs():
    nx = pytest.importorskip("networkx")
    out = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() < 1:
            continue
        n = G.number_of_nodes()
        assert sorted(G.nodes()) == list(range(n))
        out.append((Graph.from_edges(n, [tuple(e) for e in G.edges()]), nx.is_connected(G)))
    return out


@pytest.fixture(scope="session")
def connected_catalog():
    """Every connected graph on 1..7 vertices, one per isomorphism class."""
    graphs = [g for g, conn in _atlas_graphs() if conn]
    counts = Counter(g.n for g in graphs)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    return graphs


@pytest.fixture(scope="session")
def disconnected_catalog():
    """Every disconnected graph on 2..7 vertices, one per isomorphism class."""
    graphs = [g for g, conn in _atlas_graphs() if not conn]
    assert len(graphs) == 1253 - 996 - 1
    return graphs


@pytest.fixture(scope="session")
def random_corpus():
    """100 seeded random connected graphs at each of n = 8 and n = 9."""
    graphs = []
    for n in (8, 9):
        for i in range(100):
            density = 0.05 + 0.05 * (i % 9)
            graphs.append(random_connected_graph(n, density, seed=1000 * n + i))
    return graphs


#: Seconds a test body may run before it fails with TimeoutError, about 13x
#: the slowest test (sigma's heap-peak test, 3.7-4.6 s on a 2-vCPU Xeon), so
#: that a loop that never ends fails its test instead of hanging the run.
TEST_TIME_LIMIT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[name] = "PASS" if passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{status}  {name}")
