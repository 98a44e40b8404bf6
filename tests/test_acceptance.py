"""Acceptance suite: every exit criterion, at its stated tolerance.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.  All comparisons are exact; the only tolerances anywhere are the
wall-clock budgets.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from succorder import (
    RegularityProfile,
    RegularityWitness,
    a_value,
    bad_distribution,
    brute_distribution,
    brute_event,
    brute_sigma,
    b_permutation_sum,
    build_polynomial,
    compute_b_table,
    count_check,
    delete_decompose,
    detect_fully_regular,
    eval_at_minus_one,
    eval_indicator,
    eval_partial,
    is_connected,
    mask_of,
    pr_bad_via_mobius,
    pr_good,
    random_connected_graph,
    sigma,
    sigma_closed_form,
    weight,
)

from conftest import (
    c5_chord,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    p2_plus_isolated,
    path_graph,
    record_acceptance,
    star_graph,
)

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        record_acceptance(name, False)
        raise
    record_acceptance(name, True)


def test_1_worked_example_exact_and_fast():
    with criterion("1 worked example: sigma=60, sigma'=1/2, full b-table, <1ms"):
        g = c5_chord()
        expected = {
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
        table = compute_b_table(g)
        assert len(table) == len(expected)
        for mask, (a_exp, b_exp) in expected.items():
            assert a_value(g, mask) == a_exp
            assert table[mask] == b_exp

        result = sigma(g)
        assert result.sigma == 60
        assert result.sigma_prime == F(1, 2)

        best = min(
            _timed(lambda: sigma(g)) for _ in range(9)
        )
        assert best < 0.001, f"count took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_2_sigma_matches_oracle_on_catalog_and_random(connected_catalog, random_corpus):
    with criterion("2 sigma == brute force: all connected n<=7 plus 100 random at n=8 and n=9"):
        start = time.perf_counter()
        for g in connected_catalog:
            assert sigma(g).sigma == brute_sigma(g), g
        for g in random_corpus:
            assert sigma(g).sigma == brute_sigma(g), g
        assert time.perf_counter() - start < 300


def test_3_distribution_matches_oracle_on_same_corpus(connected_catalog, random_corpus):
    with criterion("3 bad-vertex distribution == brute force on the same corpus"):
        assert bad_distribution(build_polynomial(path_graph(3))).counts == (4, 2, 0, 0)
        assert bad_distribution(build_polynomial(c5_chord())).counts == (60, 60, 0, 0, 0, 0)
        start = time.perf_counter()
        for g in connected_catalog:
            assert bad_distribution(build_polynomial(g)).counts == brute_distribution(g).counts, g
        for g in random_corpus:
            assert bad_distribution(build_polynomial(g)).counts == brute_distribution(g).counts, g
        assert time.perf_counter() - start < 300


DUAL_CORPUS = [
    graph_from_edges(1, []),
    path_graph(2),
    path_graph(3),
    path_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(4),
    star_graph(4),
    c5_chord(),
    complete_bipartite(2, 3),
    p2_plus_isolated(),
    cycle_graph(6),
    complete_bipartite(3, 3),
    graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]),
    graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]),
]


def test_4_dual_formula_identities_exhaustive_small():
    with criterion("4 dual routes agree exhaustively on n<=6: Moebius, indicator, partial, b-sum"):
        for g in DUAL_CORPUS:
            full = g.full_mask
            table = compute_b_table(g)
            for mask, b_val in table.items():
                assert pr_bad_via_mobius(g, mask) == weight(g, mask, table)
                assert b_permutation_sum(g, mask) == b_val
            for subset in range(1 << g.n):
                assert eval_indicator(g, subset) == pr_good(g, subset)
            for bad in range(1 << g.n):
                for good in range(1 << g.n):
                    assert eval_partial(g, bad, good) == brute_event(g, bad, good & ~bad & full)


def test_5_fully_regular_reduction():
    with criterion("5 fully regular reduction: C5, complete, balanced bipartite; sigma(C5)=40, sigma(K22)=16"):
        regular_cases = [cycle_graph(5)]
        regular_cases += [complete_graph(n) for n in range(1, 9)]
        regular_cases += [complete_bipartite(m, m) for m in (1, 2, 3, 4)]
        for g in regular_cases:
            profile = detect_fully_regular(g)
            assert isinstance(profile, RegularityProfile), g
            assert count_check(g, profile), g
            closed = sigma_closed_form(profile)
            assert closed == sigma(g).sigma, g
            if g.n <= 10:
                assert closed == brute_sigma(g), g

        # unequal sides are provably not fully regular: the two kinds of
        # singleton leave different numbers of outside vertices
        for m in range(1, 5):
            for n in range(m + 1, 10 - m):
                g = complete_bipartite(m, n)
                verdict = detect_fully_regular(g)
                assert isinstance(verdict, RegularityWitness), (m, n)
                if g.n <= 9:
                    assert sigma(g).sigma == brute_sigma(g), (m, n)

        assert sigma_closed_form(detect_fully_regular(cycle_graph(5))) == 40
        assert sigma_closed_form(detect_fully_regular(complete_bipartite(2, 2))) == 16


def test_6_deletion_identity_on_random_pairs():
    with criterion("6 deletion identity and delta-b dual computation on 100 random pairs, n<=12"):
        import random

        rng = random.Random(20260810)
        for i in range(100):
            n = rng.randrange(4, 13)
            g = random_connected_graph(n, 0.1 + 0.04 * (i % 8), seed=7000 + i)
            removed = rng.getrandbits(n) & (g.full_mask >> 1)  # always proper
            report = delete_decompose(g, removed)
            assert report.delta_b[0] == 0


def test_7_performance_twenty_vertices(tmp_path):
    with criterion("7 n=20 density-0.2 count completes in <=5s with self-consistent outputs"):
        g = random_connected_graph(20, 0.2, seed=42)
        lines = [f"{g.n} {g.edge_count}"] + [f"{u} {v}" for u, v in g.edges()]
        path = tmp_path / "n20.txt"
        path.write_text("\n".join(lines) + "\n")

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "succorder", "count", str(path), "--json"],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed <= 5.0, f"count took {elapsed:.2f}s"
        payload = json.loads(proc.stdout)["payload"]
        assert payload["sigma"].isdigit()

        poly = build_polynomial(g)
        dist = bad_distribution(poly)
        result = eval_at_minus_one(poly)
        assert int(payload["sigma"]) == result.sigma == dist.counts[0] == sigma(g).sigma
        assert sum(dist.counts) == math.factorial(20)


def test_8_degenerate_inputs(disconnected_catalog):
    with criterion("8 degenerate inputs: disconnected -> 0 (vs oracle), K1 -> 1, complete -> n!"):
        for g in disconnected_catalog:
            assert not is_connected(g)
            assert sigma(g).sigma == 0
            assert brute_sigma(g) == 0
        assert sigma(graph_from_edges(1, [])).sigma == 1
        for n in range(2, 9):
            assert sigma(complete_graph(n)).sigma == math.factorial(n)
