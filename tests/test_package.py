"""The package's public names, including the oracle's lazily imported ones."""

import subprocess
import sys

import pytest

import succorder

PUBLIC_NAMES = {
    "BTable", "BadDistribution", "DeletionReport", "Graph", "InternalCheckError", "Layer",
    "MAX_VERTICES", "ORACLE_MAX_N", "OrderingPolynomial", "PERMUTATION_SUM_MAX", "ParseError",
    "RegularityProfile", "RegularityWitness", "SigmaResult", "VerificationError", "VertexSet",
    "a_value", "b_permutation_sum", "bad_distribution", "bad_vertices", "brute_distribution",
    "brute_event", "brute_sigma", "build_polynomial", "closed_neighborhood", "compute_b_table",
    "count_check", "delete_decompose", "detect_fully_regular", "eval_at_minus_one",
    "eval_indicator", "eval_partial", "independence_number", "induced_subgraph", "is_connected",
    "is_independent", "iter_layers", "iter_vertices", "mask_of", "open_neighborhood",
    "parse_edge_list", "pr_bad_via_mobius", "pr_good", "random_connected_graph", "sigma",
    "sigma_closed_form", "vertices_of", "weight",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 48
    assert set(succorder.__all__) == PUBLIC_NAMES
    assert len(succorder.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in succorder.__all__:
        assert getattr(succorder, name) is not None, name


def test_oracle_names_import_from_the_package():
    from succorder import ORACLE_MAX_N, brute_sigma
    from succorder.oracle import ORACLE_MAX_N as oracle_cap
    from succorder.oracle import brute_sigma as oracle_brute_sigma

    assert ORACLE_MAX_N == oracle_cap == 10
    assert brute_sigma is oracle_brute_sigma


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        succorder.no_such_name  # noqa: B018
    assert not hasattr(succorder, "oracle_max_n")


def test_bare_import_loads_no_submodule():
    code = "import sys, succorder; print(*sorted(m for m in sys.modules if 'succorder' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["succorder"]


def test_eval_partial_is_one_function_under_three_names():
    # it is defined in counting; polynomial re-exports it
    from succorder import counting, polynomial

    assert succorder.eval_partial is counting.eval_partial is polynomial.eval_partial


def test_names_and_submodules_resolve_on_first_lookup():
    assert succorder.graph.iter_vertices is succorder.iter_vertices
    assert succorder.polynomial.DeletionReport is succorder.DeletionReport
    assert {"Graph", "sigma", "brute_sigma"} <= set(dir(succorder))
