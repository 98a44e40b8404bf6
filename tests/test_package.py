"""The package's public names, including the oracle's lazily imported ones."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import succorder

PUBLIC_NAMES = {
    "BTable", "BadDistribution", "DeletionReport", "Graph", "InternalCheckError", "Layer",
    "MAX_VERTICES", "ORACLE_MAX_N", "OrderingPolynomial", "PERMUTATION_SUM_MAX", "ParseError",
    "RegularityProfile", "RegularityWitness", "SigmaResult", "VerificationError", "VertexSet",
    "a_value", "b_permutation_sum", "bad_distribution", "bad_vertices", "brute_distribution",
    "brute_event", "brute_sigma", "build_polynomial", "closed_neighborhood", "compute_b_table",
    "count_check", "delete_decompose", "delta_b", "detect_fully_regular", "eval_at_minus_one",
    "eval_indicator", "eval_partial", "independence_number", "induced_subgraph", "is_connected",
    "is_independent", "iter_layers", "iter_vertices", "mask_of", "open_neighborhood",
    "parse_edge_list", "pr_bad_via_mobius", "pr_good", "random_connected_graph", "sigma",
    "sigma_closed_form", "vertices_of", "weight",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 49
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
    # each is defined in counting; polynomial imports it back
    from succorder import counting, polynomial

    for name in ("eval_partial", "build_polynomial", "eval_at_minus_one", "OrderingPolynomial"):
        assert getattr(succorder, name) is getattr(counting, name) is getattr(polynomial, name)


def test_names_and_submodules_resolve_on_first_lookup():
    assert succorder.graph.iter_vertices is succorder.iter_vertices
    assert succorder.polynomial.DeletionReport is succorder.DeletionReport
    assert {"Graph", "sigma", "brute_sigma"} <= set(dir(succorder))


def _layer_functions():
    """``LAYER_FUNCTIONS`` of ``perfbench/tracing.py``, read from its source, not imported."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYER_FUNCTIONS")


def test_the_traced_names_resolve():
    # the benchmark's tracer wraps each succorder.<module>.<name> it lists, so
    # moving a function must leave its old path resolving
    names = _layer_functions()
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"succorder.{module}"), attr)), name
    for name in succorder.__all__:
        assert getattr(succorder, name) is not None, name


def test_cross_check_routes_keep_their_old_paths():
    # only counting.compute_b_table, the old path the benchmark's tracer wraps
    from succorder import counting, crosscheck, graph
    from succorder.counting import compute_b_table

    assert counting._CROSSCHECK == ("compute_b_table",)
    assert compute_b_table is crosscheck.compute_b_table is succorder.compute_b_table
    for module, name in ((counting, "weight"), (graph, "induced_subgraph"), (counting, "no_such_name")):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


#: Top-level imports kept although their module does not use them: documented re-exports.
REEXPORTS = {("polynomial", "eval_partial")}


def _unused_imports(path):
    """Names a module's top-level imports bind that no other line of it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_has_an_unused_import():
    package = Path(succorder.__file__).resolve().parent
    unused = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in _unused_imports(path)
    }
    assert unused == REEXPORTS
