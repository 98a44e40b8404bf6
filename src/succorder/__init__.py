"""Exact enumeration of successive vertex orderings of finite simple graphs.

A successive ordering adds vertices one at a time so that every prefix
induces a connected subgraph.  The engine counts them exactly through an
alternating sum over independent sets, builds the associated ordering
polynomial and bad-vertex distribution, evaluates event probabilities,
decomposes the polynomial under vertex deletion, and cross-validates
everything against an independent oracle.

``import succorder`` loads no submodule.  Every public name is listed in
``_EXPORTS`` under the submodule that defines it, and the module
``__getattr__`` (PEP 562) imports that submodule the first time the name is
looked up.  So a program pays only for the modules it uses: the CLI's
``count`` never compiles the polynomial or regularity code, and only the
oracle's names (and ``verify``) load the oracle.
"""

__version__ = "0.1.0"

#: Public names by the submodule that defines them.
_EXPORTS = {
    "counting": (
        "PERMUTATION_SUM_MAX", "BTable", "SigmaResult", "b_permutation_sum", "compute_b_table",
        "eval_partial", "pr_bad_via_mobius", "pr_good", "sigma", "weight",
    ),
    "errors": ("InternalCheckError", "ParseError", "VerificationError"),
    "graph": (
        "MAX_VERTICES", "Graph", "VertexSet", "a_value", "closed_neighborhood", "induced_subgraph",
        "is_connected", "is_independent", "iter_vertices", "mask_of", "open_neighborhood",
        "parse_edge_list", "vertices_of",
    ),
    "layers": ("Layer", "independence_number", "iter_layers"),
    "oracle": ("ORACLE_MAX_N", "bad_vertices", "brute_distribution", "brute_event", "brute_sigma"),
    "polynomial": (
        "BadDistribution", "DeletionReport", "OrderingPolynomial", "bad_distribution",
        "build_polynomial", "delete_decompose", "eval_at_minus_one", "eval_indicator",
    ),
    "randgraph": ("random_connected_graph",),
    "regular": (
        "RegularityProfile", "RegularityWitness", "count_check", "detect_fully_regular",
        "sigma_closed_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows up in ``-X importtime``;
    # it binds the submodule as a global of this package
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
