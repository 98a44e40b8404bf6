"""Exact enumeration of successive vertex orderings of finite simple graphs.

A successive ordering adds vertices one at a time so that every prefix
induces a connected subgraph.  The engine counts them exactly through an
alternating sum over independent sets, builds the associated ordering
polynomial and bad-vertex distribution, evaluates event probabilities,
decomposes the polynomial under vertex deletion, and cross-validates
everything against a brute-force oracle.

The oracle's names are exported too, but ``succorder.oracle`` (and with it
numpy) is imported only when one of them is first looked up, so importing
the package, or running any CLI command but ``verify``, stays numpy-free.
"""

from .counting import (
    PERMUTATION_SUM_MAX,
    BTable,
    SigmaResult,
    b_permutation_sum,
    compute_b_table,
    pr_bad_via_mobius,
    pr_good,
    sigma,
    weight,
)
from .errors import InternalCheckError, ParseError, VerificationError
from .graph import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    a_value,
    closed_neighborhood,
    induced_subgraph,
    is_connected,
    is_independent,
    iter_vertices,
    mask_of,
    open_neighborhood,
    parse_edge_list,
    vertices_of,
)
from .layers import Layer, independence_number, iter_layers
from .polynomial import (
    BadDistribution,
    DeletionReport,
    OrderingPolynomial,
    bad_distribution,
    build_polynomial,
    delete_decompose,
    eval_at_minus_one,
    eval_indicator,
    eval_partial,
)
from .randgraph import random_connected_graph
from .regular import (
    RegularityProfile,
    RegularityWitness,
    count_check,
    detect_fully_regular,
    sigma_closed_form,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {"ORACLE_MAX_N", "bad_vertices", "brute_distribution", "brute_event", "brute_sigma"}
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BTable",
    "BadDistribution",
    "DeletionReport",
    "Graph",
    "InternalCheckError",
    "Layer",
    "MAX_VERTICES",
    "ORACLE_MAX_N",
    "OrderingPolynomial",
    "PERMUTATION_SUM_MAX",
    "ParseError",
    "RegularityProfile",
    "RegularityWitness",
    "SigmaResult",
    "VerificationError",
    "VertexSet",
    "a_value",
    "b_permutation_sum",
    "bad_distribution",
    "bad_vertices",
    "brute_distribution",
    "brute_event",
    "brute_sigma",
    "build_polynomial",
    "closed_neighborhood",
    "compute_b_table",
    "count_check",
    "delete_decompose",
    "detect_fully_regular",
    "eval_at_minus_one",
    "eval_indicator",
    "eval_partial",
    "independence_number",
    "induced_subgraph",
    "is_connected",
    "is_independent",
    "iter_layers",
    "iter_vertices",
    "mask_of",
    "open_neighborhood",
    "parse_edge_list",
    "pr_bad_via_mobius",
    "pr_good",
    "random_connected_graph",
    "sigma",
    "sigma_closed_form",
    "vertices_of",
    "weight",
]
