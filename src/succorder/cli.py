"""Command-line front end.

Commands: count | poly | distribution | eval | delete | regular | verify |
bench.  Results go to stdout, either human-readable or as one JSON
document per run (--json); warnings and wall-clock timing go to stderr.
Big integers are serialized as decimal strings and rationals as
"numerator/denominator" in lowest terms, so machine consumers never lose
precision.

This module imports only ``errors`` and ``graph`` at load time; each
command handler imports the engine modules it calls when it runs.  So
``count`` loads ``layers`` and ``counting`` and nothing else of the
package, ``poly``, ``eval`` and ``delete`` add ``polynomial``, ``regular``
loads ``regular``, ``bench`` adds ``randgraph``, and only ``verify``
imports the brute-force oracle, and with it numpy.

The stderr ``elapsed: <x> ms`` line times only what follows argument
parsing: reading the input, the handler's engine imports (about 6 ms for
``count`` when no ``__pycache__`` exists), computing and printing.  It
leaves out interpreter start-up and the imports made before parsing,
which are most of the wall time of a run on a small graph.

Exit codes: 0 success, 1 input error, 2 internal assertion failure,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .errors import InternalCheckError, ParseError, VerificationError, require_internal
from .graph import Graph, _decimal, is_connected, mask_of, parse_edge_list, vertices_of

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3


def _input_graph(args: argparse.Namespace) -> Graph:
    """The edge-list file named on the command line, or bench's seeded graph."""
    if args.command == "bench":
        from .randgraph import random_connected_graph

        return random_connected_graph(args.n, args.density, args.seed)
    with open(args.path, encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _density(text: str) -> float:
    """Value of an ASCII decimal such as ``0.25``; ``float`` alone would also take ``0_1``."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def _parse_vertex_list(g: Graph, text: str | None) -> int:
    if not text:
        return 0
    vertices = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        v = _decimal(chunk)
        if v >= g.n:
            raise ValueError(f"vertex {v} out of range for a graph on {g.n} vertices")
        vertices.append(v)
    return mask_of(vertices)


def _cmd_count(args: argparse.Namespace, g: Graph) -> dict:
    from .counting import sigma

    result = sigma(g)
    return {"sigma": str(result.sigma), "sigma_prime": str(result.sigma_prime)}


def _cmd_poly(args: argparse.Namespace, g: Graph) -> dict:
    from .polynomial import bad_distribution, build_polynomial, eval_at_minus_one

    poly = build_polynomial(g)
    dist = bad_distribution(poly)
    result = eval_at_minus_one(poly)
    require_internal(result.sigma == dist.counts[0], "F(-1) differs from the zero-bad count")
    return {
        "p_coeffs": [str(c) for c in poly.p_coeffs],
        "f_coeffs": [str(c) for c in poly.f_coeffs],
        "A": [str(c) for c in dist.counts],
        "sigma": str(result.sigma),
    }


def _cmd_eval(args: argparse.Namespace, g: Graph) -> dict:
    from .polynomial import eval_partial

    good = _parse_vertex_list(g, args.good)
    bad = _parse_vertex_list(g, args.bad)
    return {
        "good": vertices_of(good & ~bad),
        "bad": vertices_of(bad),
        "probability": str(eval_partial(g, bad, good)),
    }


def _cmd_delete(args: argparse.Namespace, g: Graph) -> dict:
    from .polynomial import delete_decompose

    removed = _parse_vertex_list(g, args.set)
    report = delete_decompose(g, removed)
    return {
        "set": vertices_of(removed),
        "p_g": [str(c) for c in report.p_g.p_coeffs],
        "p_gprime": [str(c) for c in report.p_gprime.p_coeffs],
        "r_s": [str(c) for c in report.r_s],
        "u_s": [str(c) for c in report.u_s],
    }


def _cmd_regular(args: argparse.Namespace, g: Graph) -> dict:
    from .regular import RegularityProfile, detect_fully_regular

    verdict = detect_fully_regular(g)
    if isinstance(verdict, RegularityProfile):
        return {
            "fully_regular": True,
            "alpha": verdict.alpha,
            "a": list(verdict.a_seq),
        }
    return {
        "fully_regular": False,
        "witness": {
            "size": verdict.size,
            "set_a": vertices_of(verdict.first_set),
            "a_a": verdict.first_value,
            "set_b": vertices_of(verdict.other_set),
            "a_b": verdict.other_value,
        },
    }


def _cmd_verify(args: argparse.Namespace, g: Graph) -> dict:
    import random

    from .counting import pr_good, sigma
    from .oracle import ORACLE_MAX_N, brute_distribution, brute_event, brute_sigma
    from .polynomial import bad_distribution, build_polynomial, eval_partial

    limit = ORACLE_MAX_N if args.max_n is None else min(args.max_n, ORACLE_MAX_N)
    if g.n > limit:
        raise ValueError(f"verify is limited to n <= {limit}, got n = {g.n}")

    engine_sigma = sigma(g).sigma
    oracle_sigma = brute_sigma(g)
    if engine_sigma != oracle_sigma:
        raise VerificationError(f"sigma: engine {engine_sigma} != oracle {oracle_sigma}")

    engine_dist = bad_distribution(build_polynomial(g)).counts
    oracle_dist = brute_distribution(g).counts
    if engine_dist != oracle_dist:
        raise VerificationError(
            f"distribution: engine {engine_dist} != oracle {oracle_dist}"
        )

    rng = random.Random(args.seed)
    samples = 0
    for _ in range(8):
        universe = rng.getrandbits(g.n)
        engine_p = pr_good(g, universe)
        oracle_p = brute_event(g, 0, universe)
        if engine_p != oracle_p:
            raise VerificationError(
                f"Pr(G_U) for U={vertices_of(universe)}: engine {engine_p} != oracle {oracle_p}"
            )
        samples += 1
    for _ in range(8):
        bad = rng.getrandbits(g.n)
        good = rng.getrandbits(g.n) & ~bad
        engine_p = eval_partial(g, bad, good)
        oracle_p = brute_event(g, bad, good)
        if engine_p != oracle_p:
            raise VerificationError(
                f"Pr(B_T ∩ G_S) for T={vertices_of(bad)}, S={vertices_of(good)}: "
                f"engine {engine_p} != oracle {oracle_p}"
            )
        samples += 1

    return {
        "sigma": str(engine_sigma),
        "checks": {"sigma": "ok", "distribution": "ok", "events": "ok"},
        "events_sampled": samples,
    }


def _cmd_bench(args: argparse.Namespace, g: Graph) -> dict:
    from .counting import sigma
    from .polynomial import bad_distribution, build_polynomial, eval_at_minus_one

    start = time.perf_counter()
    result = sigma(g)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    poly = build_polynomial(g)
    dist = bad_distribution(poly)
    require_internal(
        eval_at_minus_one(poly).sigma == result.sigma == dist.counts[0],
        "count, polynomial value and zero-bad count disagree",
    )
    return {
        "n": args.n,
        "density": args.density,
        "seed": args.seed,
        "sigma": str(result.sigma),
        "sigma_prime": str(result.sigma_prime),
        "elapsed_ms": round(elapsed_ms, 3),
        "self_check": "ok",
    }


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    print(f"command: {doc['command']}")
    info = doc["input"]
    print(f"n: {info['n']}  edges: {info['edges']}  connected: {info['connected']}")
    for key, value in doc["payload"].items():
        if isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        elif isinstance(value, dict):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{key}: {value}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="succorder",
        description="Exact counting of successive vertex orderings of simple graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    def file_cmd(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path", help="edge-list file ('n m' header, then 'u v' lines)")
        p.set_defaults(handler=handler)
        return p

    file_cmd("count", _cmd_count, "count the successive vertex orderings")
    file_cmd("poly", _cmd_poly, "ordering polynomial coefficients")
    file_cmd("distribution", _cmd_poly, "orderings by bad-vertex count")

    p_eval = file_cmd("eval", _cmd_eval, "event probabilities over vertex sets")
    p_eval.add_argument("--good", metavar="LIST", help="comma-separated vertices required good")
    p_eval.add_argument("--bad", metavar="LIST", help="comma-separated vertices required bad")

    p_delete = file_cmd("delete", _cmd_delete, "vertex-deletion decomposition")
    p_delete.add_argument("--set", metavar="LIST", help="comma-separated vertices to delete")

    file_cmd("regular", _cmd_regular, "fully-regular profile or witness")

    p_verify = file_cmd("verify", _cmd_verify, "compare the engine against the brute-force oracle")
    p_verify.add_argument("--max-n", type=_decimal, help="size guard (default: the oracle's cap)")
    p_verify.add_argument("--seed", type=_decimal, default=0, help="seed for sampled events")

    p_bench = sub.add_parser("bench", parents=[common], help="time the engine on a random graph")
    p_bench.add_argument("--n", type=_decimal, default=20, help="vertex count")
    p_bench.add_argument("--density", type=_density, default=0.2, help="extra-edge density")
    p_bench.add_argument("--seed", type=_decimal, default=0, help="graph seed")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        g = _input_graph(args)
        connected = is_connected(g)
        if not connected:
            print("warning: graph is disconnected; it has no successive ordering", file=sys.stderr)
        payload = args.handler(args, g)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    doc = {
        "command": args.command,
        "input": {"n": g.n, "edges": g.edge_count, "connected": connected},
        "payload": payload,
    }
    _emit(doc, args.json)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed: {elapsed_ms:.3f} ms", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
