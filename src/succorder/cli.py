"""Command-line front end.

Commands: count | poly | distribution | eval | delete | regular | verify |
bench.  Results go to stdout, either human-readable or as one JSON
document per run (--json); warnings and wall-clock timing go to stderr.
Big integers are serialized as decimal strings and rationals as
"numerator/denominator" in lowest terms, so machine consumers never lose
precision.

Arguments are parsed with one table, ``_COMMANDS``: per command, the
handler, whether it reads an edge-list path, and its options with a
converter and a default.  The same table prints ``-h``.  Options go on
either side of the path, as ``--opt VALUE`` or ``--opt=VALUE``, and are
spelled in full.  argparse is not used: importing it, with gettext and
locale, and building its parser cost about 6 ms a process.

This module imports only ``errors`` and ``graph`` at load time; each
command handler imports the engine modules it calls when it runs.  So
``count`` and ``eval`` load ``layers`` and ``counting`` and nothing else
of the package, ``poly``, ``distribution`` and ``delete`` add
``polynomial``, ``regular`` loads ``layers`` and ``regular``, ``bench``
adds ``polynomial`` and ``randgraph``, and only ``verify`` imports the
oracle.

The stderr ``elapsed: <x> ms`` line times only what follows argument
parsing: reading the input, the handler's engine imports (about 6 ms for
``count`` when no ``__pycache__`` exists), computing and printing.  It
leaves out interpreter start-up and the imports made before parsing,
which are most of the wall time of a run on a small graph.

Exit codes: 0 success, 1 input error, 2 internal assertion failure,
3 verification mismatch.
"""

from __future__ import annotations

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


def _input_graph(opts: dict) -> Graph:
    """The edge-list file named on the command line, or bench's seeded graph."""
    if opts["command"] == "bench":
        from .randgraph import random_connected_graph

        return random_connected_graph(opts["n"], opts["density"], opts["seed"])
    with open(opts["path"], encoding="utf-8") as handle:
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


def _cmd_count(opts: dict, g: Graph) -> dict:
    from .counting import sigma

    result = sigma(g)
    return {"sigma": str(result.sigma), "sigma_prime": str(result.sigma_prime)}


def _cmd_poly(opts: dict, g: Graph) -> dict:
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


def _cmd_eval(opts: dict, g: Graph) -> dict:
    from .counting import eval_partial

    good = _parse_vertex_list(g, opts["good"])
    bad = _parse_vertex_list(g, opts["bad"])
    return {
        "good": vertices_of(good & ~bad),
        "bad": vertices_of(bad),
        "probability": str(eval_partial(g, bad, good)),
    }


def _cmd_delete(opts: dict, g: Graph) -> dict:
    from .polynomial import delete_decompose

    removed = _parse_vertex_list(g, opts["set"])
    report = delete_decompose(g, removed)
    return {
        "set": vertices_of(removed),
        "p_g": [str(c) for c in report.p_g.p_coeffs],
        "p_gprime": [str(c) for c in report.p_gprime.p_coeffs],
        "r_s": [str(c) for c in report.r_s],
        "u_s": [str(c) for c in report.u_s],
    }


def _cmd_regular(opts: dict, g: Graph) -> dict:
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


def _cmd_verify(opts: dict, g: Graph) -> dict:
    import random

    from .counting import eval_partial, pr_good, sigma
    from .oracle import ORACLE_MAX_N, brute_distribution, brute_event, brute_sigma
    from .polynomial import bad_distribution, build_polynomial

    limit = ORACLE_MAX_N if opts["max_n"] is None else min(opts["max_n"], ORACLE_MAX_N)
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

    rng = random.Random(opts["seed"])
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


def _cmd_bench(opts: dict, g: Graph) -> dict:
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
        "n": opts["n"],
        "density": opts["density"],
        "seed": opts["seed"],
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


_DESCRIPTION = "Exact counting of successive vertex orderings of simple graphs."
_PATH_HELP = "edge-list file ('n m' header, then 'u v' lines)"
_JSON = {"--json": (None, False, None, "emit one JSON document")}

#: Command name -> (handler, whether it reads an edge-list path, help, options).
#: Each option maps to (converter, default, metavar, help); a converter of
#: None makes a flag that takes no value and defaults to False.  The table
#: both parses argv and prints ``-h``.
_COMMANDS = {
    "count": (_cmd_count, True, "count the successive vertex orderings", _JSON),
    "poly": (_cmd_poly, True, "ordering polynomial coefficients", _JSON),
    "distribution": (_cmd_poly, True, "orderings by bad-vertex count", _JSON),
    "eval": (_cmd_eval, True, "event probabilities over vertex sets", {
        **_JSON,
        "--good": (str, None, "LIST", "comma-separated vertices required good"),
        "--bad": (str, None, "LIST", "comma-separated vertices required bad"),
    }),
    "delete": (_cmd_delete, True, "vertex-deletion decomposition", {
        **_JSON,
        "--set": (str, None, "LIST", "comma-separated vertices to delete"),
    }),
    "regular": (_cmd_regular, True, "fully-regular profile or witness", _JSON),
    "verify": (_cmd_verify, True, "compare the engine against the exact oracle", {
        **_JSON,
        "--max-n": (_decimal, None, "MAX_N", "size guard (default: the oracle's cap)"),
        "--seed": (_decimal, 0, "SEED", "seed for sampled events"),
    }),
    "bench": (_cmd_bench, False, "time the engine on a random graph", {
        **_JSON,
        "--n": (_decimal, 20, "N", "vertex count"),
        "--density": (_density, 0.2, "DENSITY", "extra-edge density"),
        "--seed": (_decimal, 0, "SEED", "graph seed"),
    }),
}


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-"


def _dest(name: str) -> str:
    """The key of an option in the parsed dict: ``--max-n`` as ``max_n``."""
    return name[2:].replace("-", "_")


def _spelling(name: str, spec: tuple) -> str:
    """An option as its usage shows it: ``--json``, or ``--good LIST``."""
    return name if spec[0] is None else f"{name} {spec[2]}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: succorder [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    _, takes_path, _, options = _COMMANDS[command]
    words = ["usage: succorder", command, "[-h]"]
    words += [f"[{_spelling(name, spec)}]" for name, spec in options.items()]
    return " ".join(words + ["path"] if takes_path else words)


def _help(command: str | None) -> str:
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        lines = [_usage(None), "", _DESCRIPTION]
        sections = [
            ("commands", [(name, entry[2]) for name, entry in _COMMANDS.items()]),
            ("options", [help_row, ("--version", "show the version and exit")]),
        ]
    else:
        _, takes_path, text, options = _COMMANDS[command]
        lines = [_usage(command), "", f"{text.capitalize()}."]
        sections = [
            ("positional arguments", [("path", _PATH_HELP)] if takes_path else []),
            ("options", [help_row, *((_spelling(*item), item[1][3]) for item in options.items())]),
        ]
    width = max(len(label) for _, rows in sections for label, _ in rows) + 2
    for title, rows in sections:
        if rows:
            lines += ["", f"{title}:", *(f"  {label:<{width}}{text}" for label, text in rows)]
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> None:
    prog = "succorder" if command is None else f"succorder {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    sys.exit(EXIT_INPUT)


def _parse_args(argv: list[str]) -> dict:
    """The command, its ``path`` and its options by ``_dest`` name.

    Options go on either side of the path, as ``--opt VALUE`` or
    ``--opt=VALUE``, and everything after ``--`` is positional.  Long
    options are spelled in full.  A usage error exits with EXIT_INPUT;
    ``-h``, ``--help`` and ``--version`` print to stdout and exit with EXIT_OK.
    """
    args = iter(argv)
    unrecognized = []
    for arg in args:
        if arg in ("-h", "--help"):
            print(_help(None))
            sys.exit(EXIT_OK)
        if arg == "--version":
            print(f"succorder {__version__}")
            sys.exit(EXIT_OK)
        if not _is_option(arg):
            command = arg
            break
        unrecognized.append(arg)
    else:
        _usage_error(None, "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, takes_path, _, options = _COMMANDS[command]
    opts = {"command": command, "path": None}
    opts.update((_dest(name), spec[1]) for name, spec in options.items())
    positional_only = False
    for arg in args:
        if positional_only or not _is_option(arg):
            if takes_path and opts["path"] is None:
                opts["path"] = arg
            else:
                unrecognized.append(arg)
            continue
        if arg == "--":
            positional_only = True
            continue
        if arg in ("-h", "--help"):
            print(_help(command))
            sys.exit(EXIT_OK)
        name, has_value, value = arg.partition("=")
        spec = options.get(name)
        if spec is None:
            unrecognized.append(arg)
            continue
        convert = spec[0]
        if convert is None:
            if has_value:
                _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if not has_value:
                value = next(args, None)
                if value is None or _is_option(value):
                    _usage_error(command, f"argument {name}: expected one argument")
            try:
                value = convert(value)
            except ValueError as exc:
                _usage_error(command, f"argument {name}: {exc}")
        opts[_dest(name)] = value
    if takes_path and opts["path"] is None:
        _usage_error(command, "the following arguments are required: path")
    if unrecognized:
        _usage_error(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = _parse_args(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    try:
        g = _input_graph(opts)
        connected = is_connected(g)
        if not connected:
            print("warning: graph is disconnected; it has no successive ordering", file=sys.stderr)
        payload = _COMMANDS[opts["command"]][0](opts, g)
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
        "command": opts["command"],
        "input": {"n": g.n, "edges": g.edge_count, "connected": connected},
        "payload": payload,
    }
    _emit(doc, opts["json"])
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed: {elapsed_ms:.3f} ms", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
