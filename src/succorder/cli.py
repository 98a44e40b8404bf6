"""Command-line front end.

Commands: count | poly | distribution | eval | delete | regular | verify |
bench.  Results go to stdout, either human-readable or as one JSON
document per run (--json); warnings and wall-clock timing go to stderr.
Big integers are serialized as decimal strings and rationals as
"numerator/denominator" in lowest terms, so machine consumers never lose
precision.  ``_json`` writes the document byte for byte as
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` would, without
importing the ``json`` package.

Every process enters through ``run``, which freezes the objects start-up
left alive (``gc.freeze``) and returns ``main``'s exit code: they live until
exit anyway, and frozen, no collection walks them again, the interpreter's
collection at exit included.  ``main`` is what tests and tracers call in
process, and it leaves the collector alone.

Arguments are parsed with one table, ``_COMMANDS``: per command, the
handler, whether it reads an edge-list path, and its options with a
converter and a default.  Options go on either side of the path, as
``--opt VALUE`` or ``--opt=VALUE``, and are spelled in full.  argparse is not
used: it and its imports cost about 6 ms.  The ``-h`` text and the usage
errors are rendered from the same table by ``usage``, which only ``-h``,
``--help`` and a malformed command line import.

This module imports only ``errors`` and ``graph`` at load time.  Each
command's handler lives beside the engine module it runs, and
``_COMMANDS`` names it by module and function, so a process imports and
compiles one handler, not eight, and ``-h`` imports none.  ``count`` and
``eval`` load ``layers`` and ``counting`` and nothing else of the package;
``bench`` adds ``randgraph`` to those; ``poly``, ``distribution`` and
``delete`` add ``polynomial``; ``regular`` loads ``layers`` and
``regular``; and only ``verify`` loads the oracle, with ``polynomial``.  No
command imports ``fractions`` (nor the ``decimal`` it pulls in): each prints
its ratios from integers through ``counting._ratio_text``.  No command loads
``crosscheck``.

The stderr ``elapsed: <x> ms`` line times only what follows argument
parsing: reading the input, the handler's engine imports (about 4 ms for
``count`` when no ``__pycache__`` exists), computing and printing.  It
leaves out interpreter start-up and the imports made before parsing,
which are most of the wall time of a run on a small graph.

Exit codes: 0 success, 1 input error (a stdout that cannot be written
included), 2 internal assertion failure, 3 verification mismatch.
"""

from __future__ import annotations

import gc
import re
import sys
import time

from . import __version__
from .errors import InternalCheckError, ParseError, VerificationError
from .graph import Graph, _decimal, is_connected, parse_edge_list

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


#: What ``json.dumps`` escapes under ``ensure_ascii``: the quote, the
#: backslash and every character outside printable ASCII.
_ESCAPED = re.compile(r'["\\]|[^ -~]')
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}
_INF = float("inf")


def _escape(match: re.Match) -> str:
    char = match.group()
    code = ord(char)
    if code > 0xFFFF:
        # past the Basic Multilingual Plane: the UTF-16 surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return _SHORT_ESCAPES.get(char, f"\\u{code:04x}")


def _quoted(text: str) -> str:
    return f'"{_ESCAPED.sub(_escape, text)}"'


def _json(value, separators: tuple[str, str]) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=separators)`` writes it.

    Only what a command's document holds is written: dicts with str keys,
    lists, str, int, bool and finite float.  Anything else raises TypeError,
    a non-finite float included (``json.dumps`` would write ``NaN``, which is
    not JSON).  The ``json`` package is not imported for this: its parser,
    which no command runs, is half of its import time.
    """
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and -_INF < value < _INF:
        return float.__repr__(value)
    item, key = separators
    if isinstance(value, list):
        return "[" + item.join(_json(entry, separators) for entry in value) + "]"
    if isinstance(value, dict):
        # _quoted raises TypeError on a key that is not a str
        pairs = sorted(value.items())
        return "{" + item.join(f"{_quoted(k)}{key}{_json(v, separators)}" for k, v in pairs) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(_json(doc, (",", ":")))
        return
    print(f"command: {doc['command']}")
    info = doc["input"]
    print(f"n: {info['n']}  edges: {info['edges']}  connected: {info['connected']}")
    for key, value in doc["payload"].items():
        if isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        elif isinstance(value, dict):
            print(f"{key}: {_json(value, (', ', ': '))}")
        else:
            print(f"{key}: {value}")


_JSON = {"--json": (None, False, None, "emit one JSON document")}

#: Command name -> (handler's module, handler, whether it reads an edge-list
#: path, help, options).  A handler takes the parsed options and the graph
#: and returns the payload.  Each option maps to (converter, default,
#: metavar, help); a converter of None makes a flag that takes no value and
#: defaults to False.  The table both parses argv and prints ``-h``.
_COMMANDS = {
    "count": ("counting", "_cmd_count", True, "count the successive vertex orderings", _JSON),
    "poly": ("polynomial", "_cmd_poly", True, "ordering polynomial coefficients", _JSON),
    "distribution": ("polynomial", "_cmd_poly", True, "orderings by bad-vertex count", _JSON),
    "eval": ("counting", "_cmd_eval", True, "event probabilities over vertex sets", {
        **_JSON,
        "--good": (str, None, "LIST", "comma-separated vertices required good"),
        "--bad": (str, None, "LIST", "comma-separated vertices required bad"),
    }),
    "delete": ("polynomial", "_cmd_delete", True, "vertex-deletion decomposition", {
        **_JSON,
        "--set": (str, None, "LIST", "comma-separated vertices to delete"),
    }),
    "regular": ("regular", "_cmd_regular", True, "fully-regular profile or witness", _JSON),
    "verify": ("oracle", "_cmd_verify", True, "compare the engine against the exact oracle", {
        **_JSON,
        "--seed": (_decimal, 0, "SEED", "seed for sampled events"),
    }),
    "bench": ("randgraph", "_cmd_bench", False, "time the engine on a random graph", {
        **_JSON,
        "--n": (_decimal, 20, "N", "vertex count"),
        "--density": (_density, 0.2, "DENSITY", "extra-edge density"),
        "--seed": (_decimal, 0, "SEED", "graph seed"),
    }),
}


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-"


def _exit_with_usage(command: str | None, error: str | None = None) -> None:
    """Print the help (no ``error``) and exit with EXIT_OK, or the usage and
    ``error`` and exit with EXIT_INPUT.  The text lives in ``usage``, which
    only these exits import."""
    from . import usage

    if error is None:
        print(usage._help(command))
        sys.exit(EXIT_OK)
    usage._usage_error(command, error)


def _parse_args(argv: list[str]) -> dict:
    """The command, its ``path`` and its options, ``--seed`` as ``seed``.

    Options go on either side of the path, as ``--opt VALUE`` or
    ``--opt=VALUE``, and everything after ``--`` is positional.  Long
    options are spelled in full.  A usage error exits with EXIT_INPUT;
    ``-h``, ``--help`` and ``--version`` print to stdout and exit with EXIT_OK.
    """
    args = iter(argv)
    unrecognized = []
    for arg in args:
        if arg in ("-h", "--help"):
            _exit_with_usage(None)
        if arg == "--version":
            print(f"succorder {__version__}")
            sys.exit(EXIT_OK)
        if not _is_option(arg):
            command = arg
            break
        unrecognized.append(arg)
    else:
        _exit_with_usage(None, "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        message = f"argument command: invalid choice: {command!r} (choose from {choices})"
        _exit_with_usage(None, message)
    _, _, takes_path, _, options = _COMMANDS[command]
    opts = {"command": command, "path": None}
    opts.update((name[2:], spec[1]) for name, spec in options.items())
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
            _exit_with_usage(command)
        name, has_value, value = arg.partition("=")
        spec = options.get(name)
        if spec is None:
            unrecognized.append(arg)
            continue
        convert = spec[0]
        if convert is None:
            if has_value:
                _exit_with_usage(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if not has_value:
                value = next(args, None)
                if value is None or _is_option(value):
                    _exit_with_usage(command, f"argument {name}: expected one argument")
            try:
                value = convert(value)
            except ValueError as exc:
                _exit_with_usage(command, f"argument {name}: {exc}")
        opts[name[2:]] = value
    if takes_path and opts["path"] is None:
        _exit_with_usage(command, "the following arguments are required: path")
    if unrecognized:
        _exit_with_usage(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = _parse_args(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    try:
        g = _input_graph(opts)
        connected = is_connected(g)
        if not connected:
            print("warning: graph is disconnected; it has no successive ordering", file=sys.stderr)
        module, handler = _COMMANDS[opts["command"]][:2]
        # with a fromlist, __import__ returns the submodule itself
        payload = getattr(__import__(f"{__package__}.{module}", fromlist=[handler]), handler)(opts, g)
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
    try:
        _emit(doc, opts["json"])
        sys.stdout.flush()
    except OSError as exc:
        # a full disk or a closed pipe; closing stdout drops what its buffer
        # still holds, or the interpreter's flush at exit would fail again
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_INPUT
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed: {elapsed_ms:.3f} ms", file=sys.stderr)
    return EXIT_OK


def run() -> int:
    """The process entry: ``python -m succorder``, ``python -m succorder.cli``
    and the ``succorder`` script run ``sys.exit(run())``.

    Every object alive now (the interpreter's start-up, this module, the
    package and what they import) lives until the process exits, so
    ``gc.freeze()`` moves them out of every later cyclic collection, the one
    the interpreter makes at exit included: about 4 ms of a process on a
    2-vCPU machine.  Finalisation still runs, atexit handlers included.
    ``main`` itself leaves the collector alone, since tests and tracers call
    it in process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
