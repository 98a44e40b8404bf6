"""Command-line front end.

Commands: count | poly | distribution | eval | delete | regular | verify |
bench.  Results go to stdout, either human-readable or as one JSON
document per run (--json); warnings and wall-clock timing go to stderr.
Big integers are serialized as decimal strings and rationals as
"numerator/denominator" in lowest terms, so machine consumers never lose
precision.  ``_json`` writes the document byte for byte as
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` would, without
importing the ``json`` package; it takes only strings that need no escape.

Every process enters through ``run``, which freezes start-up's objects and
returns ``main``'s exit code.  ``main`` is the one place that writes and
ends a run: the parser returns the options or raises ``_Exit`` with the
text to write, and every line goes through ``_write``, so a stream that
cannot be written ends in exit 1, never in a traceback.

Arguments are parsed with one table, ``_COMMANDS``, not argparse, whose
imports cost about 6 ms.  The ``-h`` text and the usage errors are rendered
from the table by ``usage``, which only ``-h``, ``--help`` and a malformed
command line import.  This module imports only ``errors`` and ``graph`` at
load time; ``_COMMANDS`` names each handler by the engine module it lives
in, so a process imports and compiles one handler, not eight.

The stderr ``elapsed: <x> ms`` line times only what follows argument
parsing: reading the input, the handler's imports, computing and printing.

Exit codes: 0 success, 1 input error (an input past ``MAX_INPUT_CHARS`` and
a stream that cannot be written included), 2 internal assertion failure,
3 verification mismatch.
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

#: The most characters read of an edge-list file; a longer one is refused
#: before parsing.  K_64, the largest graph the engine takes, is 11.5 KB.
MAX_INPUT_CHARS = 16 * 1024 * 1024


def _input_graph(opts: dict) -> Graph:
    """The edge-list file named on the command line, or bench's seeded graph."""
    if opts["command"] == "bench":
        from .randgraph import random_connected_graph

        return random_connected_graph(opts["n"], opts["density"], opts["seed"])
    with open(opts["path"], encoding="utf-8") as handle:
        text = handle.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"input longer than {MAX_INPUT_CHARS} characters")
    return parse_edge_list(text)


def _density(text: str) -> float:
    """Value of an ASCII decimal such as ``0.25``; ``float`` alone would also take ``0_1``."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


#: The strings ``json.dumps`` writes unescaped: printable ASCII but the
#: quote and the backslash.
_PLAIN = re.compile(r'[ !#-\[\]-~]*')
_INF = float("inf")


def _quoted(text: str) -> str:
    # fullmatch raises TypeError on what is not a str, a dict key included
    if _PLAIN.fullmatch(text) is None:
        raise TypeError(f"{text!r} needs a JSON escape, which the emitter does not write")
    return f'"{text}"'


def _json(value, separators: tuple[str, str]) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=separators)`` writes it.

    Only what a command's document holds is written: dicts with str keys,
    lists, int, bool, finite float and str that needs no escape (printable
    ASCII but ``"`` and ``\\``).  Anything else raises TypeError, NaN
    included.  The ``json`` package is not imported for this: its parser,
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
        pairs = sorted(value.items())
        return "{" + item.join(f"{_quoted(k)}{key}{_json(v, separators)}" for k, v in pairs) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _document(doc: dict, as_json: bool) -> str:
    """What stdout gets, less the last newline: one JSON line, or the human-readable lines."""
    if as_json:
        return _json(doc, (",", ":"))
    info = doc["input"]
    lines = [
        f"command: {doc['command']}",
        f"n: {info['n']}  edges: {info['edges']}  connected: {info['connected']}",
    ]
    for key, value in doc["payload"].items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        elif isinstance(value, dict):
            value = _json(value, (", ", ": "))
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _write(text: str, name: str = "stderr") -> bool:
    """Write ``text`` and a newline to ``sys.stderr`` (or ``sys.stdout``) and flush it.

    False when the stream cannot be written: it is None, as when closed at
    start, or closed, or its write or flush fails.  A failed stream is closed,
    which drops what its buffer holds, so the interpreter's flush at exit
    cannot fail again.  A lost stdout is reported on stderr.
    """
    stream = getattr(sys, name)
    if stream is None or stream.closed:
        failure = f"{name} is closed"
    else:
        try:
            stream.write(text + "\n")
            stream.flush()
            return True
        except OSError as exc:
            failure = str(exc)
            try:
                stream.close()
            except OSError:
                pass
    if name == "stdout":
        _write(f"error: cannot write output: {failure}")
    return False


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


class _Exit(Exception):
    """``(code, text)`` of a parse that runs no command: the help, the version or a usage error."""


def _usage_exit(command: str | None, error: str | None = None) -> _Exit:
    """The help (no ``error``) or a usage error, from ``usage``, which only these exits import."""
    from . import usage

    if error is None:
        return _Exit(EXIT_OK, usage._help(_COMMANDS, command))
    return _Exit(EXIT_INPUT, usage._usage_error(_COMMANDS, command, error))


def _parse_args(argv: list[str]) -> dict:
    """The command, its ``path`` and its options, ``--seed`` as ``seed``.

    Options go on either side of the path, as ``--opt VALUE`` or
    ``--opt=VALUE``, and everything after ``--`` is positional.  Long
    options are spelled in full.  ``-h``, ``--help``, ``--version`` and a
    usage error raise ``_Exit``; nothing here writes or exits.
    """
    args = iter(argv)
    unrecognized = []
    for arg in args:
        if arg in ("-h", "--help"):
            raise _usage_exit(None)
        if arg == "--version":
            raise _Exit(EXIT_OK, f"succorder {__version__}")
        if not _is_option(arg):
            command = arg
            break
        unrecognized.append(arg)
    else:
        raise _usage_exit(None, "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _usage_exit(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
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
            raise _usage_exit(command)
        name, has_value, value = arg.partition("=")
        spec = options.get(name)
        if spec is None:
            unrecognized.append(arg)
            continue
        convert = spec[0]
        if convert is None:
            if has_value:
                raise _usage_exit(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if not has_value:
                value = next(args, None)
                if value is None or _is_option(value):
                    raise _usage_exit(command, f"argument {name}: expected one argument")
            try:
                value = convert(value)
            except ValueError as exc:
                raise _usage_exit(command, f"argument {name}: {exc}")
        opts[name[2:]] = value
    if takes_path and opts["path"] is None:
        raise _usage_exit(command, "the following arguments are required: path")
    if unrecognized:
        raise _usage_exit(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return opts


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Every line is written here, through ``_write``.  A stdout that cannot be
    written makes the code EXIT_INPUT.  A stderr line that cannot be written
    is dropped, and it makes EXIT_INPUT of EXIT_OK; a failed run keeps its code.
    """
    try:
        opts = _parse_args(sys.argv[1:] if argv is None else argv)
        start = time.perf_counter()
        g = _input_graph(opts)
        connected = is_connected(g)
        # a connected graph has no warning to lose
        warned = connected or _write("warning: graph is disconnected; it has no successive ordering")
        module, handler = _COMMANDS[opts["command"]][:2]
        # with a fromlist, __import__ returns the submodule itself
        payload = getattr(__import__(f"{__package__}.{module}", fromlist=[handler]), handler)(opts, g)
    except _Exit as stop:
        code, text = stop.args
        written = _write(text, "stdout" if code == EXIT_OK else "stderr")
        return EXIT_INPUT if code == EXIT_OK and not written else code
    except (ParseError, ValueError, OSError) as exc:
        _write(f"error: {exc}")
        return EXIT_INPUT
    except InternalCheckError as exc:
        _write(f"internal check failed: {exc}")
        return EXIT_INTERNAL
    except VerificationError as exc:
        _write(f"verification mismatch: {exc}")
        return EXIT_MISMATCH
    info = {"n": g.n, "edges": g.edge_count, "connected": connected}
    doc = {"command": opts["command"], "input": info, "payload": payload}
    if not _write(_document(doc, opts["json"]), "stdout"):
        return EXIT_INPUT
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return EXIT_OK if _write(f"elapsed: {elapsed_ms:.3f} ms") and warned else EXIT_INPUT


def run() -> int:
    """The process entry: ``python -m succorder``, ``python -m succorder.cli``
    and the ``succorder`` script run ``sys.exit(run())``.

    Every object alive now (the interpreter's start-up, this module, the
    package and what they import) lives until the process exits, so
    ``gc.freeze()`` moves them out of every later cyclic collection, the one
    at exit included: about 4 ms of a process on a 2-vCPU machine.  ``main``
    leaves the collector alone, since tests and tracers call it in process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
