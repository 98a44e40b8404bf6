"""Help and usage-error text for the command line.

Only ``-h``/``--help`` and a malformed command line import this module,
through ``cli._exit_with_usage``: the text is rendered from ``cli._COMMANDS``,
so no command that runs compiles it.
"""

from __future__ import annotations

import sys

from .cli import _COMMANDS, EXIT_INPUT

_DESCRIPTION = "Exact counting of successive vertex orderings of simple graphs."
_PATH_HELP = "edge-list file ('n m' header, then 'u v' lines)"


def _spelling(name: str, spec: tuple) -> str:
    """An option as its usage shows it: ``--json``, or ``--good LIST``."""
    return name if spec[0] is None else f"{name} {spec[2]}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: succorder [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    _, _, takes_path, _, options = _COMMANDS[command]
    words = ["usage: succorder", command, "[-h]"]
    words += [f"[{_spelling(name, spec)}]" for name, spec in options.items()]
    return " ".join(words + ["path"] if takes_path else words)


def _help(command: str | None) -> str:
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        lines = [_usage(None), "", _DESCRIPTION]
        sections = [
            ("commands", [(name, entry[3]) for name, entry in _COMMANDS.items()]),
            ("options", [help_row, ("--version", "show the version and exit")]),
        ]
    else:
        _, _, takes_path, text, options = _COMMANDS[command]
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
