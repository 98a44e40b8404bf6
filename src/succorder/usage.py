"""Help and usage-error text for the command line.

Only ``-h``/``--help`` and a malformed command line import this module.
Each function renders the command table it is handed (``cli._COMMANDS``) and
returns the text, which ``cli.main`` writes.  It imports nothing of the
package, so ``python -m succorder.cli -h`` compiles ``cli`` once.
"""

from __future__ import annotations

_DESCRIPTION = "Exact counting of successive vertex orderings of simple graphs."
_PATH_HELP = "edge-list file ('n m' header, then 'u v' lines)"


def _spelling(name: str, spec: tuple) -> str:
    """An option as its usage shows it: ``--json``, or ``--good LIST``."""
    return name if spec[0] is None else f"{name} {spec[2]}"


def _usage(commands: dict, command: str | None) -> str:
    if command is None:
        return f"usage: succorder [-h] [--version] {{{','.join(commands)}}} ..."
    _, _, takes_path, _, options = commands[command]
    words = ["usage: succorder", command, "[-h]"]
    words += [f"[{_spelling(name, spec)}]" for name, spec in options.items()]
    return " ".join(words + ["path"] if takes_path else words)


def _help(commands: dict, command: str | None) -> str:
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        lines = [_usage(commands, None), "", _DESCRIPTION]
        sections = [
            ("commands", [(name, entry[3]) for name, entry in commands.items()]),
            ("options", [help_row, ("--version", "show the version and exit")]),
        ]
    else:
        _, _, takes_path, text, options = commands[command]
        lines = [_usage(commands, command), "", f"{text.capitalize()}."]
        sections = [
            ("positional arguments", [("path", _PATH_HELP)] if takes_path else []),
            ("options", [help_row, *((_spelling(*item), item[1][3]) for item in options.items())]),
        ]
    width = max(len(label) for _, rows in sections for label, _ in rows) + 2
    for title, rows in sections:
        if rows:
            lines += ["", f"{title}:", *(f"  {label:<{width}}{text}" for label, text in rows)]
    return "\n".join(lines)


def _usage_error(commands: dict, command: str | None, message: str) -> str:
    prog = "succorder" if command is None else f"succorder {command}"
    return f"{_usage(commands, command)}\n{prog}: error: {message}"
