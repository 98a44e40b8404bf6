"""Recorded ``--json`` runs of the CLI, replayed byte for byte.

``data/cli_golden.json`` holds the stdout and exit code of every command but
``bench`` (whose payload holds a timing) on each file in ``sample_graphs/``
and on three seeded random graphs, so a change that claims the same answers
is held to them.  After a change that means to alter an answer, record the
file again with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from succorder import cli, random_connected_graph

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
RANDOM_GRAPHS = [(f"random{n}", n, 0.2, n) for n in (12, 16, 20)]


def _vertices(vertices) -> str:
    return ",".join(map(str, vertices))


def _argvs(n: int) -> list[list[str]]:
    """The recorded commands on a graph with n vertices; the path is ``{path}``."""
    evens, odds = range(2, n, 2), range(1, n, 2)
    pairs = [(_vertices([0]), _vertices(evens)), (_vertices(odds[-2:]), _vertices(range(n // 2)))]
    argvs = [[command, "{path}", "--json"] for command in ("count", "poly", "distribution", "regular", "verify")]
    argvs += [["eval", "{path}", "--bad", bad, "--good", good, "--json"] for bad, good in pairs]
    argvs += [["delete", "{path}", "--set", removed, "--json"] for removed in (str(n // 2), _vertices({1, n - 1}))]
    return argvs


def _graph_files(directory: Path) -> dict[str, tuple[int, Path]]:
    """Name -> (vertex count, edge-list file) for every recorded graph."""
    files = {}
    for path in sorted((ROOT / "sample_graphs").glob("*.txt")):
        header = next(line for line in path.read_text().splitlines() if not line.startswith("#"))
        files[path.stem] = (int(header.split()[0]), path)
    for name, n, density, seed in RANDOM_GRAPHS:
        g = random_connected_graph(n, density, seed)
        path = directory / f"{name}.txt"
        path.write_text(f"{n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
        files[name] = (n, path)
    return files


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cases(directory: Path):
    for name, (n, path) in _graph_files(directory).items():
        for argv in _argvs(n):
            yield name, argv, [str(path) if arg == "{path}" else arg for arg in argv]


def test_cli_replays_its_recorded_runs(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    replayed = []
    for name, argv, concrete in _cases(tmp_path):
        code, stdout = _run(concrete)
        replayed.append({"graph": name, "argv": argv, "exit": code, "stdout": stdout})
    assert len(replayed) == len(recorded)
    for run, expected in zip(replayed, recorded):
        assert run == expected


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        runs = []
        for name, argv, concrete in _cases(Path(directory)):
            code, stdout = _run(concrete)
            runs.append({"graph": name, "argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
