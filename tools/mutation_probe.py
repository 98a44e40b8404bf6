"""Mutation probe: which one-node changes to a module do the given tests miss?

    python tools/mutation_probe.py src/succorder/oracle.py tests/test_oracle.py tests/test_cli.py

Each mutant makes one change to the module's syntax tree: a binary or
augmented-assignment operator swapped (``+`` and ``-``, ``&`` and ``|``,
``<<`` and ``>>``, ...), a comparison flipped (``<`` to ``>=``, ``==`` to
``!=``, ``in`` to ``not in``, ...), or an integer constant raised by 1.
Annotations are skipped: under ``from __future__ import annotations`` they
are never evaluated, so their mutants cannot be told apart.

The repository's ``src/`` and ``tests/`` are copied to a temporary
directory, never edited in place.  The unchanged copy runs first; it must
pass, and its time sets the per-mutant timeout, because a mutated loop can
spin forever (``rest ^= bit`` changed to ``|=`` never empties ``rest``).
Then each mutant is written over the module in the copy, and pytest runs
the given test files against it with ``-x``, one mutant at a time.  A mutant
is killed when pytest fails, survives when it passes, and times out when it
overruns.  The probe prints the three counts and, for each survivor and
each time-out, the module's line and the change.  It is not part of the
tier-1 suite: a module of a few hundred lines makes about a hundred
mutants, each a pytest run.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            roots.append(node.returns)
    return {id(inner) for root in roots for inner in ast.walk(root)}


def sites(tree: ast.AST) -> list[tuple[int, int, int]]:
    """(walk index, operand index, line) for every mutant of the tree."""
    skip = annotation_nodes(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp | ast.AugAssign) and type(node.op) in SWAPS:
            found.append((index, 0, node.lineno))
        elif isinstance(node, ast.Compare):
            found.extend((index, j, node.lineno) for j in range(len(node.ops)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, 0, node.lineno))
    return found


def mutant(source: str, index: int, operand: int) -> tuple[str, str]:
    """The source with the change at ``(index, operand)`` of ``sites`` made,
    and the changed node as it now reads."""
    tree = ast.parse(source)
    node = next(node for i, node in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[operand] = FLIPS[type(node.ops[operand])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), ast.unparse(node)


def run_tests(workdir: Path, tests: list[str], timeout: float | None) -> str:
    """"passed", "failed" or "timeout" for one pytest run in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # a session of its own, so a timeout also ends the CLI processes the tests start
    proc = subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    module, tests = Path(argv[0]).resolve(), argv[1:]
    relative = module.relative_to(ROOT)
    source = module.read_text(encoding="utf-8")
    lines = source.splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in ("src", "tests", "sample_graphs"):
            shutil.copytree(ROOT / name, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        target = workdir / relative
        # the unparsed but unchanged module must pass, and its time bounds each mutant's
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.perf_counter()
        if run_tests(workdir, tests, None) != "passed":
            print("the tests fail on the unchanged module; nothing to probe", file=sys.stderr)
            return 1
        timeout = max(10.0, 3 * (time.perf_counter() - start))
        found = sites(ast.parse(source))
        outcomes = {"failed": [], "passed": [], "timeout": []}
        for index, operand, line in found:
            text, change = mutant(source, index, operand)
            target.write_text(text, encoding="utf-8")
            outcomes[run_tests(workdir, tests, timeout)].append((line, change))
    print(f"{relative}: {len(found)} mutants, {len(outcomes['failed'])} killed, "
          f"{len(outcomes['passed'])} survived, {len(outcomes['timeout'])} timed out "
          f"(timeout {timeout:.0f} s)")
    for label, key in (("survived", "passed"), ("timed out", "timeout")):
        for line, change in outcomes[key]:
            print(f"{label}: {relative}:{line}: {lines[line - 1].strip()}  ->  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
