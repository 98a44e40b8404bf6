"""Line probe: which statements of ``src/succorder`` does a test run never execute?

    python tools/line_probe.py                      # the whole suite under tests/
    python tools/line_probe.py tests/test_cli.py    # any pytest arguments

pytest runs in this process with this file loaded as a plugin (``-p
line_probe``).  The plugin traces, with ``sys.settrace``, only frames whose
code lives in ``src/succorder``, and records each line they execute.  It
switches hypothesis deadlines off for the run, because tracing slows some
property tests past theirs.  Afterwards the probe prints, per module, each
line of a function body that no test executed.  Module and class bodies run
at import time, before tracing starts, so their lines are left out.

What the probe cannot see shows as missed: code run in a subprocess (the
CLI tests that start ``python -m succorder``), and lines reached only
through a copy of a function compiled from its source alone, such as the
mutated copies that ``deletion_mutant`` in the tests builds; their line
numbers are not the module's, so they are not traced.  It is not
part of the tier-1 suite: tracing makes a run several times slower.
"""

from __future__ import annotations

import dis
import inspect
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "succorder"
#: Code objects a module or class body runs at import time.
_IMPORT_TIME = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
#: Instructions that carry a def line without running anything there.
_ENTRY = {"RESUME", "RETURN_GENERATOR", "POP_TOP"}
HIT: set[tuple[str, int]] = set()


def function_bodies(path: Path) -> list[CodeType]:
    """The code objects of the function bodies in ``path``, as its module compiles them."""
    stack, bodies = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)], []
    while stack:
        code, in_function = stack.pop()
        if in_function:
            bodies.append(code)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                called = const.co_flags & inspect.CO_NEWLOCALS and const.co_name not in _IMPORT_TIME
                stack.append((const, in_function or bool(called)))
    return bodies


#: Per module file, its function bodies by (name, first line): a copy
#: compiled from a snippet of the source has other first lines and is not traced.
BODIES: dict[str, set[tuple[str, int]]] = {}


def _lines(frame, event, arg):
    if event == "line":
        HIT.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    code = frame.f_code
    return _lines if (code.co_name, code.co_firstlineno) in BODIES.get(code.co_filename, ()) else None


def pytest_configure(config):
    from hypothesis import settings

    settings.register_profile("line_probe", deadline=None)
    settings.load_profile("line_probe")
    BODIES.update((str(path), {(code.co_name, code.co_firstlineno) for code in function_bodies(path)})
                  for path in SRC.glob("*.py"))
    sys.settrace(_calls)


def pytest_unconfigure(config):
    sys.settrace(None)


def main(argv: list[str]) -> int:
    import pytest

    # the tests' subprocesses import the package from src/ too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    code = pytest.main(["-q", "-p", "no:cacheprovider", "-p", "line_probe", *(argv or [str(ROOT / "tests")])])
    hit = sys.modules["line_probe"].HIT
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = {ins.positions.lineno for code in function_bodies(path)
                 for ins in dis.get_instructions(code) if ins.opname not in _ENTRY}
        for line in sorted(lines - {None} - {line for name, line in hit if name == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
