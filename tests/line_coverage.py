"""Statements inside `src/` functions that no tier-1 test executes.

    python3 tests/line_coverage.py [pytest args]

Runs the tier-1 suite in this process through `pytest.main` with a line
tracer set by `sys.settrace` and `threading.settrace` (standard library
only), then prints, for each file under `src/carbonsched/`, the
statements inside a function body that never ran, one line each as
`path:line: source`, and a count. A statement counts as run when any line
of its own part ran: all of a simple statement, or the header of a
compound one (an `if` line up to its body). Docstrings and `global` or
`nonlocal` statements run no code and are not listed. Arguments go to
pytest, after `-q -p no:cacheprovider`, in place of the default `tests/`;
the exit code is pytest's.

Only this process is traced. Tests that run the program in a subprocess,
the cold-start tests, the bench-contract tests and the CLI subprocess
checks, are not seen, so a line only they reach is listed as unreached:
`carbon.py`'s raise for a non-finite intensity is one. The traced run
takes about twice as long as an untraced one. Pytest does not collect
this file.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carbonsched"


def _own_lines(node: ast.stmt) -> range:
    """The lines of `node` that belong to no statement nested in it."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    children = [c for field in ("body", "orelse", "finalbody", "handlers")
                for c in getattr(node, field, ())]
    last = min((c.lineno for c in children), default=node.end_lineno + 1) - 1
    return range(first, max(first, last) + 1)


def _statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement nested in a function body that runs code."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                found.append(child)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


@lru_cache(maxsize=None)
def _in_package(filename: str) -> str | None:
    """The resolved path of a code object's file when it is under `PACKAGE`."""
    path = os.path.realpath(filename)
    return path if Path(path).parent == PACKAGE else None


def main(argv: list[str]) -> int:
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if _in_package(frame.f_code.co_filename) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = defaultdict(set)
    for filename, lines in hits.items():
        ran[_in_package(filename)] |= lines
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in _statements(ast.parse(source)):
            if not ran[str(path)].intersection(_own_lines(node)):
                total += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                      f"{lines[node.lineno - 1].strip()}")
    print(f"{total} statements inside functions under {PACKAGE.relative_to(ROOT)}/ "
          "were not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
