"""No call to the builtin `sum` in `src/`.

From Python 3.12 on, `sum` compensates the rounding of the floats it
adds, so one run would write other bits on 3.11 than on 3.12. The
program adds floats left to right from 0.0 instead, with
`metrics._add` or a sequential `np.add.accumulate`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def sum_calls(source: str) -> list[int]:
    """Line of each call to a bare name `sum` in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_the_guard_finds_a_builtin_sum_only():
    assert sum_calls("x = sum(v)\ny = np.sum(v) + v.sum()\nz = 1 + sum(w, 0.0)\n") == [1, 3]


def test_src_calls_no_builtin_sum():
    files = sorted(SRC.rglob("*.py"))
    assert files
    calls = [f"{path.relative_to(SRC)}:{line}"
             for path in files for line in sum_calls(path.read_text())]
    assert calls == []
