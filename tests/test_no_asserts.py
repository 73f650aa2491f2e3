"""No module of the package holds an assert statement.

`python -O` strips asserts, so a runtime invariant written as one would
silently stop being checked; the package raises instead.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent


def test_no_module_asserts():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
