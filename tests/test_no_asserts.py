"""No module of the package holds an assert statement.

`python -O` strips asserts, so a runtime invariant written as one would
silently stop being checked; the package raises instead.  The AST check
sees only assert statements, so two CLI runs under -O must also write
the very report bytes of a normal run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("args", [
    ["chain", "--algorithm", "coincidence-4", "--G", "2"],
    ["simulate", "--algorithm", "two-query-4", "--point", "2,4", "--seed", "1"],
])
def test_reports_are_the_same_under_dash_o(args):
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    reports = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "collisionlab", *args],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0].startswith(b"{") and reports[0] == reports[1]
