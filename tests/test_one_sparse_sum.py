"""The exact kernels have one per-key sum and one fold of block sums.

Every exact step (the orthogonality check, the layer product, each
layer and query of extraction, and the squaring) is a sum of integer
products per key.  simulator._summed is the one place that groups rows
by key (np.add.reduceat), and simulator._folded the one place that sums
block sums again, so a second grouping kernel or a second copy of the
fold loop cannot come back unnoticed.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent

LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _name(func: ast.AST) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


class _Finder(ast.NodeVisitor):
    """(line, function, what) for every reduceat call and every fold: a
    call of _summed inside a loop, or on a concatenation."""

    def __init__(self):
        self.found, self.scope, self.loops = [], ["<module>"], 0

    def visit_FunctionDef(self, node):
        outer = self.loops
        self.scope.append(node.name)
        self.loops = 0
        self.generic_visit(node)
        self.scope.pop()
        self.loops = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def generic_visit(self, node):
        loop = isinstance(node, LOOPS)
        self.loops += loop
        super().generic_visit(node)
        self.loops -= loop

    def visit_Call(self, node):
        name = _name(node.func)
        if name == "reduceat":
            self.found.append((node.lineno, self.scope[-1], "reduceat"))
        elif name == "_summed":
            concatenated = any(
                isinstance(inner, (ast.Name, ast.Attribute)) and _name(inner) == "concatenate"
                for arg in node.args for inner in ast.walk(arg)
            )
            if self.loops or concatenated:
                self.found.append((node.lineno, self.scope[-1], "fold"))
        self.generic_visit(node)


def sums_and_folds(tree: ast.AST) -> list[tuple[int, str, str]]:
    finder = _Finder()
    finder.visit(tree)
    return finder.found


def test_only_summed_groups_and_only_folded_folds():
    found = {
        (path.name, function, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function, what in sums_and_folds(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("simulator.py", "_summed", "reduceat"),
        ("simulator.py", "_folded", "fold"),
    }


def test_the_guard_sees_a_second_kernel_and_a_second_fold():
    source = (
        "def _summed(keys, a, b):\n"
        "    return np.add.reduceat(a, keys)\n"
        "def _folded(blocks, budget):\n"
        "    parts = [_summed(*block) for block in blocks]\n"
        "    return _summed(*map(np.concatenate, zip(*parts)))\n"
        "def is_orthogonal(self):\n"
        "    parts = []\n"
        "    for block in blocks():\n"
        "        parts.append(_summed(*block))\n"
        "    return simulator._summed(np.concatenate(keys), a, b)\n"
        "def _collect(keys, a, b):\n"
        "    starts = np.flatnonzero(keys)\n"
        "    once = _summed(keys, a, b)\n"
        "    return numpy.add.reduceat(a, starts)\n"
    )
    assert sums_and_folds(ast.parse(source)) == [
        (2, "_summed", "reduceat"),
        (4, "_folded", "fold"),
        (5, "_folded", "fold"),
        (9, "is_orthogonal", "fold"),
        (10, "is_orthogonal", "fold"),
        (14, "_collect", "reduceat"),
    ]
