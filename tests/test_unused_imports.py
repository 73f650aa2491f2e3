"""No module of the package imports a name it never uses.

The package's __init__ re-exports by importing, so it is exempt.  A
binding kept only so that an outside tool can patch it by module
attribute belongs in KEPT_FOR_PATCHING, with its reason.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent

# (module, name) -> why the import stays although the module never uses it
KEPT_FOR_PATCHING = {
    ("cli", "assemble_q"): "perfbench/tracer.py patches cli.assemble_q by name",
}


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_no_module_imports_a_name_it_never_uses():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert found == set(KEPT_FOR_PATCHING)
