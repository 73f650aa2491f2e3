"""Only instances turns latent draws into inputs.

Every family average reads one draw table, built by
instances.enumerate_table.  The latent draws themselves, from
enumerate_supports, and the Instances built from them by
instance_from_latent, stay inside instances, where the sampler keeps its
latent draw; tests read them white-box.  No other module of the package
calls either, so a second draw path cannot come back unnoticed.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent

LATENT_READERS = ("enumerate_supports", "instance_from_latent")


def latent_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every call of a latent reader, bare or as an
    attribute (instances.enumerate_supports)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in LATENT_READERS:
            found.append((node.lineno, name))
    return found


def test_only_instances_reads_latent_draws():
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "instances.py"
        for lineno, name in latent_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_each_call():
    source = (
        "for latent in enumerate_supports(point, n):\n"
        "    inst = instances.instance_from_latent(latent, n)\n"
        "rows = enumerate_rows(point, n)\n"
    )
    assert latent_calls(ast.parse(source)) == [
        (1, "enumerate_supports"), (2, "instance_from_latent"),
    ]
