"""The closed forms count; they never draw or enumerate.

gamma_closed, q~ and the prefactor are checked against gamma_bruteforce
and the exact family averages, which walk the latent draws that
instances enumerates.  That check means something only while the closed
forms compute from the point alone.  So none of them may call the
family's shape, its enumerators, its samplers or its closed-form draw
count, directly or through another function of the package.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent

CLOSED_FORMS = ("gamma_closed", "q_tilde", "prefactor")
DRAW_READERS = (
    "_shape", "enumerate_rows", "enumerate_supports", "enumerate_table", "sample_rows",
    "sample_input", "count_supports",
)


def called_names(nodes) -> set[str]:
    """Every name called inside the nodes, bare or as an attribute."""
    names = set()
    for call in (c for node in nodes for c in ast.walk(node)):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def draw_calls(functions: dict[str, list[ast.AST]], roots) -> list[tuple[str, str]]:
    """(root, reader) for every draw reader that a root reaches through
    the module-level functions given by name (every function of a name
    counts)."""
    found = []
    for root in roots:
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for callee in called_names(functions[name]):
                if callee in DRAW_READERS:
                    found.append((root, callee))
                elif callee in functions:
                    todo.append(callee)
    return sorted(set(found))


def function_defs(source: str) -> dict[str, list[ast.AST]]:
    """Module-level function definitions of source, by name."""
    out: dict[str, list[ast.AST]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out.setdefault(node.name, []).append(node)
    return out


def package_functions() -> dict[str, list[ast.AST]]:
    """Every module-level function of the package, by name."""
    functions: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, nodes in function_defs(path.read_text(encoding="utf-8")).items():
            functions.setdefault(name, []).extend(nodes)
    return functions


def test_closed_forms_read_no_draws():
    functions = package_functions()
    assert set(CLOSED_FORMS) <= set(functions)
    assert draw_calls(functions, CLOSED_FORMS) == []


def test_the_check_sees_a_planted_call():
    source = (
        "def gamma_closed(I, point, n):\n"
        "    return helper(point, n)\n"
        "def helper(point, n):\n"
        "    return instances._shape(point, n).k\n"
        "def prefactor(n, T, N):\n"
        "    return len(list(enumerate_rows((1, N), n)))\n"
        "def q_tilde(I, n, T, arity):\n"
        "    return len(instances.enumerate_table((1, n), n))\n"
    )
    assert draw_calls(function_defs(source), CLOSED_FORMS) == [
        ("gamma_closed", "_shape"), ("prefactor", "enumerate_rows"),
        ("q_tilde", "enumerate_table"),
    ]
