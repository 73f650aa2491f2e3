"""No module of the package reads the environment.

A report echoes its config and seed, and those alone must produce it
byte for byte.  A setting read from the environment would change the
results behind an unchanged echo, as the enumeration cap once did, so
every setting is an argument or a command-line option and no module
reads os.environ or os.getenv.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent


def environment_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every use of os.environ, os.environb, os.getenv or
    os.getenvb, as an attribute of a module or imported from it, sorted."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in names]
    return sorted(found)


def test_no_module_reads_the_environment():
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name in environment_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_each_environment_read():
    source = (
        'import os\n'
        'from os import getenv as read\n'
        'cap = os.environ.get("CAP", "0")\n'
        'def limit():\n'
        '    return int(os.getenv("LIMIT") or read("L"))\n'
        'def raw(os):\n'
        '    return os.environb[b"X"]\n'
        'def fine(args, env):\n'
        '    return args.environment, env["environ"], os.path.join("a", "b")\n'
    )
    assert environment_reads(ast.parse(source)) == [
        (2, "getenv"), (3, "environ"), (5, "getenv"), (7, "environb"),
    ]
