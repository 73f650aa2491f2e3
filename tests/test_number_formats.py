"""Only qsqrt2 writes exact numbers down.

The integer form of a batch of Q(sqrt(2)) values (integer pairs over the
lcm of their denominators) is qsqrt2.int_form, its inverse QSqrt2.over,
and the "p/q" text of a rational qsqrt2.format_fraction.  No other
module of the package takes an lcm of denominators, rebuilds a QSqrt2
from two Fractions, or formats a numerator and a denominator by hand.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent


def _called(node: ast.AST, name: str) -> bool:
    """node is a call of name, bare or as an attribute (math.lcm)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def _attributes(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def hand_written_number_formats(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if _called(node, "lcm"):
            found.append((node.lineno, "lcm"))
        elif (
            _called(node, "QSqrt2")
            and len(node.args) == 2
            and all(_called(arg, "Fraction") for arg in node.args)
        ):
            found.append((node.lineno, "QSqrt2(Fraction, Fraction)"))
        elif isinstance(node, ast.JoinedStr) and {"numerator", "denominator"} <= _attributes(node):
            found.append((node.lineno, "p/q f-string"))
    return found


def test_only_qsqrt2_writes_exact_numbers_down():
    found = [
        f"{path.name}:{lineno}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "qsqrt2.py"
        for lineno, what in hand_written_number_formats(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_each_pattern():
    source = (
        "d = math.lcm(*dens)\n"
        "v = QSqrt2(Fraction(a, d), Fraction(b, d))\n"
        "s = f'{f.numerator}/{f.denominator}'\n"
    )
    assert [what for _, what in hand_written_number_formats(ast.parse(source))] == [
        "lcm", "QSqrt2(Fraction, Fraction)", "p/q f-string",
    ]
