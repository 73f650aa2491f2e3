"""Only the simulator takes a mode.

simulator.final_acceptance and acceptance_probability read a circuit's
final state exactly or in floats, and the CLI's --mode options choose
between the two.  Every other function of the package computes one
answer with one return type: the set-comparison test returns its exact
Fraction, Grover search its numpy distribution, and a caller that wants
a float rounds the exact answer itself.  So no function outside
simulator.py takes a parameter named mode.
"""

import ast
from pathlib import Path

import collisionlab

PACKAGE = Path(collisionlab.__file__).resolve().parent


def mode_parameters(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, function name) of every function or lambda with a
    parameter named mode, in any position, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(a is not None and a.arg == "mode" for a in params):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_only_the_simulator_takes_a_mode():
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "simulator.py"
        for lineno, name in mode_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_each_mode_parameter():
    source = (
        'def probability(inst, mode="exact"):\n'
        '    pass\n'
        'def decide(inst, *, mode):\n'
        '    pass\n'
        'class Search:\n'
        '    async def run(self, mode, /):\n'
        '        pick = lambda mode: mode\n'
        'def report(args):\n'
        '    return args.mode == "float"\n'
        'def read(path, modes=("r",), **kwargs):\n'
        '    open(path, mode="r")\n'
    )
    assert mode_parameters(ast.parse(source)) == [
        (1, "probability"), (3, "decide"), (6, "run"), (7, "<lambda>"),
    ]
