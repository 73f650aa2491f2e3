"""Only instances decides how a kind lays out its registers.

instances.KIND_REGISTERS names each kind's registers, x for collision
inputs and x then y for set comparison, and every size the two families
differ in is len(registers) * n: the alphabet, the query addresses, the
index register of the standard-oracle space.  Everywhere else the layout
is read from that table, Instance.registers or Instance.row, so no other
module of the package compares a kind with == to a kind name, or picks a
value by a conditional expression on a kind.  The != input checks stay:
they reject an input, they do not spell out a layout.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import collisionlab
from collisionlab.circuits import (
    accept_if_first_is,
    always_accept,
    coincidence_probe,
    query_space,
    setcomp_probe,
    two_query_mixer,
)
from collisionlab.simulator import StateSpace

PACKAGE = Path(collisionlab.__file__).resolve().parent

KINDS = ("collision", "setcomp")
KIND_NAMES = ("kind", "variant")  # what the package calls a value that holds a kind


def _is_kind_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in KINDS


def _is_kind(node: ast.AST) -> bool:
    """A name or attribute that holds a kind: kind, inst.kind, variant."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in KIND_NAMES


def kind_branches(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every == between a kind and a kind literal, and of
    every conditional expression whose test reads a kind or a kind
    literal, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if isinstance(op, ast.Eq) and (
                    (_is_kind(a) and _is_kind_literal(b)) or (_is_kind_literal(a) and _is_kind(b))
                ):
                    found.append((node.lineno, "=="))
        elif isinstance(node, ast.IfExp):
            if any(_is_kind(n) or _is_kind_literal(n) for n in ast.walk(node.test)):
                found.append((node.lineno, "if-else"))
    return sorted(found)


def test_only_instances_branches_on_a_kind():
    found = [
        f"{path.name}:{lineno}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "instances.py"
        for lineno, what in kind_branches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_each_branch():
    source = (
        'size = n if inst.kind == "collision" else 2 * n\n'
        'if kind == "setcomp":\n'
        '    pass\n'
        'wide = "setcomp" == self.kind\n'
        'top = 2 * n if variant in ("setcomp",) else n\n'
        'ok = inst.kind != "setcomp"\n'
        'found = result.decision == "collision"\n'
        'query = standard if self.oracle_kind == "standard" else erasing\n'
        'names = KIND_REGISTERS["setcomp"]\n'
    )
    assert kind_branches(ast.parse(source)) == [
        (1, "=="), (1, "if-else"), (2, "=="), (4, "=="), (5, "if-else"),
    ]


# ---------------------------------------------------------------------------
# the layout reproduces the spaces and circuits it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 17))
def test_query_space_is_the_two_spaces_it_replaced(n):
    """The collision space indexed n addresses with an answer field of
    n.bit_length() bits; the set-comparison space 2n and (2n).bit_length()."""
    for kind, size in (("collision", n), ("setcomp", 2 * n)):
        bits = size.bit_length()
        want = StateSpace(index_size=size, workspace_bits=bits, answer_offset=0, answer_bits=bits)
        got = query_space(kind, n)
        assert [getattr(got, a) for a in StateSpace.__slots__] == [
            getattr(want, a) for a in StateSpace.__slots__
        ]


# sha256 of json.dumps(builder(n).to_json()), taken from the two probe
# builders before they shared one body, and from the other reference
# circuits before circuits.digit_layer built their register layers
PROBE_SHA256 = [
    (always_accept, 4, "4d1ddda0257fb769e31c953e00e9f7999345e09ad80a499bd1cde3d77bf1e188"),
    (accept_if_first_is, 2, "c83820e2c428fa74fc1bd87aa288b13b766473cf5d9d8232f0c6d281cbff349d"),
    (accept_if_first_is, 4, "8c2131d2dc86a11a010c944af656ebbb53e9741363019d1ff66a2ec41e652dbd"),
    (two_query_mixer, 2, "0c0f012eb84e29631e50580e98802f88e81698e65fae359f40a97ffa64f48588"),
    (two_query_mixer, 4, "fd52b2e98f46032606c409df5bab661c4a6177158e706dfffb419d880c265a0a"),
    (two_query_mixer, 8, "292c74e2a70f2acdc551258a5ac702fe690aeb6d67229416d9a05ac3b8d07d7b"),
    (coincidence_probe, 2, "3d2c873e53c2f722b186eb56319d1a0e46c920783c7e108bd8bcb0528cd0ac0c"),
    (coincidence_probe, 4, "d6a8a23a00825dfc0f60785b9ed66df36016d633c958cc64b3c4595a6bf2b682"),
    (coincidence_probe, 8, "75b140992394dd83778f99291fa0f65fa360291dc31650585ad3a3dccb201812"),
    (setcomp_probe, 1, "61ddac5083e223ff94eef3fc53c394c9afffce5bbd90cc0e4feb5ff133b03a05"),
    (setcomp_probe, 2, "c706ee330abdfb8320d3b209f3730bedb4389edfa4bc6c3d9c3c3ee1f5efc108"),
    (setcomp_probe, 4, "7d4df4553db557e906624c0c032d02b2e7da797e1ac432368165cf7faca54fe5"),
    (setcomp_probe, 8, "df7705425b51d74e4130c6e6260529f57135cc785e9a5c9b101bb610a5e4afab"),
]


@pytest.mark.parametrize("builder, n, digest", PROBE_SHA256)
def test_probe_circuits_are_unchanged(builder, n, digest):
    assert hashlib.sha256(json.dumps(builder(n).to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize("builder, n, message", [
    (coincidence_probe, 6, "n must be a power of two"),
    (setcomp_probe, 3, "2n must be a power of two"),
])
def test_probes_keep_their_own_size_checks(builder, n, message):
    with pytest.raises(ValueError, match=message):
        builder(n)
