"""circuits.digit_layer, the one builder that puts a small operator on one
register, gives the very layers that the register-by-register builders
in tests/helpers.py give: equal int_arrays(), dtypes included."""

import pytest

from collisionlab.circuits import (
    diffusion_matrix,
    digit_layer,
    hadamard_matrix,
    index_register_layer,
    query_space,
)
from collisionlab.qsqrt2 import ONE, ZERO, QSqrt2
from collisionlab.simulator import StateSpace
from helpers import (
    assert_same_int_arrays,
    reference_index_register_layer,
    reference_pair_bit_hadamard,
    reference_workspace_bit_layer,
)


def cycle_matrix(m: int) -> list[list[QSqrt2]]:
    """The permutation c -> c + 1 mod m: not symmetric, so a transposed
    embedding shows."""
    return [[ONE if r == (c + 1) % m else ZERO for c in range(m)] for r in range(m)]


# A rotation by pi/4: orthogonal, entries +-1/sqrt 2, and not symmetric.
ROTATION = [[QSqrt2.inv_sqrt2(), -QSqrt2.inv_sqrt2()], [QSqrt2.inv_sqrt2(), QSqrt2.inv_sqrt2()]]


@pytest.mark.parametrize("kind", ["collision", "setcomp"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_index_register_operators_match_the_reference(kind, n):
    space = query_space(kind, n)
    m = space.index_size
    for small in (hadamard_matrix(m.bit_length() - 1), diffusion_matrix(m), cycle_matrix(m)):
        want = reference_index_register_layer(space, small)
        assert_same_int_arrays(digit_layer(space, small, 2), want)
        assert_same_int_arrays(index_register_layer(space, small), want)


@pytest.mark.parametrize("gate", [hadamard_matrix(1), ROTATION], ids=["hadamard", "rotation"])
def test_every_workspace_bit_matches_the_reference(gate):
    space = query_space("collision", 8)
    assert space.workspace_bits == 4
    for bit in range(space.workspace_bits):
        layer = digit_layer(space, gate, 2 * space.index_size << bit)
        assert_same_int_arrays(layer, reference_workspace_bit_layer(space, bit, gate))
        assert layer.is_orthogonal()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_erasing_pair_bit_matches_the_reference(n):
    two_n = 2 * n
    space = StateSpace(index_size=2 * two_n)
    layer = digit_layer(space, hadamard_matrix(1), 2 * two_n)
    assert_same_int_arrays(layer, reference_pair_bit_hadamard(space, two_n))


def test_the_stride_and_size_must_tile_the_basis():
    space = query_space("collision", 2)  # dim 2^2 * 2 * 2 = 16
    h = hadamard_matrix(1)
    with pytest.raises(ValueError, match="must divide dim"):
        digit_layer(space, h, 0)
    with pytest.raises(ValueError, match="must divide dim"):
        digit_layer(space, h, -2)
    with pytest.raises(ValueError, match="must divide dim"):
        digit_layer(space, h, 16)  # the digit would run past the top ordinal
    with pytest.raises(ValueError, match="must divide dim"):
        digit_layer(space, diffusion_matrix(3), 2)
    with pytest.raises(ValueError, match="must divide dim"):
        digit_layer(space, [], 2)
    assert digit_layer(space, h, 8).is_orthogonal()  # the top workspace bit


def test_a_non_square_operator_is_refused():
    wide = [[ONE, ZERO, ONE], [ZERO, ONE, ONE]]
    with pytest.raises(ValueError, match="square"):
        digit_layer(StateSpace(index_size=2), wide, 2)
    with pytest.raises(ValueError, match="square"):
        index_register_layer(StateSpace(index_size=2), wide)
    with pytest.raises(ValueError, match="square"):
        digit_layer(StateSpace(index_size=2), [[ONE], [ZERO, ONE]], 2)
