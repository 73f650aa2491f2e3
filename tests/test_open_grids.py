"""Float evaluation on open grids against the dense evaluation it replaced,
and the derivative search that evaluates only where its maximum can be
against the full-grid search it replaced."""

import random
from fractions import Fraction

import numpy as np
import pytest

from collisionlab.degreebound import (
    _grid_argmax, chain_region, family, variant_of, weighted_max_derivative,
)
from collisionlab.lattice import LatticePoly
from helpers import full_grid_max_derivative, search_key


def dense_evaluate_float(q: LatticePoly, *grids: np.ndarray) -> np.ndarray:
    """Reference: every term starts from a full array of its coefficient
    and every factor is taken at full size."""
    total = np.zeros(np.broadcast(*grids).shape)
    for exps, c in q.coeffs.items():
        term = np.full_like(total, float(c))
        for grid, e in zip(grids, exps):
            if e:
                term = term * grid**e
        total = total + term
    return total


def assert_same_bits(q: LatticePoly, axes):
    open_grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    dense_grids = np.meshgrid(*axes, indexing="ij")
    expected = dense_evaluate_float(q, *dense_grids)
    for grids in (open_grids, dense_grids):
        got = q.evaluate_float(*grids)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def random_fraction(rng: random.Random) -> Fraction:
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
    if kind == 1:  # large numerator and denominator
        return Fraction(rng.randint(-10**40, 10**40) or 1, rng.randint(1, 10**25))
    return Fraction(-rng.randint(1, 10**12), rng.randint(1, 7))


def random_poly(rng: random.Random, arity: int) -> LatticePoly:
    coeffs = {(0,) * arity: random_fraction(rng)}  # a constant term
    for i in range(arity):  # single-variable terms
        exps = [0] * arity
        exps[i] = rng.randint(1, 8)
        coeffs[tuple(exps)] = random_fraction(rng)
    for _ in range(rng.randint(3, 25)):
        coeffs[tuple(rng.randint(0, 8) for _ in range(arity))] = random_fraction(rng)
    items = list(coeffs.items())
    rng.shuffle(items)  # the order of addition is part of the bits
    return LatticePoly(arity, dict(items))


# Different lengths per axis, so a swapped axis changes the shape.
AXES = {
    2: [np.linspace(-1.5, 2.0, 13), np.linspace(8.0, 8.4, 11)],
    3: [np.linspace(1.0, 2.0, 9), np.linspace(-0.5, 8.08, 7), np.linspace(8.0, 8.08, 6)],
}


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_random_polynomials_match_dense_reference(arity, seed):
    assert_same_bits(random_poly(random.Random(1000 * arity + seed), arity), AXES[arity])


@pytest.mark.parametrize("arity", [2, 3])
def test_zero_and_constant_polynomials_match_dense_reference(arity):
    assert_same_bits(LatticePoly(arity), AXES[arity])
    assert_same_bits(LatticePoly.constant(arity, Fraction(-10**30, 7)), AXES[arity])


@pytest.mark.parametrize("name", ["setcomp_probe(8)", "dumped two_query_mixer(8)"])
def test_chain_partials_match_dense_reference(assembled, name):
    alg, q, variant = assembled[name]
    region = chain_region(alg.n, alg.T, 2, variant)
    resolution = family(variant).grid_resolution
    axes = [np.linspace(lo, hi, resolution) for lo, hi in region]
    for i in range(q.arity):
        assert_same_bits(q.derivative(i), axes)


# (resolution, refinement rounds); None is the default resolution.
SEARCH_SETTINGS = [(None, 2), (7, 0), (2, 1)]


@pytest.mark.parametrize("resolution, rounds", SEARCH_SETTINGS)
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_derivative_search_matches_full_grid_on_random_polynomials(seed, arity, resolution, rounds):
    q = random_poly(random.Random(1000 * arity + seed), arity)
    args = (q, 8, 1, 2, resolution, rounds)  # on chain_region(8, 1, 2) of q's family
    assert search_key(weighted_max_derivative(*args)) == search_key(full_grid_max_derivative(*args))


# The AXES regions reach past every chain rectangle (negative g, a long N
# axis), so one round of the search is compared on them directly.
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_grid_argmax_matches_full_grid_on_random_polynomials_off_the_chain_region(seed, arity):
    q = random_poly(random.Random(1000 * arity + seed), arity)
    for resolution in (family(variant_of(q)).grid_resolution, 7, 2):
        axes = [np.linspace(ax[0], ax[-1], resolution) for ax in AXES[arity]]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        for i in range(arity):
            partial = q.derivative(i)
            for weight in (1.0, 0.4):
                vals = np.abs(partial.evaluate_float(*grids)) * weight
                flat = int(np.argmax(vals))
                value, at = _grid_argmax(partial, axes, weight)
                assert (float.hex(value), at) == (float.hex(float(vals.flat[flat])), flat)


# At most this many points per partial per round reach evaluate_float on
# setcomp_probe(8)'s q, against 64**3 = 262,144 on the whole grid.
SETCOMP_EXACT_POINTS = 8


def test_derivative_search_evaluates_few_points_exactly(assembled, evaluation_sizes):
    alg, q, _ = assembled["setcomp_probe(8)"]
    weighted_max_derivative(q, alg.n, alg.T, 2)
    assert len(evaluation_sizes) == 3 * 3  # rounds x partials
    assert max(evaluation_sizes) <= SETCOMP_EXACT_POINTS, evaluation_sizes
