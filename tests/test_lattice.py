"""Exact lattice-grid polynomials: arithmetic, evaluation, derivatives."""

from fractions import Fraction

import numpy as np
import pytest

from collisionlab.lattice import LatticePoly


def test_build_and_evaluate():
    g = LatticePoly.variable(2, 0)
    N = LatticePoly.variable(2, 1)
    p = (N - g.scale(2)) * (N + LatticePoly.constant(2, 1))
    # (N - 2g)(N + 1) at (g, N) = (3, 10) -> 4 * 11
    assert p.evaluate((3, 10)) == 44
    assert p.total_degree == 2


def test_exact_coefficients():
    p = LatticePoly(2, {(1, 1): Fraction(1, 3), (0, 0): Fraction(-2)})
    assert p.evaluate((3, 2)) == Fraction(0)
    q = p + p.scale(-1)
    assert q.is_zero() and q.total_degree == -1


def test_derivative():
    # d/dN of (N^2 g) is 2 N g; d/dg is N^2
    p = LatticePoly(2, {(1, 2): Fraction(1)})
    assert p.derivative(1) == LatticePoly(2, {(1, 1): Fraction(2)})
    assert p.derivative(0) == LatticePoly(2, {(0, 2): Fraction(1)})
    assert LatticePoly.constant(2, 5).derivative(0).is_zero()


def test_evaluate_float_matches_exact():
    p = LatticePoly(2, {(2, 0): Fraction(1, 4), (1, 1): Fraction(-2, 3), (0, 0): Fraction(5)})
    gs = np.array([1.0, 2.0, 3.5])
    ns = np.array([4.0, 4.25, 6.0])
    vals = p.evaluate_float(gs, ns)
    for g, n, v in zip(gs, ns, vals):
        assert v == pytest.approx(float(p.evaluate((Fraction(g), Fraction(n)))), abs=1e-12)


def test_arity_checks():
    with pytest.raises(ValueError):
        LatticePoly(4)
    with pytest.raises(ValueError):
        LatticePoly(2) + LatticePoly(3)
    with pytest.raises(ValueError):
        LatticePoly(2, {(1, 2, 3): Fraction(1)})


def test_json_round_trip():
    p = LatticePoly(3, {(1, 0, 2): Fraction(-7, 2), (0, 0, 0): Fraction(4)})
    assert LatticePoly.from_json(p.to_json()) == p
