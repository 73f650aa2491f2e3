"""Trivariate expectations for the set-comparison families."""

import itertools
import random
from fractions import Fraction

import pytest

from collisionlab.circuits import setcomp_probe
from collisionlab.instances import SuperQuasilatticePoint, super_quasilattice_points
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MultilinearPoly
from collisionlab.polymethod import (
    expected_acceptance,
    extract_polynomial,
    gamma_bruteforce,
    gamma_closed,
    prefactor,
    q_tilde,
)
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.setcomp_poly import assemble_q3, expected_acceptance3_mc
from helpers import mixed_monomials


def random_mixed_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    while True:
        r = rng.randint(0, max_degree)
        factors = [
            IV(rng.choice(("x", "y")), rng.randint(1, n), rng.randint(1, 2 * n))
            for _ in range(r)
        ]
        m = Monomial.from_factors(factors)
        if m is not None:
            return m


def test_gamma3_empty_monomial():
    assert gamma_closed(Monomial.one(), (1, 2, 2), 2) == 1
    assert gamma_bruteforce(Monomial.one(), (1, 2, 2), 2) == 1


def test_gamma3_single_indicator_value():
    m = Monomial.from_factors([IV("x", 1, 3)])
    # S is everything, P(3 in S_X) = 1/2, P(xhat_1 = 3 | in) = 1/2
    assert gamma_closed(m, (1, 2, 2), 2) == Fraction(1, 4)
    assert gamma_bruteforce(m, (1, 2, 2), 2) == Fraction(1, 4)


def test_gamma3_oracle_equivalence_all_monomials_n2():
    points = super_quasilattice_points(2, 1, 1)
    assert points == [(1, 2, 2)]
    monomials = mixed_monomials(2, 2)
    # The brute-force filter: every combination of distinct indicators
    # whose product is a nonzero monomial of that degree.
    variables = [IV(reg, pos, val) for reg in "xy" for pos in (1, 2) for val in range(1, 5)]
    filtered = {
        m
        for r in range(3)
        for combo in itertools.combinations(variables, r)
        if (m := Monomial.from_factors(combo)) is not None and m.degree == r
    }
    assert len(monomials) == len(set(monomials)) == 113
    assert set(monomials) == filtered
    for m in monomials:
        for g, N, M in points:
            assert gamma_closed(m, (g, N, M), 2) == gamma_bruteforce(m, (g, N, M), 2)


def test_gamma3_conflicting_and_guards():
    # value outside the alphabet
    assert gamma_closed(Monomial.from_factors([IV("y", 1, 9)]), (1, 2, 2), 2) == 0
    with pytest.raises(ValueError, match="kappa"):
        gamma_closed(Monomial.one(), (3, 9, 10), 9)


def test_q_tilde3_times_prefactor_equals_gamma3():
    rng = random.Random(10)
    for _ in range(40):
        m = random_mixed_monomial(rng, 2, 2)
        lhs = prefactor(2, 1, (1, 2, 2)) * q_tilde(m, 2, 1, 3).evaluate((1, 2, 2))
        assert lhs == gamma_closed(m, (1, 2, 2), 2)


def test_q_tilde3_degree_bound():
    rng = random.Random(11)
    for _ in range(60):
        m = random_mixed_monomial(rng, 4, 4)
        assert q_tilde(m, 4, 2, 3).total_degree <= 16


def test_prefactor3_value():
    assert prefactor(2, 1, (1, 2, 2)) == Fraction(4, 3)
    assert prefactor(8, 1, (2, 8, 8)) == Fraction(256, 16 * 14)


def test_assemble_q3_constant_inverts_prefactor():
    q3 = assemble_q3(MultilinearPoly.constant(1), 2, 1)
    assert prefactor(2, 1, (1, 2, 2)) * q3.evaluate((1, 2, 2)) == 1


def test_assemble_q3_degree_bound_random_coefficients():
    rng = random.Random(12)
    terms = {}
    for _ in range(6):
        m = random_mixed_monomial(rng, 2, 2)
        terms[m] = QSqrt2(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
    q3 = assemble_q3(MultilinearPoly(terms), 2, 1)
    assert q3.total_degree <= 8


def test_trivariate_identity_exact_at_n2():
    alg = setcomp_probe(2)
    poly = extract_polynomial(alg)
    assert poly.degree <= 2
    q3 = assemble_q3(poly, 2, 1)
    point = SuperQuasilatticePoint(1, 2, 2)
    P_sim = expected_acceptance(alg, point, 2)
    P_poly = expected_acceptance(poly, point, 2)
    assert P_sim == P_poly
    assert P_sim == prefactor(2, 1, point) * q3.evaluate(point)


def test_expected_acceptance3_mc_agrees():
    alg = setcomp_probe(2)
    poly = extract_polynomial(alg)
    point = SuperQuasilatticePoint(1, 2, 2)
    exact = float(expected_acceptance(alg, point, 2))
    mean, stderr = expected_acceptance3_mc(poly, point, 2, samples=300, rng=random.Random(3))
    assert abs(mean - exact) <= 4 * stderr + 1e-9
