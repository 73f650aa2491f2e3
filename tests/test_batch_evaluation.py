"""Batched exact evaluation of acceptance polynomials against the
per-draw MultilinearPoly.evaluate, draw by draw and through the family
averages."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from collisionlab.circuits import (
    REFERENCE_BUILDERS,
    coincidence_probe,
    setcomp_probe,
    two_query_mixer,
)
from collisionlab.instances import (
    QuasilatticePoint,
    SuperQuasilatticePoint,
    count_supports,
    enumerate_supports,
    instance_from_latent,
    sample_rows,
)
from collisionlab import multilinear
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MultilinearPoly, code_lookup
from collisionlab.polymethod import (
    _exact_acceptances,
    all_monomials,
    draw_table,
    expected_acceptance,
    expected_acceptance_mc,
    extract_polynomial,
    gamma_bruteforce_sweep,
)
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.setcomp_poly import expected_acceptance3_mc
from collisionlab.simulator import acceptance_probability
from helpers import with_factor


def random_coefficient(rng: random.Random) -> QSqrt2:
    def frac():
        return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 12))

    kind = rng.randrange(3)
    if kind == 0:
        return QSqrt2(frac())  # rational
    if kind == 1:
        return QSqrt2(0, frac())  # pure sqrt(2)
    return QSqrt2(frac(), frac())


def random_poly(rng: random.Random, n: int, registers: tuple, top: int, terms: int = 12, coefficient=None):
    """A constant term, random monomials of degree 1-3, and for each
    monomial a partner extending it with the negated coefficient, so the
    two cancel on every draw that hits both.  coefficient(rng) draws the
    coefficients (random_coefficient by default)."""
    coefficient = coefficient or random_coefficient
    out = {Monomial.one(): coefficient(rng)}
    for _ in range(terms):
        m = Monomial.from_factors(
            IV(rng.choice(registers), rng.randint(1, n), rng.randint(1, top))
            for _ in range(rng.randint(1, 3))
        )
        if m is None:
            continue
        c = coefficient(rng)
        out[m] = c
        ext = with_factor(m, IV(rng.choice(registers), rng.randint(1, n), rng.randint(1, top)))
        if ext is not None and ext != m:
            out[ext] = -c
    return MultilinearPoly(out)


def per_draw_mc(poly: MultilinearPoly, rows, n: int) -> tuple[float, float]:
    """Mean and standard error of poly over table rows, one evaluate per row."""
    values = [float(poly.evaluate(tuple(row[:n]), tuple(row[n:]) or None)) for row in rows]
    samples = len(values)
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
    return mean, math.sqrt(var / samples)


def per_draw_mean(poly: MultilinearPoly, rows) -> QSqrt2:
    values = [poly.evaluate(x, y) for x, y in rows]
    return sum(values, QSqrt2(0)) / QSqrt2(len(values))


def assert_batch_is_evaluate(poly: MultilinearPoly, draws: np.ndarray, n: int):
    """evaluate_batch equals evaluate on every row; returns its (A, B, D)."""
    A, B, D = poly.evaluate_batch(draws, n)
    assert len(A) == len(B) == len(draws)
    for row, a, b in zip(draws.tolist(), A.tolist(), B.tolist()):
        x, y = tuple(row[:n]), (tuple(row[n:]) or None)
        assert QSqrt2(Fraction(a, D), Fraction(b, D)) == poly.evaluate(x, y)
    return A, B, D


def random_draws(rng: random.Random, width: int, top: int, count: int = 40) -> np.ndarray:
    return np.array([[rng.randint(1, top) for _ in range(width)] for _ in range(count)], dtype=np.int64)


@pytest.mark.parametrize("registers", [("x",), ("x", "y")])
def test_batch_matches_evaluate_draw_by_draw(registers):
    rng = random.Random(11)
    n, top = 4, 5
    for _ in range(25):
        assert_batch_is_evaluate(random_poly(rng, n, registers, top), random_draws(rng, n * len(registers), top), n)


def test_batch_takes_int64_below_2_53_and_python_ints_from_it():
    draws = np.ones((3, 2), dtype=np.int64)
    for coeff, kind in [
        (QSqrt2((1 << 53) - 1), np.int64),  # numerator sum just below
        (QSqrt2(1 << 53), object),  # numerator sum at 2^53
        (QSqrt2(0, Fraction(1, (1 << 53) - 1)), np.int64),  # D just below
        (QSqrt2(0, Fraction(1, 1 << 53)), object),  # D at 2^53
    ]:
        poly = MultilinearPoly({Monomial.from_factors([IV("x", 1, 1)]): coeff})
        A, B, D = assert_batch_is_evaluate(poly, draws, 2)
        assert A.dtype == B.dtype == kind


def denominator_past_2_53(rng: random.Random) -> QSqrt2:
    return QSqrt2(0, Fraction(rng.randint(-6, 6) or 1, (1 << 53) + rng.randint(1, 99)))


def numerators_past_2_53(rng: random.Random) -> QSqrt2:
    return QSqrt2(Fraction((rng.randint(-6, 6) or 1) << 50, rng.randint(1, 12)), rng.randint(-3, 3))


@pytest.mark.parametrize("coefficient", [denominator_past_2_53, numerators_past_2_53])
def test_python_int_path_is_exact_and_bitwise_the_per_draw_estimate(coefficient):
    rng = random.Random(12)
    point = QuasilatticePoint(2, 8)
    for _ in range(4):
        poly = random_poly(rng, 4, ("x",), 4, coefficient=coefficient)
        A, B, _ = assert_batch_is_evaluate(poly, sample_rows(point, 4, 60, random.Random(2)), 4)
        assert A.dtype == B.dtype == object
        got = expected_acceptance_mc(poly, point, 4, 300, random.Random(3))
        assert got == per_draw_mc(poly, sample_rows(point, 4, 300, random.Random(3)).tolist(), 4)


@pytest.mark.parametrize("draw_top, pin_top", [(3, 9), (3, 10**20), (9, 3)])
def test_batch_reads_values_past_every_draw_and_every_pin(draw_top, pin_top):
    # Pins above every drawn value hit nothing, and a pin of 10**20 takes
    # codes past int64; drawn values above every pin miss every term.
    rng = random.Random(13)
    n = 4
    for _ in range(10):
        poly = random_poly(rng, n, ("x", "y"), 3)
        for _ in range(4):
            m = Monomial.from_factors([IV("x", rng.randint(1, n), pin_top), IV("y", rng.randint(1, n), 2)])
            poly.terms[m] = random_coefficient(rng)
        assert_batch_is_evaluate(poly, random_draws(rng, 2 * n, draw_top), n)


def test_searchsorted_lookup_gives_the_dense_results(monkeypatch):
    rng = random.Random(14)
    n, point = 4, QuasilatticePoint(2, 8)
    cases = [(random_poly(rng, n, ("x", "y"), 5), random_draws(rng, 2 * n, 6)) for _ in range(6)]
    cases.append((extract_polynomial(two_query_mixer(4)), sample_rows(point, n, 200, random.Random(5))))
    monomials = list(all_monomials(n, 2))
    dense = [poly.evaluate_batch(draws, n) for poly, draws in cases]
    dense_sweep = gamma_bruteforce_sweep(monomials, point, n)
    monkeypatch.setattr(multilinear, "_DENSE_BINS", 1)
    for poly, draws in cases:
        terms = list(poly.terms)
        for members, _, _, bins in code_lookup(terms, draws, n):
            if terms[members[0]].degree:
                assert bins == len(members) + 1  # one bin per term, one for the misses
    for (poly, draws), (A, B, D) in zip(cases, dense):
        a, b, d = assert_batch_is_evaluate(poly, draws, n)
        assert (a.tolist(), b.tolist(), d) == (A.tolist(), B.tolist(), D)
    assert gamma_bruteforce_sweep(monomials, point, n) == dense_sweep


def test_batch_of_the_zero_polynomial_is_zero():
    A, B, D = MultilinearPoly().evaluate_batch(np.ones((3, 2), dtype=np.int64), 2)
    assert (A.tolist(), B.tolist(), D) == ([0, 0, 0], [0, 0, 0], 1)


def test_batch_rejects_factors_without_a_sequence_entry():
    draws = np.ones((3, 4), dtype=np.int64)
    beyond_n = MultilinearPoly({Monomial.from_factors([IV("x", 5, 1)]): QSqrt2(1)})
    with pytest.raises(ValueError, match="no matching sequence entry"):
        beyond_n.evaluate_batch(draws, 4)
    y_on_collision = MultilinearPoly({Monomial.from_factors([IV("y", 1, 1)]): QSqrt2(1)})
    with pytest.raises(ValueError, match="no matching sequence entry"):
        y_on_collision.evaluate_batch(draws, 4)
    with pytest.raises(ValueError, match="no matching sequence entry"):
        beyond_n.evaluate_batch(np.ones((3, 8), dtype=np.int64), 4)
    with pytest.raises(ValueError, match="columns"):
        y_on_collision.evaluate_batch(np.ones((3, 5), dtype=np.int64), 4)


def test_empty_batch_is_a_value_error():
    poly = MultilinearPoly.constant(1)
    with pytest.raises(ValueError, match="empty batch"):
        poly.evaluate_batch(np.empty((0, 4), dtype=np.int64), 4)
    with pytest.raises(ValueError, match="empty batch"):
        expected_acceptance_mc(poly, QuasilatticePoint(1, 4), 4, 0, random.Random(0))
    # The circuit path simulates each row and raises the same way.
    alg = coincidence_probe(4)
    with pytest.raises(ValueError, match="empty batch"):
        _exact_acceptances(alg, draw_table([], QuasilatticePoint(1, 4), 4), 4)
    with pytest.raises(ValueError, match="empty batch"):
        expected_acceptance_mc(alg, QuasilatticePoint(1, 4), 4, 0, random.Random(0))


COLLISION_POINTS_N4 = [
    QuasilatticePoint(g, N)
    for g in range(1, 5)
    for N in range(4, 13)
    if N % g == 0 and N // g <= 4 and count_supports(QuasilatticePoint(g, N), 4) <= 10_000
]


def test_exact_means_on_the_enumerated_collision_families():
    rng = random.Random(5)
    polys = [extract_polynomial(coincidence_probe(4)), extract_polynomial(two_query_mixer(4))]
    polys += [random_poly(rng, 4, ("x",), 4) for _ in range(3)]
    assert len(COLLISION_POINTS_N4) == 8
    for point in COLLISION_POINTS_N4:
        rows = [(latent.seqs[0][:4], None) for latent in enumerate_supports(point, 4)]
        for poly in polys:
            assert expected_acceptance(poly, point, 4) == per_draw_mean(poly, rows)


def test_exact_mean_on_the_setcomp_family_at_n2():
    rng = random.Random(6)
    point = SuperQuasilatticePoint(1, 2, 2)
    rows = [(latent.seqs[0][:2], latent.seqs[1][:2]) for latent in enumerate_supports(point, 2)]
    polys = [extract_polynomial(setcomp_probe(2))]
    polys += [random_poly(rng, 2, ("x", "y"), 4) for _ in range(3)]
    for poly in polys:
        assert expected_acceptance(poly, point, 2) == per_draw_mean(poly, rows)


def test_collision_mc_is_bitwise_the_per_draw_estimate():
    rng = random.Random(7)
    polys = [extract_polynomial(two_query_mixer(4)), random_poly(rng, 4, ("x",), 4)]
    for poly in polys:
        for point in (QuasilatticePoint(1, 4), QuasilatticePoint(2, 8)):
            got = expected_acceptance_mc(poly, point, 4, 300, random.Random(3))
            rows = sample_rows(point, 4, 300, random.Random(3)).tolist()
            assert got == per_draw_mc(poly, rows, 4)


def test_setcomp_mc_is_bitwise_the_per_draw_estimate():
    rng = random.Random(8)
    cases = [
        (extract_polynomial(setcomp_probe(8)), 8, SuperQuasilatticePoint(1, 8, 8)),
        (random_poly(rng, 3, ("x", "y"), 6), 3, SuperQuasilatticePoint(1, 3, 3)),
    ]
    for poly, n, point in cases:
        got = expected_acceptance3_mc(poly, point, n, 200, random.Random(4))
        rows = sample_rows(point, n, 200, random.Random(4)).tolist()
        assert got == per_draw_mc(poly, rows, n)


@pytest.mark.parametrize("name, point, n", [
    ("coincidence-4", QuasilatticePoint(2, 6), 4),
    ("two-query-4", QuasilatticePoint(4, 8), 4),
    ("setcomp-probe-2", SuperQuasilatticePoint(1, 2, 3), 2),
])
def test_circuit_average_over_rows_is_the_average_over_latent_draws(name, point, n):
    # white-box reference: one Instance per latent draw, built by instances
    alg = REFERENCE_BUILDERS[name]()
    values = [
        acceptance_probability(alg, instance_from_latent(latent, n))
        for latent in enumerate_supports(point, n)
    ]
    want = sum(values, QSqrt2(0)) / QSqrt2(len(values))
    assert expected_acceptance(alg, point, n) == want
    assert expected_acceptance(extract_polynomial(alg), point, n) == want
