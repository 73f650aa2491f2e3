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
    sample_input,
)
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MultilinearPoly
from collisionlab.polymethod import (
    _exact_acceptances,
    draw_table,
    expected_acceptance,
    expected_acceptance_mc,
    extract_polynomial,
)
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.setcomp_poly import expected_acceptance3_mc
from collisionlab.simulator import acceptance_probability


def random_coefficient(rng: random.Random) -> QSqrt2:
    def frac():
        return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 12))

    kind = rng.randrange(3)
    if kind == 0:
        return QSqrt2(frac())  # rational
    if kind == 1:
        return QSqrt2(0, frac())  # pure sqrt(2)
    return QSqrt2(frac(), frac())


def random_poly(rng: random.Random, n: int, registers: tuple, top: int, terms: int = 12):
    """A constant term, random monomials of degree 1-3, and for each
    monomial a partner extending it with the negated coefficient, so the
    two cancel on every draw that hits both."""
    out = {Monomial.one(): random_coefficient(rng)}
    for _ in range(terms):
        m = Monomial.from_factors(
            IV(rng.choice(registers), rng.randint(1, n), rng.randint(1, top))
            for _ in range(rng.randint(1, 3))
        )
        if m is None:
            continue
        c = random_coefficient(rng)
        out[m] = c
        ext = m.with_factor(IV(rng.choice(registers), rng.randint(1, n), rng.randint(1, top)))
        if ext is not None and ext != m:
            out[ext] = -c
    return MultilinearPoly(out)


def per_draw_mc(poly: MultilinearPoly, draws) -> tuple[float, float]:
    values = [float(poly.evaluate(inst.x, inst.y)) for inst in draws]
    samples = len(values)
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
    return mean, math.sqrt(var / samples)


def per_draw_mean(poly: MultilinearPoly, rows) -> QSqrt2:
    values = [poly.evaluate(x, y) for x, y in rows]
    return sum(values, QSqrt2(0)) / QSqrt2(len(values))


@pytest.mark.parametrize("registers", [("x",), ("x", "y")])
def test_batch_matches_evaluate_draw_by_draw(registers):
    rng = random.Random(11)
    n, top = 4, 5
    width = n * len(registers)
    for _ in range(25):
        poly = random_poly(rng, n, registers, top)
        draws = np.array(
            [[rng.randint(1, top) for _ in range(width)] for _ in range(40)], dtype=np.int64
        )
        A, B, D = poly.evaluate_batch(draws, n)
        assert len(A) == len(B) == len(draws)
        for row, a, b in zip(draws.tolist(), A, B):
            x, y = tuple(row[:n]), (tuple(row[n:]) if len(registers) == 2 else None)
            assert QSqrt2(Fraction(a, D), Fraction(b, D)) == poly.evaluate(x, y)


def test_batch_of_the_zero_polynomial_is_zero():
    A, B, D = MultilinearPoly().evaluate_batch(np.ones((3, 2), dtype=np.int64), 2)
    assert (A, B, D) == ([0, 0, 0], [0, 0, 0], 1)


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
        rows = [(latent.xhat[:4], None) for latent in enumerate_supports(point, 4)]
        for poly in polys:
            assert expected_acceptance(poly, point, 4) == per_draw_mean(poly, rows)


def test_exact_mean_on_the_setcomp_family_at_n2():
    rng = random.Random(6)
    point = SuperQuasilatticePoint(1, 2, 2)
    rows = [(latent.xhat[:2], latent.yhat[:2]) for latent in enumerate_supports(point, 2)]
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
            draw_rng = random.Random(3)
            want = per_draw_mc(poly, (sample_input(point, 4, draw_rng) for _ in range(300)))
            assert got == want


def test_setcomp_mc_is_bitwise_the_per_draw_estimate():
    rng = random.Random(8)
    cases = [
        (extract_polynomial(setcomp_probe(8)), 8, SuperQuasilatticePoint(1, 8, 8)),
        (random_poly(rng, 3, ("x", "y"), 6), 3, SuperQuasilatticePoint(1, 3, 3)),
    ]
    for poly, n, point in cases:
        got = expected_acceptance3_mc(poly, point, n, 200, random.Random(4))
        draw_rng = random.Random(4)
        want = per_draw_mc(poly, (sample_input(point, n, draw_rng) for _ in range(200)))
        assert got == want


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
