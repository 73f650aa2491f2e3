"""Field axioms and exact comparisons for Q(sqrt(2))."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collisionlab.qsqrt2 import QSqrt2, int_form


def elements(max_num=50, max_den=9):
    rationals = st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )
    return st.builds(QSqrt2, rationals, rationals)


def test_basic_identities():
    assert QSqrt2.sqrt2() * QSqrt2.sqrt2() == QSqrt2(2)
    h = QSqrt2.inv_sqrt2()
    assert h * h == QSqrt2(Fraction(1, 2))
    assert h * QSqrt2.sqrt2() == QSqrt2(1)


def test_inv_sqrt2_power_is_two_to_the_minus_half_k():
    assert QSqrt2.inv_sqrt2_power(0) == QSqrt2(1)
    assert QSqrt2.inv_sqrt2_power(1) == QSqrt2.inv_sqrt2()
    for k in range(9):
        v = QSqrt2.inv_sqrt2_power(k)
        assert v > 0
        assert v * v * (1 << k) == QSqrt2(1)


@given(st.lists(elements(), max_size=8))
def test_int_form_is_integer_pairs_over_the_least_common_denominator(values):
    D, pairs = int_form(values)
    assert D == math.lcm(*(f.denominator for v in values for f in (v.a, v.b)))
    assert all(isinstance(A, int) and isinstance(B, int) for A, B in pairs)
    assert [QSqrt2.over(A, B, D) for A, B in pairs] == values


def test_int_form_of_nothing():
    assert int_form([]) == (1, [])
    assert int_form(iter([QSqrt2(Fraction(1, 6), Fraction(-3, 4))])) == (12, [(2, -9)])


def test_int_form_converts_repeated_objects_and_equal_values_alike():
    half, third = QSqrt2(Fraction(1, 2)), QSqrt2(0, Fraction(-1, 3))
    twin = QSqrt2(Fraction(1, 2))  # equal to half, a distinct object
    values = [half, third, half, twin, third, half]
    assert int_form(values) == (6, [(3, 0), (0, -2), (3, 0), (3, 0), (0, -2), (3, 0)])
    assert int_form(values) == int_form([QSqrt2(v.a, v.b) for v in values])


def test_float_over_has_the_bits_of_the_float_of_over():
    rng = random.Random(3)
    for _ in range(5000):
        D = rng.choice([rng.randint(1, 10**6), rng.randint(1, 99) << rng.randint(0, 80), rng.randint(1, 10**40)])
        A, B = (rng.randint(-10**rng.randint(1, 45), 10**rng.randint(1, 45)) for _ in range(2))
        assert QSqrt2.float_over(A, B, D) == float(QSqrt2.over(A, B, D))

    # Elementwise on arrays it keeps the scalar's bits wherever the ints
    # convert to floats exactly: int64 below 2^53, Python ints past it.
    below, past = (1 << 53) - 1, (1 << 53) + 1

    def check(A, B, D, dtype):
        got = QSqrt2.float_over(np.array(A, dtype=dtype), np.array(B, dtype=dtype), D).tolist()
        assert got == [QSqrt2.float_over(a, b, D) for a, b in zip(A, B)]

    for D in (1, 3, 7, rng.randint(1, below), below):
        A = [below, -below, 0, *(rng.randint(-below, below) for _ in range(200))]
        B = [-below, below, below, *(rng.randint(-below, below) for _ in range(200))]
        check(A, B, D, np.int64)
    for D in (3, below, past, rng.randint(past, 10**40)):
        A = [past, -past, below, *(rng.randint(-10**40, 10**40) for _ in range(200))]
        B = [-past, past, past, *(rng.randint(-10**40, 10**40) for _ in range(200))]
        check(A, B, D, object)
    # Past 2^53 an int64 element rounds on its way to a float, so only
    # Python ints keep the scalar's bits there.
    assert QSqrt2.float_over(np.array([past]), np.array([0]), 3)[0] != QSqrt2.float_over(past, 0, 3)


@given(elements(), elements(), elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements())
def test_additive_and_multiplicative_inverse(a):
    assert a + (-a) == QSqrt2(0)
    if not a.is_zero():
        assert a * (QSqrt2(1) / a) == QSqrt2(1)


@given(elements(), elements())
def test_order_matches_real_embedding(a, b):
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-9:
        assert (a < b) == (fa < fb)
    if a == b:
        assert not a < b and not b < a


@given(elements())
def test_sign_is_exact(a):
    s = a.sign()
    f = float(a)
    if abs(f) > 1e-9:
        assert s == (1 if f > 0 else -1)
    if a.is_zero():
        assert s == 0


def test_as_fraction_guards_irrational():
    assert QSqrt2(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        QSqrt2(0, 1).as_fraction()


@given(elements())
def test_string_round_trip(a):
    assert QSqrt2.from_strings(a.to_strings()) == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt2(1) / QSqrt2(0)
