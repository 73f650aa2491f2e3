"""Monomial statistics and multilinear polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MultilinearPoly
from collisionlab.qsqrt2 import QSqrt2

factor_lists = st.lists(
    st.tuples(st.sampled_from(("x", "y")), st.integers(1, 5), st.integers(1, 5)),
    max_size=6,
)


def test_conflicting_factors_are_zero():
    assert Monomial.from_factors([IV("x", 1, 2), IV("x", 1, 3)]) is None
    m = Monomial.from_factors([IV("x", 1, 2), IV("x", 1, 2)])
    assert m is not None and m.degree == 1  # Delta^2 = Delta


def test_statistics_and_splits():
    m = Monomial.from_factors(
        [IV("x", 1, 5), IV("x", 2, 5), IV("x", 3, 7), IV("y", 1, 5)]
    )
    assert m.degree == 4
    assert m.value_set() == {5, 7}
    assert m.width() == 2
    assert m.multiplicities("x") == {5: 2, 7: 1}
    assert m.multiplicities("y") == {5: 1}
    assert len(m.register_factors("x")) == 3
    assert m.width("x") == 2 and m.width("y") == 1
    # multiplicities sum back to the register degree
    assert sum(m.multiplicities("x").values()) == 3


@given(factor_lists)
def test_multiplicities_sum_to_register_degree(raw):
    m = Monomial.from_factors(IV(r, p, v) for r, p, v in raw)
    if m is None:
        return
    assert sum(m.multiplicities().values()) == m.degree
    for reg in ("x", "y"):
        assert sum(m.multiplicities(reg).values()) == len(m.register_factors(reg))
        assert m.width(reg) <= len(m.register_factors(reg))
    assert m.value_set() == m.value_set("x") | m.value_set("y")


@given(factor_lists)
def test_canonical_form_is_idempotent(raw):
    m = Monomial.from_factors(IV(r, p, v) for r, p, v in raw)
    if m is None:
        return
    again = Monomial.from_factors(m.factors)
    assert again == m and hash(again) == hash(m)


def test_monomial_evaluate():
    m = Monomial.from_factors([IV("x", 1, 2), IV("x", 3, 4)])
    assert m.evaluate((2, 9, 4, 1)) == 1
    assert m.evaluate((2, 9, 1, 1)) == 0
    with pytest.raises(ValueError):
        m.evaluate((2, 9))  # position 3 missing
    my = Monomial.from_factors([IV("y", 2, 1)])
    with pytest.raises(ValueError):
        my.evaluate((1, 2))  # no y sequence


def test_poly_product_and_evaluate():
    one = MultilinearPoly.constant(1)
    a = MultilinearPoly.indicator(IV("x", 1, 1))
    b = MultilinearPoly.indicator(IV("x", 2, 2))
    p = (a + b) * (one + a.scale(-1))
    # On x = (1, 2): a = 1, b = 1 -> (1+1)*(1-1) = 0
    assert p.evaluate((1, 2)) == QSqrt2(0)
    # On x = (3, 2): a = 0, b = 1 -> 1
    assert p.evaluate((3, 2)) == QSqrt2(1)


def test_degree_tracking():
    terms = {}
    m = Monomial.from_factors([IV("x", i, 1) for i in range(1, 4)])
    terms[m] = QSqrt2(1)
    p = MultilinearPoly(terms)
    assert p.degree == 3
    assert MultilinearPoly().degree == -1
    assert MultilinearPoly.constant(5).degree == 0


def test_square_matches_pointwise_product():
    rng = random.Random(7)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            m = Monomial.from_factors(
                [IV("x", rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            )
            if m is not None:
                terms[m] = QSqrt2(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        p = MultilinearPoly(terms)
        sq = p.square()
        for _ in range(5):
            x = tuple(rng.randint(1, 3) for _ in range(3))
            assert sq.evaluate(x) == p.evaluate(x) * p.evaluate(x)


def test_json_round_trip():
    terms = {
        Monomial.from_factors([IV("x", 1, 2), IV("y", 2, 3)]): QSqrt2(Fraction(1, 3), Fraction(-2, 5)),
        Monomial.one(): QSqrt2(2),
    }
    p = MultilinearPoly(terms)
    assert MultilinearPoly.from_json(p.to_json()) == p
