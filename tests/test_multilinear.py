"""Monomial shapes and multilinear polynomial arithmetic."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MonomialShape, MultilinearPoly
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
    # values {5, 7}; x pins 5 twice and 7 once, y pins 5 once
    assert m.shape() == MonomialShape(width=2, x=(1, 2), y=(1,))
    assert m.shape() is m.shape()  # counted once, then kept
    assert len(m.shape().x) == 2 and len(m.shape().y) == 1
    # multiplicities sum back to the register degree
    assert sum(m.shape().x) == 3
    assert Monomial.one().shape() == MonomialShape(0, (), ())


@given(factor_lists)
def test_multiplicities_sum_to_register_degree(raw):
    m = Monomial.from_factors(IV(r, p, v) for r, p, v in raw)
    if m is None:
        return
    shape = m.shape()
    assert sum(shape.x) + sum(shape.y) == m.degree
    values = {}
    for reg in ("x", "y"):
        register_factors = [f for f in m.factors if f.register == reg]
        values[reg] = {f.value for f in register_factors}
        assert sum(getattr(shape, reg)) == len(register_factors)
        assert len(getattr(shape, reg)) == len(values[reg]) <= len(register_factors)
    assert shape.width == len(values["x"] | values["y"])


def test_shape_matches_a_brute_force_recount():
    """shape() against a plain recount on seeded random two-register
    monomials: each register's values counted with a Counter."""
    rng = random.Random(38)
    slots = [(reg, pos) for reg in "xy" for pos in range(1, 7)]
    for _ in range(500):
        m = Monomial.from_factors(
            IV(reg, pos, rng.randint(1, 5)) for reg, pos in rng.sample(slots, rng.randint(0, 8))
        )
        pinned = {reg: [f.value for f in m.factors if f.register == reg] for reg in "xy"}
        expected = MonomialShape(
            len(set(pinned["x"]) | set(pinned["y"])),
            tuple(sorted(Counter(pinned["x"]).values())),
            tuple(sorted(Counter(pinned["y"]).values())),
        )
        assert m.shape() == expected


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
