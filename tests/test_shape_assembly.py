"""Grid assembly by monomial shape against the per-term loop it replaced."""

import random
from fractions import Fraction

import pytest

from collisionlab import polymethod, setcomp_poly
from collisionlab.circuits import setcomp_probe
from collisionlab.lattice import LatticePoly
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MultilinearPoly
from collisionlab.polymethod import assemble_grid_poly, extract_polynomial, q_tilde
from collisionlab.qsqrt2 import QSqrt2


def per_term_assemble(p: MultilinearPoly, n: int, T: int, arity: int):
    """Reference: one q~ product chain per term, added in term order.
    Returns q and whether a partial sum dropped a grid monomial on the way
    (it comes back at the end of the order if a later term restores it)."""
    q = LatticePoly(arity)
    dropped = False
    for m, c in p.terms.items():
        if m.degree > 2 * T:
            raise ValueError(f"degree violation: monomial degree {m.degree} exceeds 2T")
        try:
            beta = c.as_fraction()
        except ValueError as exc:
            raise ValueError(
                f"coefficient of {m!r} has a nonzero sqrt(2) part: {c!r}"
            ) from exc
        total = q + q_tilde(m, n, T, arity).scale(beta)
        dropped = dropped or any(exps not in total.coeffs for exps in q.coeffs)
        q = total
    return q, dropped


def shape_key(m: Monomial) -> tuple:
    return (
        m.width(),
        tuple(sorted(m.multiplicities("x").values())),
        tuple(sorted(m.multiplicities("y").values())),
    )


def random_monomial(rng: random.Random, n: int, max_degree: int, registers: str) -> Monomial:
    """Random canonical monomial on positions 1..n, values 1..2n."""
    while True:
        slots = [(reg, pos) for reg in registers for pos in range(1, n + 1)]
        r = rng.randint(0, min(max_degree, len(slots)))
        m = Monomial.from_factors(
            IV(reg, pos, rng.randint(1, 2 * n)) for reg, pos in rng.sample(slots, r)
        )
        if m is not None:
            return m


def relabel(m: Monomial, rng: random.Random, n: int) -> Monomial:
    """The image of m under a random permutation of the positions of each
    register and one random permutation of the values 1..2n."""
    positions = {reg: rng.sample(range(1, n + 1), n) for reg in "xy"}
    values = rng.sample(range(1, 2 * n + 1), 2 * n)
    return Monomial.from_factors(
        IV(f.register, positions[f.register][f.position - 1], values[f.value - 1])
        for f in m.factors
    )


def random_poly(rng: random.Random, n: int, T: int, registers: str) -> MultilinearPoly:
    """Rational coefficients on random monomials, whose few shapes repeat;
    one monomial in three is followed by a relabelled twin whose
    coefficient cancels it within the shape."""
    terms: dict[Monomial, QSqrt2] = {}
    for _ in range(rng.randint(1, 30)):
        m = random_monomial(rng, n, 2 * T, registers)
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        terms[m] = QSqrt2(c)
        if rng.random() < 1 / 3:
            twin = relabel(m, rng, n)
            if twin not in terms:
                terms[twin] = QSqrt2(-c)
    return MultilinearPoly(terms)


@pytest.fixture(scope="module")
def setcomp8():
    alg = setcomp_probe(8)
    return extract_polynomial(alg), alg.n, alg.T


@pytest.fixture(scope="module")
def mixer8(dumped_mixer8):
    alg, poly = dumped_mixer8
    return poly, alg.n, alg.T


def _same_assembly(p, n, T, arity):
    """Assert the shape assembly equals the per-term one, and return both
    coefficient lists, the reference's sorted, and whether the per-term
    sum dropped a monomial."""
    q = assemble_grid_poly(p, n, T, arity)
    ref, dropped = per_term_assemble(p, n, T, arity)
    assert q == ref
    # evaluate_float sums in dict order, so the order fixes float bits
    return list(q.coeffs.items()), ref.sorted_items(), dropped


# q's exponents in insertion order, ascending: evaluate_float adds in this
# order, so it fixes the float bits of every evaluation.
SETCOMP_PROBE_8_EXPONENTS = [
    (0, 2, 2), (0, 2, 3), (0, 2, 4), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 2, 3), (2, 0, 2),
    (2, 0, 3), (2, 0, 4), (2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3),
]
TWO_QUERY_MIXER_8_EXPONENTS = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3)]


def test_setcomp_probe_8_matches_per_term(setcomp8):
    p, n, T = setcomp8
    items, ref_items, dropped = _same_assembly(p, n, T, 3)
    assert items == ref_items
    assert [exps for exps, _ in items] == SETCOMP_PROBE_8_EXPONENTS
    assert len(p.terms) == 2176
    assert len({shape_key(m) for m in p.terms}) == 5


def test_two_query_mixer_8_matches_per_term(mixer8):
    p, n, T = mixer8
    items, ref_items, dropped = _same_assembly(p, n, T, 2)
    assert items == ref_items
    assert dropped  # a partial sum passes through zero; the order holds anyway
    assert [exps for exps, _ in items] == TWO_QUERY_MIXER_8_EXPONENTS
    assert len(p.terms) == 1912
    assert len({shape_key(m) for m in p.terms}) == 5


@pytest.mark.parametrize("registers, n, T, arity", [
    ("xy", 3, 1, 3),
    ("x", 5, 2, 2),
])
def test_random_polynomials_match_per_term(registers, n, T, arity):
    """Equal and in ascending order on every seed, also where a partial
    per-term sum dropped a monomial (it re-enters that sum at the end)."""
    rng = random.Random(2024 + n)
    dropped_seeds = repeated_shapes = 0
    for _ in range(40):
        p = random_poly(rng, n, T, registers)
        repeated_shapes += len({shape_key(m) for m in p.terms}) < len(p.terms)
        items, ref_items, dropped = _same_assembly(p, n, T, arity)
        assert items == ref_items
        dropped_seeds += dropped
    assert 0 < dropped_seeds < 40
    assert repeated_shapes > 30


@pytest.mark.parametrize("seed", range(40))
def test_q_tilde_depends_only_on_shape(seed):
    rng = random.Random(seed)
    n, T = 4, 2
    m = random_monomial(rng, n, 2 * T, "xy")
    image = relabel(m, rng, n)
    assert shape_key(image) == shape_key(m)
    assert q_tilde(image, n, T, 3) == q_tilde(m, n, T, 3)
    mx = random_monomial(rng, n, 2 * T, "x")
    image_x = relabel(mx, rng, n)
    assert shape_key(image_x) == shape_key(mx)
    assert q_tilde(image_x, n, T, 2) == q_tilde(mx, n, T, 2)


def test_q_tilde3_built_once_per_shape(setcomp8, monkeypatch):
    calls = []

    def counting(m, n, T, arity):
        calls.append(m)
        return q_tilde(m, n, T, arity)

    monkeypatch.setattr(polymethod, "q_tilde", counting)
    p, n, T = setcomp8
    setcomp_poly.assemble_q3(p, n, T)
    assert len(calls) == 5
    assert len({shape_key(m) for m in calls}) == 5
