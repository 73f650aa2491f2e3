"""Extraction, monomial expectations and the prefactor identity."""

import random
from fractions import Fraction

import pytest

from collisionlab.circuits import (
    accept_if_first_is,
    always_accept,
    coincidence_probe,
    setcomp_probe,
    two_query_mixer,
)
from collisionlab.instances import (
    ConfigError,
    Instance,
    QuasilatticePoint,
    divisor_points,
    enumerate_rows,
    kappa,
    quasilattice_points,
    super_quasilattice_points,
)
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial, MonomialShape, MultilinearPoly
from collisionlab.polymethod import (
    all_monomials,
    assemble_q,
    expected_acceptance,
    expected_acceptance_mc,
    extract_polynomial,
    gamma_bruteforce,
    gamma_bruteforce_sweep,
    gamma_closed,
    prefactor,
    q_tilde,
)
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.simulator import acceptance_probability
from helpers import all_collision_sequences, hit_counts


def random_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    while True:
        r = rng.randint(0, max_degree)
        positions = rng.sample(range(1, n + 1), min(r, n))
        m = Monomial.from_factors(
            IV("x", p, rng.randint(1, n)) for p in positions
        )
        if m is not None:
            return m


# -- extraction ----------------------------------------------------------------


def test_extract_constant_circuit():
    p = extract_polynomial(always_accept(4))
    assert p == MultilinearPoly.constant(1)
    assert p.degree == 0


def test_extract_single_indicator():
    p = extract_polynomial(accept_if_first_is(2, 1))
    assert p == MultilinearPoly.indicator(IV("x", 1, 1))


def test_extract_zero_query_circuit_needs_no_answer_field():
    from collisionlab.simulator import BasisState, Layer, QueryAlgorithm, StateSpace

    space = StateSpace(index_size=2)
    alg = QueryAlgorithm(
        name="no-field", kind="collision", n=2, T=0, oracle_kind="standard",
        space=space, layers=[Layer.identity(space.dim)],
        initial=BasisState(workspace=0, index=1, output=2),
    )
    assert extract_polynomial(alg) == MultilinearPoly.constant(1)


def test_extract_requires_standard_oracle():
    alg = accept_if_first_is(2, 1)
    alg.oracle_kind = "erasing"
    with pytest.raises(ValueError, match="standard-oracle"):
        extract_polynomial(alg)


def test_extraction_matches_simulation_exhaustively():
    alg = coincidence_probe(4)
    p = extract_polynomial(alg)
    assert p.degree <= 2 * alg.T
    for inst in all_collision_sequences(4):
        assert p.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)


def test_extraction_matches_simulation_at_n2():
    # Hadamard, query, Hadamard interference at n = 2, all 4 inputs
    alg = coincidence_probe(2)
    p = extract_polynomial(alg)
    for inst in all_collision_sequences(2):
        assert p.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)


def test_extraction_matches_simulation_sampled_at_n8():
    rng = random.Random(88)
    alg = coincidence_probe(8)
    p = extract_polynomial(alg)
    for _ in range(20):
        inst = Instance(kind="collision", n=8, x=tuple(rng.randint(1, 8) for _ in range(8)))
        assert p.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)


def test_extraction_matches_simulation_on_every_mixer_input():
    alg = two_query_mixer(4)
    p = extract_polynomial(alg)
    assert p.degree <= 2 * alg.T
    inputs = list(all_collision_sequences(4))
    assert len(inputs) == 256
    for inst in inputs:
        assert p.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)


def test_extraction_matches_simulation_on_every_setcomp_pair():
    import itertools

    alg = setcomp_probe(2)
    p = extract_polynomial(alg)
    values = range(1, 5)
    for x in itertools.product(values, repeat=2):
        for y in itertools.product(values, repeat=2):
            inst = Instance(kind="setcomp", n=2, x=x, y=y)
            assert p.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)


def test_mixer8_polynomial_is_pinned():
    # sha256 of the serialized polynomial (sorted keys): a change to the
    # extraction arithmetic must reproduce it exactly.
    import hashlib
    import json

    p = extract_polynomial(two_query_mixer(8))
    assert len(p.terms) == 1912
    doc = json.dumps(p.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "4e573b3fa33006f23bdfce8287c4bb05f5f4801a1c06ea1985f486c5fc75069e"
    )


def test_evaluate_poly_basics():
    one = MultilinearPoly.constant(1)
    assert one.evaluate((2, 1)) == QSqrt2(1)
    ind = MultilinearPoly.indicator(IV("x", 1, 1))
    assert ind.evaluate((1, 2)) == QSqrt2(1)
    assert ind.evaluate((2, 1)) == QSqrt2(0)


# -- gamma ----------------------------------------------------------------------


def test_gamma_single_indicator_is_one_over_n():
    for n, g, N in [(4, 1, 4), (4, 2, 4), (4, 2, 6), (6, 2, 8), (8, 2, 8)]:
        m = Monomial.from_factors([IV("x", 1, 2)])
        assert gamma_closed(m, (g, N), n) == Fraction(1, n)


def test_gamma_collision_pair():
    pair = Monomial.from_factors([IV("x", 1, 3), IV("x", 2, 3)])
    assert gamma_closed(pair, (1, 4), 4) == 0  # injective inputs admit no collision
    assert gamma_closed(pair, (2, 4), 4) == Fraction(1, 12)
    assert gamma_bruteforce(pair, (2, 4), 4) == Fraction(1, 12)


def test_gamma_empty_and_conflicting():
    for point, n in [((2, 4), 4), ((1, 2, 2), 2)]:  # both arities
        assert gamma_closed(Monomial.one(), point, n) == 1
        assert gamma_bruteforce(Monomial.one(), point, n) == 1


def test_gamma_closed_rejects_the_points_its_twin_rejects():
    # A grid of both arities around the admissible points: N < n (the
    # twin has no length-n prefix of a length-N draw), g not dividing N,
    # kappa(g) not dividing M, and g < 1.
    grid = [
        *(((g, N), 4) for g in range(4) for N in range(1, 10)),
        *(((g, N, M), 2) for g in range(4) for N in range(1, 6) for M in range(1, 6)),
    ]
    x_only = [(), [IV("x", 1, 1)], [IV("x", 2, 3)], [IV("x", 1, 2), IV("x", 2, 2)],
              [IV("x", 2, 5)]]  # 5 lies outside both alphabets
    with_y = [[IV("y", 1, 1)], [IV("x", 1, 1), IV("y", 1, 1)], [IV("x", 2, 3), IV("y", 2, 4)]]
    rejected = 0
    for point, n in grid:
        monomials = [Monomial.from_factors(f) for f in (x_only if len(point) == 2 else x_only + with_y)]
        try:
            brute = [gamma_bruteforce(m, point, n) for m in monomials]
        except ConfigError:
            rejected += 1
            for m in monomials:
                with pytest.raises(ValueError):
                    gamma_closed(m, point, n)
            continue
        assert [gamma_closed(m, point, n) for m in monomials] == brute, point
    assert ((1, 2), 4) in grid and 0 < rejected < len(grid)


def test_gamma_zero_when_multiplicity_exceeds_g():
    m = Monomial.from_factors([IV("x", 1, 2), IV("x", 2, 2), IV("x", 3, 2)])
    assert gamma_closed(m, (2, 4), 4) == 0
    assert gamma_bruteforce(m, (2, 4), 4) == 0


def test_gamma_bounds_and_guards():
    rng = random.Random(31)
    for _ in range(50):
        m = random_monomial(rng, 4, 3)
        for g, N in [(1, 4), (2, 4), (2, 6)]:
            val = gamma_closed(m, (g, N), 4)
            assert 0 <= val <= 1
    with pytest.raises(ValueError, match="divide"):
        gamma_closed(Monomial.one(), (2, 5), 4)


def test_gamma_sweep_matches_scalar_bruteforce():
    monos = [
        *all_monomials(4, 2),
        Monomial.from_factors([IV("x", 2, 5)]),  # a value above n hits no draw
    ]
    for point in divisor_points(4, 8):
        sweep = gamma_bruteforce_sweep(monos, point, 4)
        assert sweep == [gamma_bruteforce(m, point, 4) for m in monos]
    for factor in (IV("y", 1, 1), IV("x", 5, 1)):
        with pytest.raises(ValueError, match="no matching sequence entry"):
            gamma_bruteforce_sweep([Monomial.from_factors([factor])], (2, 6), 4)


def test_gamma_sweep_is_the_per_row_count_up_to_n6_and_degree_3():
    for n in range(2, 7):
        monos = [
            *all_monomials(n, 3),
            Monomial.from_factors([IV("x", 1, n + 1), IV("x", 2, 1)]),  # pins a value above n
        ]
        for point in divisor_points(n, 8):
            rows = list(enumerate_rows(point, n))
            counts = hit_counts(rows, 3)
            want = [
                Fraction(
                    counts[tuple(f.position for f in m.factors), tuple(f.value for f in m.factors)],
                    len(rows),
                )
                for m in monos
            ]
            sweep = gamma_bruteforce_sweep(monos, point, n)
            assert sweep == want
            for i in (0, 1, len(monos) - 2, len(monos) - 1):
                assert sweep[i] == gamma_bruteforce(monos[i], point, n)


# -- q~ and the prefactor --------------------------------------------------------


def test_q_tilde_single_indicator_example():
    m = Monomial.from_factors([IV("x", 1, 3)])
    qt = q_tilde(m.shape(), 4, 1, 2)
    # ((n-1)! (n-2)! / (n!)^2) * (N - 1) * N = N(N-1)/48 with n = 4
    assert qt.evaluate((1, 4)) == Fraction(1, 4)
    assert qt.evaluate((2, 6)) == Fraction(5 * 6, 48)
    assert qt.total_degree <= 2


def test_q_tilde_vanishes_when_multiplicity_exceeds_g():
    m = Monomial.from_factors([IV("x", i, 1) for i in (1, 2, 3)])  # r_1 = 3
    qt = q_tilde(m.shape(), 6, 2, 2)
    assert qt.evaluate((2, 6)) == 0  # contains the factor (g - 2)
    assert qt.evaluate((3, 6)) != 0


def test_q_tilde_checks_its_shape():
    two = MonomialShape(2, (1, 1), ())
    with pytest.raises(ValueError, match="^need n >= 2T$"):
        q_tilde(two, 3, 2, 2)
    with pytest.raises(ValueError, match="x-register monomials only"):
        q_tilde(MonomialShape(1, (1,), (1,)), 6, 1, 2)
    with pytest.raises(ValueError, match=r"^degree violation: monomial degree 3 exceeds 2T = 2$"):
        q_tilde(MonomialShape(2, (1,), (1, 1)), 6, 1, 3)
    m = Monomial.from_factors([IV("x", 1, 1), IV("x", 4, 2)])
    assert m.shape() == two and q_tilde(two, 6, 1, 2) == q_tilde(m.shape(), 6, 1, 2)


def test_q_tilde_degree_bound_random():
    rng = random.Random(7)
    for _ in range(100):
        m = random_monomial(rng, 6, 4)
        assert q_tilde(m.shape(), 6, 2, 2).total_degree <= 4


def test_q_tilde_times_prefactor_equals_gamma():
    rng = random.Random(8)
    for _ in range(40):
        m = random_monomial(rng, 6, 3)
        for g, N in [(1, 6), (2, 6), (2, 8)]:
            lhs = prefactor(6, 2, (g, N)) * q_tilde(m.shape(), 6, 2, 2).evaluate((g, N))
            assert lhs == gamma_closed(m, (g, N), 6)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family, n, T, G", [
    ("collision", 8, 1, 2),
    ("collision", 12, 2, 3),
    ("setcomp", 8, 1, 2),
    ("setcomp", 27, 1, 3),
    ("setcomp", 125, 1, 5),
])
def test_prefactor_times_q_tilde_is_gamma_at_every_admissible_point(family, n, T, G, seed):
    """gamma_closed = prefactor * q~ on seeded monomials of degree <= 2T.
    Values come from a small pool, so they repeat, and the set-comparison
    points past n = 8 have kappa(g) = 9: (3, 27, 27), and at n = 125
    also M > N, N > M and (3, 126, 126)."""
    if family == "collision":
        points, registers = quasilattice_points(n, T, G), "x"
    else:
        points, registers = super_quasilattice_points(n, T, G), "xy"
        assert max(kappa(pt.g) for pt in points) == (9 if n > 8 else 1)
    rng = random.Random(seed)
    slots = [(reg, pos) for reg in registers for pos in range(1, n + 1)]
    for _ in range(5):
        pool = rng.sample(range(1, n * len(registers) + 1), rng.randint(1, 2 * T))
        m = Monomial.from_factors(
            IV(reg, pos, rng.choice(pool)) for reg, pos in rng.sample(slots, rng.randint(0, 2 * T))
        )
        for pt in points:
            assert gamma_closed(m, pt, n) == prefactor(n, T, pt) * q_tilde(m.shape(), n, T, len(pt)).evaluate(pt)


def test_prefactor_examples():
    assert prefactor(4, 1, (1, 4)) == 1
    assert prefactor(100, 3, (2, 102)) == Fraction(9120, 10302)
    assert prefactor(100, 3, (1, 100)) == 1


def test_assemble_q_constant():
    q = assemble_q(MultilinearPoly.constant(1), 4, 1)
    assert q.evaluate((1, 4)) == 1
    assert q.evaluate((2, 4)) == 1
    # off the base point the polynomial compensates the prefactor
    assert prefactor(4, 1, (2, 6)) * q.evaluate((2, 6)) == 1


def test_assemble_q_single_indicator():
    q = assemble_q(MultilinearPoly.indicator(IV("x", 1, 1)), 4, 1)
    assert q.evaluate((1, 4)) == Fraction(1, 4)


def test_assemble_q_degree_violation():
    m = Monomial.from_factors([IV("x", i, 1) for i in (1, 2, 3)])
    p = MultilinearPoly({m: QSqrt2(1)})
    with pytest.raises(ValueError, match="degree violation"):
        assemble_q(p, 4, 1)
    # checked per term in term order: after a term of a known shape,
    # before a later irrational coefficient
    p = MultilinearPoly({
        Monomial.from_factors([IV("x", 1, 1)]): QSqrt2(1),
        Monomial.from_factors([IV("x", 2, 3)]): QSqrt2(2),
        m: QSqrt2(1),
        Monomial.from_factors([IV("x", 3, 1)]): QSqrt2(0, 1),
    })
    with pytest.raises(ValueError, match=r"^degree violation: monomial degree 3 exceeds 2T$"):
        assemble_q(p, 4, 1)


def test_assemble_q_rejects_irrational_coefficients():
    p = MultilinearPoly({Monomial.one(): QSqrt2(0, 1)})
    with pytest.raises(ValueError, match="sqrt"):
        assemble_q(p, 4, 1)
    # the first offending term in term order is named, also when its
    # shape was already seen and a later term of another shape fails too
    seen = Monomial.from_factors([IV("x", 1, 1)])
    first = Monomial.from_factors([IV("x", 2, 4)])
    later = Monomial.from_factors([IV("x", 1, 2), IV("x", 3, 2)])
    p = MultilinearPoly({seen: QSqrt2(1), first: QSqrt2(1, 2), later: QSqrt2(0, 1)})
    with pytest.raises(ValueError) as info:
        assemble_q(p, 4, 1)
    assert str(info.value) == f"coefficient of {first!r} has a nonzero sqrt(2) part: {QSqrt2(1, 2)!r}"
    # a y factor met before an irrational term fails as a y factor
    p = MultilinearPoly({
        Monomial.from_factors([IV("x", 1, 1)]): QSqrt2(1),
        Monomial.from_factors([IV("y", 2, 1)]): QSqrt2(1),
        Monomial.from_factors([IV("x", 2, 2)]): QSqrt2(0, 1),
    })
    with pytest.raises(ValueError, match="x-register monomials only"):
        assemble_q(p, 4, 1)


def test_identity_exact_at_every_point():
    alg = coincidence_probe(4)
    p = extract_polynomial(alg)
    q = assemble_q(p, 4, 1)
    for point in [QuasilatticePoint(1, 4), QuasilatticePoint(2, 4)]:
        P_sim = expected_acceptance(alg, point, 4)
        P_poly = expected_acceptance(p, point, 4)
        assert P_sim == P_poly
        assert P_sim == prefactor(4, 1, point) * q.evaluate(point)


def test_expected_acceptance_examples():
    alg = accept_if_first_is(4, 1)
    for point in [QuasilatticePoint(1, 4), QuasilatticePoint(2, 4), QuasilatticePoint(2, 6)]:
        assert expected_acceptance(alg, point, 4) == QSqrt2(Fraction(1, 4))
    assert expected_acceptance(always_accept(4), QuasilatticePoint(2, 4), 4) == QSqrt2(1)


def test_expected_acceptance_separates_families():
    alg = coincidence_probe(4)
    p1 = expected_acceptance(alg, QuasilatticePoint(1, 4), 4)
    p2 = expected_acceptance(alg, QuasilatticePoint(2, 4), 4)
    assert p1 == QSqrt2(Fraction(1, 4))
    assert p2 == QSqrt2(Fraction(1, 2))


def test_expected_acceptance_matches_gamma_reconstruction():
    # P(g, N) as the coefficient-weighted sum of monomial expectations
    alg = coincidence_probe(4)
    p = extract_polynomial(alg)
    for point in (QuasilatticePoint(1, 4), QuasilatticePoint(2, 4)):
        recon = sum(
            (c.as_fraction() * gamma_closed(m, point, 4) for m, c in p.terms.items()),
            Fraction(0),
        )
        assert expected_acceptance(alg, point, 4) == recon


def test_expected_acceptance_mc_agrees():
    alg = coincidence_probe(4)
    point = QuasilatticePoint(2, 4)
    mean, stderr = expected_acceptance_mc(alg, point, 4, samples=400, rng=random.Random(6))
    assert abs(mean - 0.5) <= 4 * stderr + 1e-9


def test_all_monomials_counts():
    # 1 + n*n + C(n,2) n^2 + C(n,3) n^3 at n = 4
    assert sum(1 for _ in all_monomials(4, 3)) == 1 + 16 + 6 * 16 + 4 * 64


def test_window_slack_tightens_prefactor_floor():
    # Growing the window denominator narrows [n, n + n/(slack T)] and
    # lifts the worst-case prefactor over the admissible points.
    from collisionlab.instances import quasilattice_points

    n, T = 10**4, 33
    wide = quasilattice_points(n, T, 2, slack=10)
    narrow = quasilattice_points(n, T, 2, slack=40)
    assert max(N for _, N in narrow) < max(N for _, N in wide)
    worst_wide = min(prefactor(n, T, pt) for pt in wide)
    worst_narrow = min(prefactor(n, T, pt) for pt in narrow)
    assert worst_narrow > worst_wide >= Fraction(818, 1000)
