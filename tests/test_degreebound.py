"""Markov machinery, derivative maximization, and the chain report."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisionlab.circuits import (
    REFERENCE_BUILDERS,
    accept_if_first_is,
    always_accept,
    coincidence_probe,
    reference_algorithm,
    two_query_mixer,
)
from collisionlab.degreebound import (
    PREFACTOR_FLOOR,
    RANGE_BASE,
    chain_region,
    chain_report_for_poly,
    degree_lower_bound,
    family,
    markov_bound,
    verify_inequality_chain,
    weighted_max_derivative,
)
from collisionlab.instances import kappa
from collisionlab.lattice import LatticePoly
from collisionlab.polymethod import assemble_q, extract_polynomial, prefactor
from helpers import (
    full_grid_max_derivative,
    search_key,
    univariate_derivative_abs_max,
    univariate_range,
)


def chebyshev_coeffs(d: int) -> list[float]:
    cheb = np.polynomial.chebyshev.Chebyshev.basis(d)
    return list(cheb.convert(kind=np.polynomial.Polynomial).coef)


def test_markov_bound_examples():
    assert markov_bound(1, (0, 1), (0, 1)) == 1.0
    assert markov_bound(3, (-1, 1), (-1, 1)) == 9.0
    with pytest.raises(ValueError, match="degenerate"):
        markov_bound(2, (1, 1), (0, 1))


def test_chebyshev_attains_markov_bound():
    for d in range(2, 9):
        measured = univariate_derivative_abs_max(chebyshev_coeffs(d), (-1, 1))
        bound = markov_bound(d, (-1, 1), (-1, 1))
        assert abs(measured - d * d) < 1e-9
        assert 1 - 1e-9 <= measured / bound <= 1


def test_random_polynomials_respect_markov():
    rng = random.Random(20240809)
    for _ in range(200):
        d = rng.randint(1, 8)
        coeffs = [rng.uniform(-1, 1) for _ in range(d + 1)]
        lo, hi = univariate_range(coeffs, (-1, 1))
        measured = univariate_derivative_abs_max(coeffs, (-1, 1))
        assert measured <= markov_bound(d, (-1, 1), (lo, hi)) + 1e-9


def test_weighted_max_derivative_constant_is_zero():
    q = LatticePoly.constant(2, Fraction(3, 7))
    report = weighted_max_derivative(q, 4, 1, 2)
    assert report.value == 0.0


def test_weighted_max_derivative_linear_in_g():
    q = LatticePoly(2, {(1, 0): Fraction(1, 2)})  # g/2
    report = weighted_max_derivative(q, 100, 3, 3)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.direction == "g"


def test_weighted_max_derivative_refinement_converges():
    alg = coincidence_probe(4)
    q = assemble_q(extract_polynomial(alg), 4, 1)
    base = weighted_max_derivative(q, 4, 1, 2, resolution=512)
    fine = weighted_max_derivative(q, 4, 1, 2, resolution=5120, refinement_rounds=0)
    assert abs(base.value - fine.value) < 1e-6


def test_weighted_max_derivative_monotone_under_refinement():
    alg = two_query_mixer(4)
    q = assemble_q(extract_polynomial(alg), 4, 2)
    coarse = weighted_max_derivative(q, 4, 2, 2, resolution=128)
    finer = weighted_max_derivative(q, 4, 2, 2, resolution=256)
    assert finer.value >= coarse.value - 1e-9


@pytest.mark.parametrize("settings, message", [
    ({"resolution": 0}, "resolution must be >= 2"),
    ({"resolution": 1}, "resolution must be >= 2"),
    ({"refinement_rounds": -1}, "refinement_rounds must be >= 0"),
])
def test_weighted_max_derivative_rejects_degenerate_settings(settings, message):
    q = LatticePoly(2, {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match=message):
        weighted_max_derivative(q, 100, 3, 3, **settings)


def test_degree_lower_bound_values():
    assert degree_lower_bound(0, 101, 10, 10**5) == 0.0
    v = degree_lower_bound(0.436, 101, 10, 10**5)
    assert v == pytest.approx(math.sqrt(0.436 * 100 * 10**5 / (2.236 * 10**5 + 8.720 * 10 * 101 * 100)), rel=1e-12)
    assert v == pytest.approx(1.987, abs=2e-3)


def test_degree_lower_bound_monotone_in_g():
    values = [degree_lower_bound(0.436, G, 1, 10**9) for G in (11, 101, 1001)]
    assert values == sorted(values)


# degree_lower_bound rises in d toward sqrt((G-1) / (2 (1 + E))), E >= 0,
# so at G = 2 it stays below sqrt(1/2) for every q, and no degree cap of
# T >= 1 queries (at least 2) falls under it.  The float value can round
# onto sqrt(1/2) only where E = c T (G-1) reach(G) / n is below the float
# resolution (d = 2**52, n = 180143985094819821 reaches it), so strictness
# is asserted for n < 2**50.
@settings(max_examples=500, deadline=None)
@given(
    d=st.floats(min_value=0, allow_infinity=False),
    T=st.integers(min_value=1, max_value=10**9),
    n=st.integers(min_value=1, max_value=10**30),
    value_range=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    variant=st.sampled_from(["collision", "setcomp"]),
)
def test_degree_lower_bound_at_g2_stays_below_sqrt_half(d, T, n, value_range, variant):
    bound = degree_lower_bound(d, 2, T, n, variant, value_range)
    assert bound <= math.sqrt(0.5)
    if n < 2**50:
        assert bound < math.sqrt(0.5)


def test_chain_always_accept():
    report = verify_inequality_chain(always_accept(4), G=2)
    assert not report.distinguisher
    assert report.d_value == 0.0
    assert report.derived_bound == 0.0
    assert report.consistent
    assert report.extracted_degree == 0


def test_chain_partial_distinguisher_full_report():
    report = verify_inequality_chain(coincidence_probe(4), G=2)
    assert report.extracted_degree <= 2
    assert len(report.points) == 2
    for row in report.points:
        assert row.exact and row.deviation == 0
    assert report.endpoint_low == pytest.approx(0.25)
    assert report.endpoint_high == pytest.approx(0.5)
    assert not report.distinguisher  # misses the 1/10 - 9/10 gap
    assert report.consistent
    assert 2 * report.T >= report.derived_bound
    assert report.fd_slope == pytest.approx(0.25)


def test_chain_consistent_for_reference_circuits():
    for alg in (accept_if_first_is(4, 1), two_query_mixer(4)):
        report = verify_inequality_chain(alg, G=2)
        assert report.consistent
        assert 2 * report.T >= report.derived_bound


def test_chain_negative_control_flags_inconsistency():
    steep = LatticePoly(2, {(1, 0): Fraction(10)})
    report = chain_report_for_poly(steep, n=10**9, T=1, G=10**4)
    assert report.d_value == pytest.approx(10.0)
    assert report.derived_bound > 2 * report.T
    assert not report.consistent


def test_chain_region_validation():
    with pytest.raises(ValueError, match="G >= 2"):
        chain_region(4, 1, 1, "collision")
    with pytest.raises(ValueError, match="variant"):
        chain_region(4, 1, 2, "other")


def admissible_minimum(n: int, T: int, G: int, variant: str):
    """(min prefactor, a point attaining it) over the family's admissible
    points at (n, T, G), exactly in Fractions."""
    return min((prefactor(n, T, pt), tuple(pt)) for pt in family(variant).points(n, T, G))


@pytest.mark.parametrize("n, T, value, N", [
    (400, 10, 0.8155704839293684, 404),
    (1000, 10, 0.817984002809175, 1010),
])
def test_collision_prefactor_falls_below_its_reported_floor(n, T, value, N):
    """The chain reports PREFACTOR_FLOOR, which the exact minimum at the
    window edge N = n + n/(10T) undercuts; the window [0, 1/min] of q still
    fits inside RANGE_BASE."""
    minimum, (_, at) = admissible_minimum(n, T, 2, "collision")
    assert float(minimum) == value and at == N
    assert minimum < Fraction(PREFACTOR_FLOOR)
    assert 1 / minimum < Fraction(RANGE_BASE)


@pytest.mark.parametrize("n, T, G, value, digits, at", [
    (100, 1, 2, 0.9656162392198223, 16, (1, 100, 101)),
    (200, 1, 3, 0.96329, 5, (1, 200, 202)),
    (1000, 2, 4, 0.96372, 5, (1, 1000, 1005)),
])
def test_setcomp_prefactor_falls_below_one(n, T, G, value, digits, at):
    """q = P / prefactor can pass 1 where the prefactor is below 1 (M > n),
    beyond the width 1 that value_range assumes at zero deviation."""
    minimum, point = admissible_minimum(n, T, G, "setcomp")
    assert round(float(minimum), digits) == value and point == at
    assert minimum < 1 and family("setcomp").value_range(0) == 1


def test_setcomp_negative_control_flags_inconsistency():
    steep = LatticePoly(3, {(1, 0, 0): Fraction(10)})
    report = chain_report_for_poly(steep, n=10**18, T=1, G=10**3)
    assert report.degree_cap == 8
    assert report.derived_bound == pytest.approx(21.62, abs=5e-3)
    assert not report.consistent


def test_chain_region_setcomp_has_n_and_m_windows():
    assert chain_region(8, 1, 2, "setcomp") == [(1.0, 2.0), (8.0, 8.08), (8.0, 8.08)]


@pytest.mark.parametrize("d, G, T, n, dev", [
    (0.436, 2, 1, 8, 0.0),
    (0.5, 3, 2, 10**6, 0.182),
    (10.0, 10**3, 1, 10**18, 0.182),
])
def test_setcomp_degree_lower_bound_formula(d, G, T, n, dev):
    expected = math.sqrt(
        d * (G - 1) / (1 + 2 * dev + 2 * d * (1 + 100 * T * (G - 1) * (G + kappa(G)) / n))
    )
    assert degree_lower_bound(d, G, T, n, "setcomp", 1 + 2 * dev) == expected


# sha256 of the chain report JSON (G=2, 300 MC samples, seed 0) for every
# reference circuit that admits G=2.  The values come from the separate
# collision and set-comparison chain code; the shared chain must
# reproduce those reports byte for byte.  setcomp-probe-8's points are
# Monte Carlo, so its pin was retaken when the draws moved to one
# instances.sample_rows table per point.
CHAIN_JSON_SHA256 = {
    "always-accept-4": "45a18d98c40504f7a31f913f70ac74c44b574323baf18e58e93476b17935b379",
    "coincidence-4": "e78076b0dea68a9542da03456df5a81abe1c5f6ad5fcb3e292a8fa0154199b62",
    "first-is-1-n4": "4b68fa5efa4b145f2648a684b9b67566f87adaa480e12da22cf892e1beb8b5a2",
    "setcomp-probe-8": "d29ba56fb9dc58251298df688db82b2df6cfb24125f6fc214c9a4033d66e1f1e",
    "two-query-4": "daca9b3cfbc4bfa3b6809fbb304dbbb7846ca9a7d10059ebd0c3175a2e40d049",
}


@pytest.mark.parametrize("name", sorted(CHAIN_JSON_SHA256))
def test_chain_report_is_pinned(name):
    report = verify_inequality_chain(reference_algorithm(name), G=2, mc_samples=300)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_JSON_SHA256[name]


# The same with an enumeration cap of 0, which sends every point to Monte
# Carlo over the extracted polynomial; taken from the per-draw evaluation
# that the batched one replaced.  two_query_mixer(4)'s was retaken for the
# sample_rows tables; coincidence_probe(4)'s P is the same on every draw.
CHAIN_MC_JSON_SHA256 = {
    "coincidence_probe(4)": "97def3bfa872b5be8c15124560d1ba1f13e26d4cb017ef5a1950a8b8f4b1509f",
    "two_query_mixer(4)": "664b240e8093e81a3770011a42de5891807de4e588373ec1da92a886926f6044",
}


@pytest.mark.parametrize("name, alg", [
    ("coincidence_probe(4)", coincidence_probe(4)),
    ("two_query_mixer(4)", two_query_mixer(4)),
])
def test_forced_mc_chain_report_is_pinned(name, alg):
    report = verify_inequality_chain(alg, G=2, mc_samples=300, cap=0)
    assert not any(row.exact for row in report.points)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_MC_JSON_SHA256[name]


# sha256 of the assembled q (exact coefficients, sorted keys), taken from
# the per-term assembly that the per-shape one replaced.
Q_JSON_SHA256 = {
    "setcomp_probe(8)": "3e8ee9485feffb610fce0eab4654660b0d32ed8b328f98e75b31667d6ad016fb",
    "dumped two_query_mixer(8)": "a7b44c38a8c9e76dec81ad0c44c4a1ec2b356da2d0455ca53d630a09fdb6788e",
}


@pytest.mark.parametrize("name", sorted(Q_JSON_SHA256))
def test_assembled_q_is_pinned(name, assembled):
    _, q, _ = assembled[name]
    text = json.dumps(q.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == Q_JSON_SHA256[name]


# float.hex(value), at and direction of the default derivative search on
# the assembled q at G=2, taken from the dense-grid search that the
# open-grid one replaced.
DERIVATIVE_PINS = {
    "setcomp_probe(8)": ("0x1.0141829748063p-2", (2.0, 8.08, 8.08), "g"),
    "dumped two_query_mixer(8)": ("0x1.147ae147ae148p-4", (1.0, 8.4), "g"),
}


@pytest.mark.parametrize("name", sorted(DERIVATIVE_PINS))
def test_derivative_report_is_pinned(name, assembled):
    alg, q, _ = assembled[name]
    report = weighted_max_derivative(q, alg.n, alg.T, 2)
    assert (float.hex(report.value), report.at, report.direction) == DERIVATIVE_PINS[name]


@pytest.mark.parametrize("G", [2, 3])
@pytest.mark.parametrize("name", sorted(DERIVATIVE_PINS))
def test_derivative_search_matches_full_grid_on_chain_q(name, G, assembled):
    alg, q, _ = assembled[name]
    args = (q, alg.n, alg.T, G)
    assert search_key(weighted_max_derivative(*args)) == search_key(full_grid_max_derivative(*args))


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDERS))
def test_derivative_search_matches_full_grid_on_reference_circuits(name):
    alg = REFERENCE_BUILDERS[name]()
    fam = family(alg.kind)
    q = fam.assemble(extract_polynomial(alg), alg.n, alg.T)
    T = max(alg.T, 1)  # the window of a zero-query circuit, as the chain takes it
    args = (q, alg.n, T, 2)
    assert search_key(weighted_max_derivative(*args)) == search_key(full_grid_max_derivative(*args))


g, N = LatticePoly.variable(2, 0), LatticePoly.variable(2, 1)
shift = N - LatticePoly.constant(2, Fraction(201, 25))

# name -> (q, n, T, G).  zero, constant and g/2 tie at every grid point,
# so the report's point must be the first one.  The others stress one
# part of the search's error bound each: heavy cancellation inside the
# window; a partial past the float range (the estimate overflows); a
# term at the float maximum (the overflow guard); subnormal terms; a
# weight that overflows |dq/dN| * weight, and one that rounds it to a
# few subnormal steps; and Vandermonde entries that overflow beside
# zero coefficients, so that the estimate holds NaN.
EDGE_CASES = {
    "zero": (LatticePoly(2), 8, 2, 2),
    "constant": (LatticePoly.constant(2, Fraction(3, 7)), 8, 2, 2),
    "g/2": (g.scale(Fraction(1, 2)), 8, 2, 2),
    "g (N - 201/25)^7": (g * shift * shift * shift * shift * shift * shift * shift, 8, 2, 2),
    "1e306 g^8": (LatticePoly(2, {(8, 0): Fraction(10**306)}), 8, 2, 2),
    "float max g": (LatticePoly(2, {(1, 0): Fraction(1.7e308)}), 8, 2, 2),
    "subnormal": (LatticePoly(2, {(3, 2): Fraction(1, 10**320), (1, 0): Fraction(1, 10**321)}), 8, 2, 2),
    "N^2/2, huge weight": ((N * N).scale(Fraction(1, 2)), 10**300, 1, 2),
    "N^2/2, subnormal weight": ((N * N).scale(Fraction(1, 2)), 1, 10**11, 10**308),
    "g^3/3 + g N^2, G = 1e200": ((g * g * g).scale(Fraction(1, 3)) + g * N * N, 8, 2, 10**200),
}


def edge_search(name, search):
    q, n, T, G = EDGE_CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        return search(q, n, T, G)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_derivative_search_matches_full_grid_on_edge_polynomials(name):
    got = edge_search(name, weighted_max_derivative)
    assert search_key(got) == search_key(edge_search(name, full_grid_max_derivative))
    if name in ("zero", "constant", "g/2"):
        assert got.at == (1.0, 8.0)


@pytest.mark.parametrize("name, partial", [
    ("1e306 g^8", 0), ("float max g", 0), ("zero", 0), ("zero", 1), ("g/2", 1),
])
def test_derivative_search_takes_the_whole_grid_where_the_estimate_cannot_narrow(
    name, partial, evaluation_sizes
):
    edge_search(name, weighted_max_derivative)
    # evaluate_float runs once per partial per round, g before N.
    assert evaluation_sizes[partial::2] == [512**2] * 3
