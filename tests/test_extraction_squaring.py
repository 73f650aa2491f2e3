"""The array propagation and squaring of extract_polynomial against the
term-by-term and pair-by-pair dict forms in helpers: the same amplitudes
and terms with the same coefficients, as mappings.  The arrays also keep
one canonical order, a function of the polynomial alone: propagation
rows ascend by (ordinal, monomial), the squared terms by monomial.  The
q assembly and the float evaluation add terms in that order."""

import random
from fractions import Fraction

import pytest

from collisionlab import instances, polymethod, simulator
from collisionlab.circuits import (
    REFERENCE_BUILDERS,
    coincidence_probe,
    query_space,
)
from collisionlab.instances import QuasilatticePoint, SuperQuasilatticePoint
from collisionlab.multilinear import IndicatorVariable as IV
from collisionlab.multilinear import Monomial
from collisionlab.polymethod import (
    _propagate,
    _square_accepting,
    expected_acceptance,
    extract_polynomial,
)
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.simulator import Layer, QueryAlgorithm
from helpers import (
    amplitude_dicts,
    amplitude_rows,
    code_factors,
    propagate_reference,
    random_orthogonal_layer,
    square_accepting_reference,
)

INT64_MAX = 2**63 - 1


def assert_same_terms(got, want):
    """got equals want as a mapping, and its terms come in Monomial order."""
    assert got == want
    assert list(got.terms) == sorted(got.terms)


def assert_same_squares(amps, D):
    assert_same_terms(_square_accepting(amplitude_rows(amps), D), square_accepting_reference(amps, D))


def random_two_query_circuit(seed: int, n: int = 4) -> QueryAlgorithm:
    rng = random.Random(seed)
    space = query_space("collision", n)
    return QueryAlgorithm(
        name=f"random_two_query_{seed}", kind="collision", n=n, T=2, oracle_kind="standard",
        space=space, layers=[random_orthogonal_layer(space, rng, stages=40) for _ in range(3)],
    )


CIRCUITS = {
    **REFERENCE_BUILDERS,
    "coincidence_probe(8)": lambda: coincidence_probe(8),
    **{f"random two-query, seed {s}": (lambda s=s: random_two_query_circuit(s)) for s in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_squaring_matches_the_reference_in_order(name):
    amps, D = propagate_reference(CIRCUITS[name]())
    assert_same_squares(amps, D)


def test_squaring_matches_the_reference_on_the_dumped_mixer(dumped_mixer8):
    alg, poly = dumped_mixer8
    amps, D = propagate_reference(alg)
    assert_same_terms(poly, square_accepting_reference(amps, D))
    assert len(poly.terms) == 1912


def row_keys(amps) -> list:
    """(ordinal, monomial) of each propagated row, in row order."""
    return [
        (ordinal, Monomial(code_factors(amps, code)))
        for ordinal, code in zip(amps.ordinal.tolist(), amps.code.tolist())
    ]


def assert_same_propagation(alg):
    amps, D = _propagate(alg)
    want, want_D = propagate_reference(alg)
    assert D == want_D
    assert amplitude_dicts(amps) == want
    # Monomial order is code order, so the rows ascend by (ordinal, code).
    keys = row_keys(amps)
    assert all(x < y for x, y in zip(keys, keys[1:]))


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_propagation_matches_the_reference_in_order(name):
    assert_same_propagation(CIRCUITS[name]())


def test_propagation_matches_the_reference_on_the_dumped_mixer(dumped_mixer8):
    alg, _ = dumped_mixer8
    assert_same_propagation(alg)


def rotation_layer(at: int) -> Layer:
    """Identity of dimension 4 but for a rotation by the Pythagorean
    triple of m = 2^33 + 1, n = 2^32 on rows and columns at, at + 1:
    its denominator c exceeds 2^63."""
    m, n = 2**33 + 1, 2**32
    p, q, c = m * m - n * n, 2 * m * n, m * m + n * n
    cols = [[(j, QSqrt2(1))] for j in range(4)]
    cols[at] = [(at, QSqrt2(Fraction(p, c))), (at + 1, QSqrt2(Fraction(q, c)))]
    cols[at + 1] = [(at, QSqrt2(Fraction(-q, c))), (at + 1, QSqrt2(Fraction(p, c)))]
    return Layer(4, cols)


def test_extraction_past_int64_runs_on_python_ints(monkeypatch):
    chosen = []
    choose = polymethod._int64_or_object

    def recording(bound):
        chosen.append(choose(bound))
        return chosen[-1]

    alg = QueryAlgorithm(
        name="rotations", kind="collision", n=1, T=1, oracle_kind="standard",
        space=query_space("collision", 1), layers=[rotation_layer(0), rotation_layer(1)],
    )
    # The layer step chooses its type in simulator, the others in polymethod.
    for module in (polymethod, simulator):
        monkeypatch.setattr(module, "_int64_or_object", recording)
    assert_same_propagation(alg)
    amps, D = propagate_reference(alg)
    assert D > 2**126
    assert_same_terms(extract_polynomial(alg), square_accepting_reference(amps, D))
    assert object in chosen


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_extraction_on_python_ints_matches_int64(name, monkeypatch):
    alg = CIRCUITS[name]()
    want = extract_polynomial(alg)
    for module in (polymethod, simulator):
        monkeypatch.setattr(module, "_int64_or_object", lambda bound: object)
    amps = _propagate(alg)[0]
    assert amps.code.dtype == amps.a.dtype == object
    got = extract_polynomial(alg)
    assert got == want
    assert list(got.terms) == list(want.terms)


CHUNKED = {
    "two-query-4": lambda: REFERENCE_BUILDERS["two-query-4"](),
    "setcomp-probe-8": lambda: REFERENCE_BUILDERS["setcomp-probe-8"](),
    **{f"random two-query, seed {s}": (lambda s=s: random_two_query_circuit(s)) for s in (1, 2)},
}


@pytest.mark.parametrize("name", list(CHUNKED))
def test_squaring_over_many_chunks_matches_the_reference(name, monkeypatch):
    amps, D = propagate_reference(CHUNKED[name]())
    pairs = sum(len(p) * (len(p) + 1) // 2 for ordinal, p in amps.items() if ordinal & 1)
    monkeypatch.setattr(polymethod, "_PAIR_CHUNK", 64)
    assert pairs > 30 * polymethod._PAIR_CHUNK
    assert_same_squares(amps, D)


def test_squaring_of_the_dumped_mixer_over_many_chunks(dumped_mixer8, monkeypatch):
    alg, poly = dumped_mixer8
    monkeypatch.setattr(polymethod, "_PAIR_CHUNK", 1 << 12)
    assert_same_terms(extract_polynomial(alg), poly)


def test_random_circuits_reach_degree_4_with_sqrt2_parts():
    # what the seeded circuits add to the reference ones
    for seed in (1, 2):
        poly = extract_polynomial(random_two_query_circuit(seed))
        assert poly.degree == 4
        assert any(c.b != 0 for c in poly.terms.values())


def mono(pins: dict[int, int]) -> tuple:
    return tuple(IV("x", p, v) for p, v in sorted(pins.items()))


LOW = mono({p: 1 for p in range(1, 9)})  # x1..x8 = 1
HIGH = mono({p: 1 for p in range(5, 13)})  # x5..x12 = 1
MID = mono({9: 2, 10: 2})  # conflicts with HIGH
CLASH = mono({1: 2, **{p: 1 for p in range(2, 9)}})  # x1 = 2 conflicts with LOW
SPLIT = mono({p: 1 for p in range(1, 5)})  # SPLIT * HIGH == LOW * HIGH
FULL = mono({p: 1 for p in range(1, 13)})


def big_amplitudes(seed: int) -> dict:
    """Accepting (odd) and rejecting (even) amplitudes of monomials up to
    degree 8 over 12 positions and 4 values, with coefficients near
    2^40.  The LOW * MID products cancel over amplitudes 1 and 3, and so
    do the LOW * HIGH ones, but SPLIT * HIGH in amplitude 5 gives FULL a
    nonzero coefficient at the place where LOW * HIGH first put it;
    CLASH * LOW conflicts."""
    rng = random.Random(seed)
    c = 2**40 + 3
    amps = {
        1: {LOW: (c, 0), HIGH: (c, c - 7), CLASH: (-c, 1), MID: (c, 0)},
        3: {LOW: (c, 0), HIGH: (-c, 7 - c), MID: (-c, 0)},
        5: {SPLIT: (c + 11, -c), HIGH: (2 * c, c)},
        4: {LOW: (c, c)},  # even ordinal: rejecting, never squared
    }
    for ordinal in range(7, 15, 2):
        pins = rng.sample(range(1, 13), 8)
        amps[ordinal] = {
            mono({p: rng.randint(1, 4) for p in pins}): (rng.randint(-c, c), rng.randint(-c, c))
            for _ in range(6)
        }
    return amps


def int64_bounds(amps: dict) -> tuple[bool, bool]:
    """(sums fit, codes fit) in int64, by the bounds of the array
    squaring: sums up to 6 max|coef|^2 pairs in absolute value, codes up
    to base^(2 max degree) - 1, with base = slots * alphabet + 1 as
    amplitude_rows lays the monomials out."""
    accepting = [poly for ordinal, poly in amps.items() if ordinal & 1]
    pairs = sum(len(p) * (len(p) + 1) // 2 for p in accepting)
    big = max(max(abs(a), abs(b)) for p in accepting for a, b in p.values())
    factors = {f for p in amps.values() for m in p for f in m}
    base = len({f[:2] for f in factors}) * max(f.value for f in factors) + 1
    degree = max(len(m) for p in accepting for m in p)
    return (
        6 * big * big * pairs <= INT64_MAX,
        base ** (2 * degree) - 1 <= INT64_MAX,
    )


def test_squaring_on_python_ints_matches_the_reference():
    amps = big_amplitudes(7)
    assert int64_bounds(amps) == (False, False)
    D = 2**45 * 3
    assert_same_squares(amps, D)
    terms = _square_accepting(amplitude_rows(amps), D).terms
    low_mid = tuple(sorted(LOW + MID))
    assert FULL in [m.factors for m in terms]
    assert low_mid not in [m.factors for m in terms]


def test_squaring_with_python_int_codes_and_int64_coefficients():
    # 21 pinned positions and the values 1..3 make the code base
    # 21 * 3 + 1 = 64 = 2^6, so the first digit of a 14-factor code weighs
    # 2^78: codes wrapped to 64 bits would merge x1=1 * REST with x1=2 * REST.
    head = mono({p: 1 for p in range(2, 8)})
    rest = mono({p: 1 for p in range(8, 15)})
    amps = {
        1: {
            (IV("x", 1, 1), *head): (1, 0),
            (IV("x", 1, 2), *head): (3, -1),
            rest: (2, 1),
            mono({p: 2 for p in range(2, 9)}): (1, 1),
            mono({p: 2 for p in range(9, 16)}): (-2, 0),
            mono({p: 3 for p in range(15, 22)}): (1, -1),
        },
    }
    assert amplitude_rows(amps).alphabet == 3
    assert len(amplitude_rows(amps).slots) == 21
    assert int64_bounds(amps) == (True, False)
    assert_same_squares(amps, 7)
    merged = [m.factors for m in _square_accepting(amplitude_rows(amps), 7).terms]
    assert (IV("x", 1, 1), *head, *rest) in merged
    assert (IV("x", 1, 2), *head, *rest) in merged


def test_squaring_of_nothing_accepting_is_zero():
    amps = {0: {(): (1, 0)}, 2: {(IV("x", 1, 1),): (1, 1)}}
    assert _square_accepting(amplitude_rows(amps), 1).is_zero()
    assert square_accepting_reference(amps, 1).is_zero()


# -- family averages read rows, not latent draws --------------------------------


def test_expected_acceptance_of_a_polynomial_builds_no_instance(monkeypatch):
    collision = coincidence_probe(4)
    setcomp = REFERENCE_BUILDERS["setcomp-probe-2"]()
    cases = [
        (collision, QuasilatticePoint(2, 4), 4),
        (setcomp, SuperQuasilatticePoint(1, 2, 2), 2),
    ]
    polys = [extract_polynomial(alg) for alg, _, _ in cases]
    want = [expected_acceptance(alg, point, n) for alg, point, n in cases]

    def no_instances(latent, n):
        raise AssertionError("an Instance was built for a latent draw")

    monkeypatch.setattr(instances, "instance_from_latent", no_instances)
    for poly, (alg, point, n), value in zip(polys, cases, want):
        # circuits and polynomials both read the rows of enumerate_rows
        assert expected_acceptance(alg, point, n) == value
        assert expected_acceptance(poly, point, n) == value
