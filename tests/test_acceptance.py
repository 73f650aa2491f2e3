"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value is either pinned from an independent
derivation or checked against a brute-force oracle inside the test.
"""

import functools
import json
import random
import time
from fractions import Fraction

from collisionlab.algorithms import (
    collision_benchmark,
    erasing_setcomp_probability,
    bht_collision,
)
from collisionlab.circuits import (
    accept_if_first_is,
    always_accept,
    coincidence_probe,
    setcomp_probe,
    two_query_mixer,
)
from collisionlab.cli import main as cli_main
from collisionlab.degreebound import markov_bound
from collisionlab.instances import (
    Instance,
    QuasilatticePoint,
    SuperQuasilatticePoint,
    divisor_points,
    set_union_size,
    super_quasilattice_points,
)
from collisionlab.polymethod import (
    all_monomials,
    assemble_q,
    expected_acceptance,
    extract_polynomial,
    gamma_bruteforce,
    gamma_bruteforce_sweep,
    gamma_closed,
    prefactor,
    q_tilde,
)
from collisionlab.setcomp_poly import assemble_q3
from collisionlab.simulator import acceptance_probability
from helpers import (
    all_collision_sequences,
    fraction_of_small_unions,
    mixed_monomials,
    one_to_one_instance,
    univariate_derivative_abs_max,
    univariate_range,
)

import numpy as np
import pytest


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {description}")
                raise
            print(f"[criterion {number:2d}] PASS  {description}")

        return run

    return wrap


@criterion(1, "degree <= 2T and polynomial == simulation on all 256 inputs, < 10 s")
def test_criterion_01_polynomial_extraction_suite():
    start = time.time()
    algorithms = [
        always_accept(4),          # T = 0
        accept_if_first_is(4, 1),  # T = 1
        coincidence_probe(4),      # T = 1
        two_query_mixer(4),        # T = 2
    ]
    assert {alg.T for alg in algorithms} == {0, 1, 2}
    for alg in algorithms:
        poly = extract_polynomial(alg)
        assert poly.degree <= 2 * alg.T
        for inst in all_collision_sequences(4):
            assert poly.evaluate(inst.x, inst.y) == acceptance_probability(alg, inst)
    elapsed = time.time() - start
    assert elapsed < 10, f"suite took {elapsed:.1f} s"


@criterion(2, "gamma closed form == brute force, r <= 3, n in {4, 6}, N <= 8, < 2 min")
def test_criterion_02_gamma_oracle_equivalence():
    start = time.time()
    mismatches = 0
    cases = 0
    for n in (4, 6):
        monomials = list(all_monomials(n, 3))
        for point in divisor_points(n, 8):
            brute = gamma_bruteforce_sweep(monomials, point, n)
            for m, b in zip(monomials, brute):
                cases += 1
                if gamma_closed(m, point, n) != b:
                    mismatches += 1
    assert mismatches == 0, f"{mismatches} of {cases} cases disagree"
    elapsed = time.time() - start
    assert elapsed < 120, f"sweep took {elapsed:.1f} s"


@criterion(3, "P(g, N) = prefactor * q(g, N) exactly at every point, n = 4, T = 1")
def test_criterion_03_prefactor_identity():
    alg = coincidence_probe(4)
    poly = extract_polynomial(alg)
    q = assemble_q(poly, 4, 1)
    points = [QuasilatticePoint(1, 4), QuasilatticePoint(2, 4)]
    for point in points:
        p_value = expected_acceptance(alg, point, 4)  # full enumeration
        assert p_value == prefactor(4, 1, point) * q.evaluate(point)


@criterion(4, "prefactor in [0.818, 1] for n = 10^4, T = 33, N in [n, n + 30]")
def test_criterion_04_prefactor_bound():
    n, T = 10**4, 33
    floor = Fraction(818, 1000)
    dev_cap = Fraction(2225, 10000)
    for N in range(n, n + 31):
        pref = prefactor(n, T, (1, N))
        assert floor <= pref <= 1, (N, float(pref))
        # worst-case |P - q| bound, using P <= 1
        dev = 1 / pref - 1
        assert dev <= dev_cap, (N, float(dev))
        if pref >= Fraction(846, 1000):
            assert dev < Fraction(182, 1000)


@criterion(5, "Chebyshev attains d^2 within 1e-9; 1000 random polys obey Markov")
def test_criterion_05_markov_suite():
    for d in range(2, 9):
        cheb = np.polynomial.chebyshev.Chebyshev.basis(d)
        coeffs = list(cheb.convert(kind=np.polynomial.Polynomial).coef)
        measured = univariate_derivative_abs_max(coeffs, (-1, 1))
        assert abs(measured - d * d) <= 1e-9
    rng = random.Random(20240809)
    for _ in range(1000):
        degree = rng.randint(1, 8)
        coeffs = [rng.uniform(-1, 1) for _ in range(degree + 1)]
        lo, hi = univariate_range(coeffs, (-1, 1))
        measured = univariate_derivative_abs_max(coeffs, (-1, 1))
        assert measured <= markov_bound(degree, (-1, 1), (lo, hi)) + 1e-9


@criterion(6, "erasing comparison: equal -> 0, boundary 1.1n -> >= 1/20, disjoint -> 1/2")
def test_criterion_06_erasing_set_comparison():
    equal = Instance(
        kind="setcomp", n=4, x=(1, 2, 3, 4), y=(4, 3, 2, 1)
    )
    assert erasing_setcomp_probability(equal) == 0

    x = tuple(range(1, 21))
    y = tuple(range(3, 21)) + (21, 22)
    boundary = Instance(kind="setcomp", n=20, x=x, y=y)
    assert set_union_size(boundary) == 22  # exactly 1.1 n
    assert erasing_setcomp_probability(boundary) >= Fraction(1, 20)

    disjoint = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(5, 6, 7, 8))
    assert erasing_setcomp_probability(disjoint) == Fraction(1, 2)


@criterion(7, "BHT: success >= 2/3 over 500 trials at n in {27, 64}; exact inputs safe")
def test_criterion_07_bht():
    for n in (27, 64):
        row = collision_benchmark("bht", n, 500, seed=5)
        assert row["success_rate"] >= 2 / 3, row
        print(
            f"    bht n={n}: success={row['success_rate']:.3f} "
            f"mean_queries={row['mean_queries']:.2f} "
            f"c={row['mean_queries'] / n ** (1 / 3):.2f}"
        )
    for trial in range(100):
        rng = random.Random(f"c7:{trial}")
        inst = one_to_one_instance(27, rng)
        assert bht_collision(inst, rng).decision == "one-to-one"


@criterion(8, "trivariate suite at n = 2: oracle equality, degrees, exact identity")
def test_criterion_08_trivariate_suite():
    points = super_quasilattice_points(2, 1, 1)
    assert points == [(1, 2, 2)]
    monomials = mixed_monomials(2, 2)
    for m in monomials:
        for g, N, M in points:
            assert gamma_closed(m, (g, N, M), 2) == gamma_bruteforce(m, (g, N, M), 2)
        assert q_tilde(m, 2, 1, 3).total_degree <= 8

    alg = setcomp_probe(2)
    poly = extract_polynomial(alg)
    q3 = assemble_q3(poly, 2, 1)
    assert q3.total_degree <= 8
    point = SuperQuasilatticePoint(1, 2, 2)
    p_value = expected_acceptance(alg, point, 2)
    assert p_value == prefactor(2, 1, point) * q3.evaluate(point)


@criterion(9, "10^4 draws from the n = 200 equal-sets family: no union below 1.1 n")
def test_criterion_09_chernoff_sanity():
    frac = fraction_of_small_unions(200, 10_000, random.Random(20240809))
    assert frac == 0.0


def reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


@criterion(10, "chain consistent for every test algorithm; negative control flags")
def test_criterion_10_end_to_end_chain(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chain")
    for name in ("always-accept-4", "first-is-1-n4", "coincidence-4", "two-query-4", "setcomp-probe-8"):
        out = tmp / f"{name}.json"
        code = cli_main(
            ["chain", "--algorithm", name, "--G", "2", "--mc-samples", "300",
             "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
        assert doc["consistent"] is True, name
        assert doc["two_T"] >= doc["derived_bound"], name
    out = tmp / "negative.json"
    code = cli_main(["chain", "--negative-control", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
    assert doc["consistent"] is False
    assert doc["derived_bound"] > doc["two_T"]
    assert doc["endpoint_low"] is None and doc["endpoint_high"] is None
