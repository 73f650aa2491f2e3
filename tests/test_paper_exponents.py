"""The paper's exponents from the chain's inequality, evaluated at scale.

An algorithm that distinguishes the families with T queries has a grid
polynomial q of degree at most cap_per_query * T (2T for collision, 8T
for set comparison) whose weighted derivative is at least the slope
floor, so Markov's inequality asks for

    cap_per_query * T >= degree_lower_bound(SLOPE_FLOOR, G, T, n, variant)

at every admissible G.  The least T that meets the best G grows like
n^(1/5) for collision and n^(1/7) for set comparison.  This is the
inequality's arithmetic at n = 10^20 .. 10^40, not a simulation: no
circuit, polynomial or draw enters.
"""

import math
from fractions import Fraction

import pytest

from collisionlab.degreebound import SLOPE_FLOOR, chain_report_for_poly, degree_lower_bound, family
from collisionlab.instances import _iroot
from collisionlab.lattice import LatticePoly

FACTORS = (0.25, 0.5, 0.7, 0.85, 1, 1.2, 1.5, 2, 3)
EXPONENTS = {"collision": 1 / 5, "setcomp": 1 / 7}
T_MIN = {"collision": (1723, 17_226_226), "setcomp": (23, 15_998)}  # at n = 10^20 and 10^40


def candidates(n: int, T: int, variant: str) -> list[int]:
    """Admissible G around the bound's maximizer, G0 = sqrt(n / (10 T))
    for collision and (n / (100 T))^(1/3) for set comparison."""
    if variant == "collision":
        G0, top = math.sqrt(n / (10 * T)), math.isqrt(n)
    else:
        G0, top = (n / (100 * T)) ** (1 / 3), _iroot(n, 3)
    return sorted({G for f in FACTORS for G in (int(G0 * f) + d for d in (-1, 0, 1)) if 2 <= G <= top})


def best_bound(n: int, T: int, variant: str) -> tuple[float, int]:
    """(largest bound, its G) over the candidates."""
    return max((degree_lower_bound(SLOPE_FLOOR, G, T, n, variant), G) for G in candidates(n, T, variant))


def least_T(n: int, variant: str) -> int:
    """The least T whose degree cap meets the best bound: doubling, then
    bisection (the bound falls in T, the cap rises)."""
    cap = family(variant).cap_per_query

    def meets(T):
        return cap * T >= best_bound(n, T, variant)[0]

    hi = 1
    while not meets(hi):
        hi *= 2
    lo = hi // 2  # fails, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("variant", ["collision", "setcomp"])
def test_least_T_grows_with_the_papers_exponent(variant):
    ks = range(20, 42, 2)
    t_min = {k: least_T(10**k, variant) for k in ks}
    assert (t_min[20], t_min[40]) == T_MIN[variant]
    for k in ks[:-1]:
        slope = math.log10(t_min[k + 2] / t_min[k]) / 2
        assert abs(slope - EXPONENTS[variant]) <= 0.01, (k, slope)
    for k, T in t_min.items():
        G = best_bound(10**k, T, variant)[1]
        grid = candidates(10**k, T, variant)
        assert grid[0] < G < grid[-1], (k, G)


@pytest.mark.parametrize("G, bound, consistent", [(18, 2.0175, False), (2, 0.682, True)])
def test_a_steep_q_fails_the_collision_chain_only_at_large_G(G, bound, consistent):
    """q = 10 g at n = 3000, T = 1: the smallest point where a collision
    verdict can fail, against the degree cap 2."""
    report = chain_report_for_poly(LatticePoly(2, {(1, 0): Fraction(10)}), 3000, 1, G)
    assert report.degree_cap == 2
    assert report.derived_bound == pytest.approx(bound, abs=5e-5)
    assert report.consistent is consistent
