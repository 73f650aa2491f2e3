"""Trivariate polynomial machinery for the set-comparison families.

The (g, N, M) input family draws a pair (X, Y) of length-n prefixes of
independent kappa(g)-to-1 functions into random subsets S_X, S_Y of a
random range S.  A monomial's expectation, polymethod's gamma_closed at
a (g, N, M) point, factors into a prefactor depending on (g, N, M) times
a trivariate polynomial q~ of total degree at most 8T (theta_poly and
q_tilde3 take a canonical Monomial), giving

    P(g, N, M) = prefactor3(n, T, N, M, g) * q(g, N, M)

exactly at every admissible point.  The brute-force twin of the closed
form, the exact family average and the Monte Carlo mean are polymethod's
gamma_bruteforce, expected_acceptance and expected_acceptance_mc at a
(g, N, M) point; sample_setcomp_input and expected_acceptance3_mc are
aliases of instances.sample_input and expected_acceptance_mc.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .instances import sample_input
from .lattice import LatticePoly
from .multilinear import Monomial, MultilinearPoly
from .polymethod import assemble_grid_poly, expected_acceptance_mc


def _kappa_poly() -> LatticePoly:
    """kappa(g) = 4g^2 - 12g + 9 as a (g, M) polynomial."""
    return LatticePoly(2, {(2, 0): Fraction(4), (1, 0): Fraction(-12), (0, 0): Fraction(9)})


def theta_poly(m: Monomial) -> LatticePoly:
    """Bivariate (g, M) factor of the trivariate expectation:

        theta_I(g, M) = prod_{i=0}^{wX-1} (M - i kappa(g))
                      * prod_{X values} prod_{j=1}^{mult-1} (kappa(g) - j)
                      * (same two products for the Y register)

    with kappa(g) expanded as the quadratic, so the total degree is at
    most 2 r(I).
    """
    kap = _kappa_poly()
    m_var = LatticePoly.variable(2, 1)
    poly = LatticePoly.constant(2, 1)
    for register in ("x", "y"):
        width = m.width(register)
        for i in range(width):
            poly = poly * (m_var - kap.scale(i))
        for count in m.multiplicities(register).values():
            for j in range(1, count):
                poly = poly * (kap - LatticePoly.constant(2, j))
    return poly


def q_tilde3(m: Monomial, n: int, T: int) -> LatticePoly:
    """Trivariate polynomial with gamma = prefactor3 * q~3 at grid points.

        q~3(g, N, M) = (2n-w)! / ((2n)! (2n)^{2T}) * ((n-2T)!/n!)^2
                       * g^{wX+wY-w} * theta_I(g, M)
                       * prod_{i=rX}^{2T-1} (M - i) * prod_{i=rY}^{2T-1} (M - i)
                       * prod_{i=wX}^{w-1} (2N - i g) * prod_{i=wY}^{2T-1} (2N - i g)

    Total degree is at most r(I) + 6T <= 8T.
    """
    if n < 2 * T:
        raise ValueError("need n >= 2T")
    r_x = len(m.register_factors("x"))
    r_y = len(m.register_factors("y"))
    if r_x + r_y > 2 * T:
        raise ValueError(f"degree violation: monomial degree {r_x + r_y} exceeds 2T")
    w = m.width()
    w_x = m.width("x")
    w_y = m.width("y")
    scalar = Fraction(
        math.factorial(2 * n - w),
        math.factorial(2 * n) * (2 * n) ** (2 * T),
    ) * Fraction(math.factorial(n - 2 * T), math.factorial(n)) ** 2
    g_var = LatticePoly.variable(3, 0)
    n_var = LatticePoly.variable(3, 1)
    m_var = LatticePoly.variable(3, 2)
    poly = LatticePoly.constant(3, scalar)
    for _ in range(w_x + w_y - w):
        poly = poly * g_var
    poly = poly * theta_poly(m).embed3()
    for i in range(r_x, 2 * T):
        poly = poly * (m_var - LatticePoly.constant(3, i))
    for i in range(r_y, 2 * T):
        poly = poly * (m_var - LatticePoly.constant(3, i))
    for i in range(w_x, w):
        poly = poly * (n_var.scale(2) - g_var.scale(i))
    for i in range(w_y, 2 * T):
        poly = poly * (n_var.scale(2) - g_var.scale(i))
    return poly


def prefactor3(n: int, T: int, N: int, M: int, g: int) -> Fraction:
    """(2n)^{2T} / prod_{i=0}^{2T-1}(2N - g i) * ((M-2T)! n! / (M! (n-2T)!))^2.

    Unlike the collision-side prefactor this depends on g through the
    denominator product.
    """
    if M < 2 * T or n < 2 * T:
        raise ValueError("need M >= 2T and n >= 2T")
    denom = 1
    for i in range(2 * T):
        denom *= 2 * N - g * i
    out = Fraction((2 * n) ** (2 * T), denom)
    ratio = Fraction(1)
    for i in range(2 * T):
        ratio *= Fraction(n - i, M - i)
    return out * ratio * ratio


def assemble_q3(p: MultilinearPoly, n: int, T: int) -> LatticePoly:
    """q(g, N, M) = sum_I beta_I q~3_I for an extracted acceptance poly."""
    return assemble_grid_poly(p, n, T, q_tilde3, 3)


# Kept by name: perfbench/tracer.py patches them, under their own spans.
sample_setcomp_input = sample_input
expected_acceptance3_mc = expected_acceptance_mc

