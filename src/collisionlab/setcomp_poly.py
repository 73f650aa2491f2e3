"""Trivariate expectation machinery for the set-comparison families.

The (g, N, M) input family draws a pair (X, Y) of length-n prefixes of
independent kappa(g)-to-1 functions into random subsets S_X, S_Y of a
random range S.  Monomial expectations gamma(I, g, N, M) factor into a
prefactor depending on (g, N, M) times a trivariate polynomial q~ of
total degree at most 8T, giving

    P(g, N, M) = prefactor3(n, T, N, M, g) * q(g, N, M)

exactly at every admissible point.  The brute-force twin of each
closed form, and the exact family average, are polymethod's
gamma_bruteforce and expected_acceptance at a (g, N, M) point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .instances import Instance, SuperQuasilatticePoint, kappa, sample_input, sample_rows
from .lattice import LatticePoly
from .multilinear import MultilinearPoly
from .polymethod import as_monomial, assemble_grid_poly, mean_acceptance_mc


def _kappa_poly() -> LatticePoly:
    """kappa(g) = 4g^2 - 12g + 9 as a (g, M) polynomial."""
    return LatticePoly(2, {(2, 0): Fraction(4), (1, 0): Fraction(-12), (0, 0): Fraction(9)})


def theta_poly(I) -> LatticePoly:
    """Bivariate (g, M) factor of the trivariate expectation:

        theta_I(g, M) = prod_{i=0}^{wX-1} (M - i kappa(g))
                      * prod_{X values} prod_{j=1}^{mult-1} (kappa(g) - j)
                      * (same two products for the Y register)

    with kappa(g) expanded as the quadratic, so the total degree is at
    most 2 r(I).
    """
    m = as_monomial(I)
    if m is None:
        return LatticePoly(2)
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


def gamma3_closed(
    I, g: int, N: int, M: int, n: int, T: int | None = None
) -> Fraction:
    """Probability that monomial I evaluates to 1 under the (g, N, M) family.

    Product of five factors: the monomial's range fits in S; the X-range
    fits in S_X and the Y-range in S_Y; and the pinned positions are
    consistent with the kappa(g)-to-1 draws of X and Y.
    """
    m = as_monomial(I)
    if m is None:
        return Fraction(0)
    k = kappa(g)
    if N % g != 0 or M % k != 0:
        raise ValueError("need g | N and kappa(g) | M")
    s_size = 2 * N // g
    sub = M // k
    if s_size > 2 * n or sub > s_size or M < n:
        raise ValueError("point does not fit the family construction")
    if any(f.position > n for f in m.factors):
        raise ValueError("monomial positions must lie within 1..n")
    r_x = len(m.register_factors("x"))
    r_y = len(m.register_factors("y"))
    if T is not None and r_x + r_y > 2 * T:
        raise ValueError(f"monomial degree {r_x + r_y} exceeds 2T = {2 * T}")
    z_all = m.value_set()
    if any(not 1 <= v <= 2 * n for v in z_all):
        return Fraction(0)
    w = len(z_all)
    w_x = m.width("x")
    w_y = m.width("y")
    if w > s_size or w_x > sub or w_y > sub:
        return Fraction(0)
    mult_x = m.multiplicities("x")
    mult_y = m.multiplicities("y")
    if any(c > k for c in mult_x.values()) or any(c > k for c in mult_y.values()):
        return Fraction(0)

    range_fits = Fraction(
        math.comb(2 * n - w, s_size - w), math.comb(2 * n, s_size)
    )
    sub_x = Fraction(math.comb(s_size - w_x, sub - w_x), math.comb(s_size, sub))
    sub_y = Fraction(math.comb(s_size - w_y, sub - w_y), math.comb(s_size, sub))

    def consistent(r_reg: int, mult: dict[int, int]) -> Fraction:
        out = Fraction(math.factorial(M - r_reg), math.factorial(M))
        for count in mult.values():
            for j in range(count):
                out *= k - j
        return out

    return (
        range_fits
        * sub_x
        * sub_y
        * consistent(r_x, mult_x)
        * consistent(r_y, mult_y)
    )


def q_tilde3(I, n: int, T: int) -> LatticePoly:
    """Trivariate polynomial with gamma3 = prefactor3 * q~3 at grid points.

        q~3(g, N, M) = (2n-w)! / ((2n)! (2n)^{2T}) * ((n-2T)!/n!)^2
                       * g^{wX+wY-w} * theta_I(g, M)
                       * prod_{i=rX}^{2T-1} (M - i) * prod_{i=rY}^{2T-1} (M - i)
                       * prod_{i=wX}^{w-1} (2N - i g) * prod_{i=wY}^{2T-1} (2N - i g)

    Total degree is at most r(I) + 6T <= 8T.
    """
    if n < 2 * T:
        raise ValueError("need n >= 2T")
    m = as_monomial(I)
    if m is None:
        return LatticePoly(3)
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


# Kept by name: perfbench/tracer.py patches it, though the Monte Carlo
# below now draws its rows with sample_rows.
def sample_setcomp_input(point: SuperQuasilatticePoint, n: int, rng: random.Random) -> Instance:
    return sample_input(SuperQuasilatticePoint(*point), n, rng)


def expected_acceptance3_mc(
    obj, point: SuperQuasilatticePoint, n: int, samples: int, rng: random.Random
) -> tuple[float, float]:
    """Monte Carlo mean and standard error over the (g, N, M) family, from
    one table of samples draws from rng."""
    return mean_acceptance_mc(obj, sample_rows(point, n, samples, rng), n)

