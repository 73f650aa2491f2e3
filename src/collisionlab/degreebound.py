"""Approximation-theory side: derivative bounds imply degree bounds.

A degree-d polynomial bounded on an interval has derivative bounded by
d^2 times range/length (Markov, with Chebyshev polynomials extremal).
Run backwards: a distinguishing algorithm forces the assembled grid
polynomial q to climb from near 0 at g=1 to near 1 at g=2, so its
weighted maximum derivative d(q) is large, and Markov turns d(q) plus
the bounded excursion of q over the parameter rectangle into a lower
bound on deg(q), hence on the query count.  The chain report exposes
every intermediate quantity.  The derived bound rises in d toward
sqrt((G-1) / (2 (1 + E))), E >= 0 the window excursion term of
degree_lower_bound, so at G = 2 it stays below sqrt(1/2) for every q.
The degree cap is at least 2 for T >= 1, and a zero-query q is
constant (bound 0), so a G = 2 verdict cannot fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .instances import (
    WINDOW_DENOM,
    WINDOW_DENOM3,
    ConfigError,
    EnumerationTooLarge,
    enumeration_cap,
    kappa,
    quasilattice_points,
    super_quasilattice_points,
)
from .lattice import VARIABLE_NAMES, LatticePoly
from .multilinear import MultilinearPoly
from .polymethod import (
    assemble_q,
    expected_acceptance,
    expected_acceptance_mc,
    extract_polynomial,
    prefactor,
)
from .qsqrt2 import format_fraction
from .setcomp_poly import assemble_q3, expected_acceptance3_mc
from .simulator import QueryAlgorithm

# Chain constants.  All follow from two choices: the allowed error
# probability 1/10 of a distinguisher, and the 0.182 deviation bound
# |P - q| that the prefactor window guarantees.
ERROR_PROBABILITY = Fraction(1, 10)
ACCEPT_GAP = 0.8  # (1 - 1/10) - 1/10
DEVIATION_BOUND = 0.182
SLOPE_FLOOR = 0.436  # ACCEPT_GAP - 2 * DEVIATION_BOUND
RANGE_BASE = 1.364  # 1 + 2 * DEVIATION_BOUND: q stays in (-0.182, 1.182)
PREFACTOR_FLOOR = 0.818  # large-n floor of the prefactor on the window

CONSTANTS = {
    "error_probability": "1/10",
    "accept_gap": ACCEPT_GAP,
    "deviation_bound": DEVIATION_BOUND,
    "slope_floor": SLOPE_FLOOR,
    "range_base": RANGE_BASE,
    "window_denom": WINDOW_DENOM,
    "window_denom3": WINDOW_DENOM3,
    "prefactor_floor": PREFACTOR_FLOOR,
}


@dataclass(frozen=True)
class Family:
    """What differs between the two input families.  The identity loop,
    region, weighting, degree bound and report of the chain are shared."""

    arity: int  # grid variables: (g, N) or (g, N, M)
    points: Callable  # (n, T, G) -> admissible points, sorted
    assemble: Callable  # (acceptance poly, n, T) -> q
    mc_mean: Callable  # (poly, point, n, samples, rng) -> (mean, stderr)
    window_denom: int  # N (and M) window width n / (window_denom T)
    cap_per_query: int  # deg q <= cap_per_query * T
    reach: Callable  # G -> N plus M distance to the nearest admissible point
    value_range: Callable  # max |P - prefactor q| -> width of q's value window


# assemble and mc_mean look their functions up by module global at call
# time, so a wrapper installed on one of those names (a tracer, say) sees
# every call.
FAMILIES = {
    "collision": Family(
        arity=2,
        points=quasilattice_points,
        assemble=lambda p, n, T: assemble_q(p, n, T),
        mc_mean=lambda *args: expected_acceptance_mc(*args),
        window_denom=WINDOW_DENOM,
        cap_per_query=2,
        reach=lambda G: G,
        # The fixed window (-0.182, 1.182) that DEVIATION_BOUND guarantees.
        value_range=lambda deviation: RANGE_BASE,
    ),
    "setcomp": Family(
        arity=3,
        points=super_quasilattice_points,
        assemble=lambda p, n, T: assemble_q3(p, n, T),
        mc_mean=lambda *args: expected_acceptance3_mc(*args),
        window_denom=WINDOW_DENOM3,
        cap_per_query=8,
        reach=lambda G: G + kappa(G),
        # q lies in [-deviation, 1 + deviation] at admissible points.
        value_range=lambda deviation: 1 + 2 * deviation,
    ),
}


def family(variant: str) -> Family:
    try:
        return FAMILIES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


def variant_of(q: LatticePoly) -> str:
    """The family whose grid polynomials have q's arity."""
    return next(name for name, fam in FAMILIES.items() if fam.arity == q.arity)


def markov_bound(degree: int, interval: tuple[float, float], bounds: tuple[float, float]) -> float:
    """Markov's inequality: max |p'| <= (b2-b1)/(a2-a1) * degree^2 for a
    degree-bounded polynomial with values in [b1, b2] on [a1, a2]."""
    a1, a2 = interval
    b1, b2 = bounds
    if not a2 > a1:
        raise ValueError("degenerate interval")
    if b2 < b1:
        raise ValueError("value bounds out of order")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return (b2 - b1) / (a2 - a1) * degree**2


# ---------------------------------------------------------------------------
# weighted maximum derivative over the parameter rectangle
# ---------------------------------------------------------------------------


def chain_region(n: int, T: int, G: int, variant: str) -> list[tuple[float, float]]:
    """Parameter rectangle [1, G] x N-window (x M-window for set
    comparison), one interval per grid variable."""
    if G < 2:
        raise ValueError("need G >= 2 for a nondegenerate rectangle")
    fam = family(variant)
    window = (float(n), n + n / (fam.window_denom * T))
    return [(1.0, float(G))] + [window] * (fam.arity - 1)


@dataclass(frozen=True)
class DerivativeReport:
    value: float
    at: tuple[float, ...]
    direction: str  # "g", "N" or "M"


def _grid_axes(intervals, resolution: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, resolution) for lo, hi in intervals]


_UNIT = 2.0**-53  # unit roundoff of float64
_POW_UNITS = 8  # numpy's float64 power is within 4 ulps, and 1 ulp <= 2 u
_TINY = 2.0**-1074  # spacing of the subnormal floats


def _grid_argmax(p: LatticePoly, axes: list[np.ndarray], weight: float) -> tuple[float, int]:
    """(value, flat index) of the first maximum of
    ``np.abs(p.evaluate_float(*grid)) * weight`` over the tensor grid of
    the axes, evaluating p exactly only where that maximum can be.

    The estimate is p on the whole grid by a separable contraction: the
    coefficient tensor times one Vandermonde matrix ``axis ** j`` per
    axis.  It differs from evaluate_float by at most

        E = eps * S + 2**-1066 * reach + 2**-1074 / weight

    with S = sum_k |c_k| prod_i X_i^e_ik, X_i the largest |value| on axis
    i, reach the same sum with |c_k| and every X_i raised to at least 1,
    and eps = 2 N u, u = 2**-53.  Derivation, for m terms in a variables
    with per-axis degrees d_i, counting numpy's float64 power as 8u (4
    ulps) and a product or a sum as u:
    - evaluate_float rounds each term's coefficient once, and per
      variable one power and one product: 1 + 9a; then m - 1 sums;
    - the estimate rounds the same coefficient, one Vandermonde power
      per variable, and one dot product of length d_i + 1 per axis:
      1 + 8a + sum (d_i + 1);
    - so each term carries at most N = m + 17a + 1 + sum (d_i + 1)
      relative roundings, and |estimate - evaluate_float| <= gamma_N S
      with gamma_N = N u / (1 - N u).
    eps = 2 N u is twice that, so that 3E also covers the rounding of
    ``* weight`` (a relative 2u) and of the threshold below.  An
    underflow adds an absolute error of at most 4 * 2**-1074, which the
    factors applied after it scale by at most max(1, |factor|) each; a
    term meets at most 32 of them in the two evaluations, hence the
    reach term.  Underflow in ``* weight`` merges values that differ by
    up to 2**-1074 / weight, hence the last term.

    So every point whose weighted value can reach the maximum, ties
    included, has |estimate| >= max |estimate| - 3E.  Only those points
    are evaluated with evaluate_float, as 1-D coordinate arrays, and the
    first maximum among them in flat order is the grid's.  Where the
    estimate or E is not finite, or twice reach * max(weight, 1) would
    overflow (then evaluate_float itself could), the threshold is -inf
    and the band is the whole grid.
    """
    exps = np.array(list(p.coeffs), dtype=np.int64).reshape(-1, p.arity)
    coeffs = np.array([float(c) for c in p.coeffs.values()])
    degrees = exps.max(axis=0, initial=0)
    tensor = np.zeros(degrees + 1)
    tensor[tuple(exps.T)] = coeffs
    extent = np.array([np.abs(ax).max() for ax in axes])
    roundings = len(coeffs) + (2 * _POW_UNITS + 1) * p.arity + 1 + int(np.sum(degrees + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        estimate = tensor
        for ax, d in zip(axes, degrees):
            estimate = np.tensordot(estimate, ax[:, None] ** np.arange(d + 1), axes=(0, 1))
        scale = np.sum(np.abs(coeffs) * np.prod(extent**exps, axis=1))
        reach = np.sum(
            np.maximum(np.abs(coeffs), 1.0) * np.prod(np.maximum(extent, 1.0) ** exps, axis=1)
        )
        bound = 2 * roundings * _UNIT * scale + 2**-1066 * reach + np.divide(_TINY, weight)
        magnitude = np.abs(estimate, out=estimate)
        threshold = magnitude.max() - 3 * bound
        if not (np.isfinite(threshold) and np.isfinite(2 * reach * max(weight, 1.0))):
            threshold = -np.inf
    # ~(x < threshold) keeps NaN, which only an -inf threshold can meet.
    band = np.flatnonzero(~(magnitude < threshold))
    coords = [ax[i] for ax, i in zip(axes, np.unravel_index(band, magnitude.shape))]
    vals = np.abs(p.evaluate_float(*coords)) * weight
    best = int(np.argmax(vals))
    return float(vals[best]), int(band[best])


def weighted_max_derivative(
    q: LatticePoly,
    n: int,
    T: int,
    G: int,
    resolution: int | None = None,
    refinement_rounds: int = 2,
) -> DerivativeReport:
    """Maximize the weighted absolute partial derivatives of q over the
    chain's rectangle, chain_region(n, T, G) of the family q's arity
    names: weight 1 on d/dg and n/(10T(G-1)) on d/dN (both window
    directions get n/(100T(G-1)) for set comparison).

    A grid of the given per-axis resolution (512 bivariate, 64
    trivariate by default, at least 2), then refinement rounds (at least
    0) re-grid a shrinking window around the best point.  Each round
    reports, per partial, the first maximum in flat order of
    ``np.abs(partial.evaluate_float(*grid)) * weight`` over the tensor
    grid, as ``np.argmax`` over the whole grid would, with the same bits.
    ``_grid_argmax`` finds it from a bounded separable estimate and
    evaluates exactly only the points that can hold it.  Deterministic
    for fixed settings.
    """
    variant = variant_of(q)
    fam = family(variant)
    if resolution is None:
        resolution = 512 if q.arity == 2 else 64
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if refinement_rounds < 0:
        raise ValueError(f"refinement_rounds must be >= 0, got {refinement_rounds}")
    directions = VARIABLE_NAMES[q.arity]
    w = n / (fam.window_denom * T * (G - 1))
    weights = dict(zip(directions, [1.0] + [w] * (q.arity - 1)))
    partials = {
        name: q.derivative(i) for i, name in enumerate(directions)
    }

    intervals = chain_region(n, T, G, variant)
    best = DerivativeReport(-1.0, (), "g")
    for _ in range(refinement_rounds + 1):
        axes = _grid_axes(intervals, resolution)
        round_best = None
        for name in directions:
            value, flat = _grid_argmax(partials[name], axes, weights[name])
            if round_best is None or value > round_best[0]:
                idx = np.unravel_index(flat, (resolution,) * q.arity)
                at = tuple(float(ax[i]) for ax, i in zip(axes, idx))
                round_best = (value, at, name, idx)
        value, at, name, idx = round_best
        if value > best.value:
            best = DerivativeReport(value, at, name)
        # Shrink each axis to a few cells around the argmax.
        new_intervals = []
        for (lo, hi), ax, i in zip(intervals, axes, idx):
            pad = 2
            new_lo = float(ax[max(0, i - pad)])
            new_hi = float(ax[min(len(ax) - 1, i + pad)])
            if new_hi <= new_lo:
                new_lo, new_hi = lo, hi
            new_intervals.append((new_lo, new_hi))
        intervals = new_intervals
    return best


def degree_lower_bound(
    d: float, G: int, T: int, n: int, variant: str = "collision",
    value_range: float = RANGE_BASE,
) -> float:
    """Markov-implied lower bound on the degree of the grid polynomial:

        sqrt( d (G-1) / (value_range + 2 d (1 + c T (G-1) reach(G) / n)) )

    with window constant c = 10 and reach(G) = G for collision, c = 100
    and reach(G) = G + kappa(G) for set comparison: the nearest
    admissible point is within (1, G[, kappa(G)]) along (g, N[, M]).
    For collision with the slope floor d = 0.436 this is the closed form
    sqrt(0.436 (G-1) n / (2.236 n + 8.720 T G (G-1))).  Compare the
    result against the degree cap.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return 0.0
    fam = family(variant)
    excursion = d * (1 + fam.window_denom * T * (G - 1) * fam.reach(G) / n)
    return math.sqrt(d * (G - 1) / (value_range + 2 * excursion))


# ---------------------------------------------------------------------------
# the end-to-end chain report
# ---------------------------------------------------------------------------


@dataclass
class PointRow:
    point: tuple[int, ...]
    p_value: Fraction | float
    q_value: Fraction
    prefactor: Fraction
    deviation: float
    exact: bool

    def to_json(self) -> dict:
        doc = dict(zip(VARIABLE_NAMES[len(self.point)], self.point))
        doc.update(
            {
                "P": _num_json(self.p_value),
                "q": _num_json(self.q_value),
                "prefactor": _num_json(self.prefactor),
                "abs_dev": self.deviation,
                "exact": self.exact,
            }
        )
        return doc


def _num_json(v):
    if isinstance(v, Fraction):
        return format_fraction(v)
    return float(v)


@dataclass
class ChainReport:  # fields in report order: to_json lists them as declared
    variant: str
    algorithm: str
    n: int
    T: int
    G: int
    extracted_degree: int
    degree_cap: int  # cap_per_query * T: 2T for collision, 8T for set comparison
    endpoint_low: float  # P at g=1 endpoint
    endpoint_high: float  # P at g=2 endpoint
    distinguisher: bool
    fd_slope: float | None
    d_value: float
    d_at: tuple[float, ...]
    d_direction: str
    derived_bound: float
    two_T: int = field(init=False)
    consistent: bool
    notes: list[str]
    points: list[PointRow]

    def __post_init__(self):
        self.two_T = 2 * self.T

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["points"] = [row.to_json() for row in self.points]
        return doc

    def csv_rows(self) -> tuple[list[str], list[dict]]:
        """The CSV header and each point's JSON row but its exact flag."""
        header = [*VARIABLE_NAMES[family(self.variant).arity], "P", "q", "prefactor", "abs_dev"]
        return header, [{k: v for k, v in row.to_json().items() if k != "exact"} for row in self.points]


SIM_ENUM_LIMIT = 20_000  # latent draws; above this the chain falls back to MC


def identity_grid(alg: QueryAlgorithm, G: int) -> list:
    """The admissible points with g <= G of the algorithm's family, sorted.
    A zero-query circuit's q is constant; only the window needs T >= 1.
    Every rejection, n < 2T first, is a ConfigError, so callers check a
    request here before they extract."""
    if alg.n < 2 * alg.T:
        raise ConfigError(f"need n >= 2T, got n={alg.n} and T={alg.T}")
    return family(alg.kind).points(alg.n, max(alg.T, 1), G)


def identity_points(
    alg: QueryAlgorithm, poly: MultilinearPoly, q: LatticePoly, G: int, cap: int | None = None,
    mc_samples: int | None = None, rng: random.Random | None = None,
) -> Iterator[tuple]:
    """Yield (point, P, q(point), prefactor, exact) at every admissible
    point with g <= G of the algorithm's family, in sorted order.

    P is the circuit's exact mean over every latent draw when they number
    at most enumeration_cap(cap).  Past that, EnumerationTooLarge
    propagates, unless mc_samples is given: then P is the float Monte
    Carlo mean of poly over that many draws from rng, and exact is False.
    """
    fam = family(alg.kind)
    n, T = alg.n, alg.T
    for pt in identity_grid(alg, G):
        pref = prefactor(n, T, pt)
        q_val = q.evaluate(pt)
        try:
            p_val, exact = expected_acceptance(alg, pt, n, cap).as_fraction(), True
        except EnumerationTooLarge:
            if mc_samples is None:
                raise
            p_val, _ = fam.mc_mean(poly, pt, n, mc_samples, rng)
            exact = False
        yield pt, p_val, q_val, pref, exact


def verify_inequality_chain(
    alg: QueryAlgorithm,
    G: int,
    mc_samples: int = 2000,
    seed: int = 0,
    cap: int | None = None,
) -> ChainReport:
    """Extract, assemble, bound: the full consistency report for one
    algorithm, on the family its kind names.

    Computes the acceptance polynomial and its grid polynomial, the
    per-point family acceptances (exact when the latent draws number at
    most min(SIM_ENUM_LIMIT, enumeration_cap(cap)), Monte Carlo
    otherwise), the prefactor identity deviations, the weighted maximum
    derivative, and the implied degree lower bound.  For any genuine
    algorithm the report must come out consistent: degree cap >= bound.
    """
    if G < 2:
        raise ConfigError(f"need G >= 2 for a nondegenerate rectangle, got G={G}")
    if mc_samples < 1:
        raise ConfigError(f"need at least one Monte Carlo sample, got mc_samples={mc_samples}")
    cap = min(SIM_ENUM_LIMIT, enumeration_cap(cap))
    identity_grid(alg, G)  # fail before extraction
    fam = family(alg.kind)
    n, T = alg.n, alg.T
    notes: list[str] = []
    poly = extract_polynomial(alg)
    q = fam.assemble(poly, n, T)
    rows: list[PointRow] = []
    for pt, p_val, q_val, pref, exact in identity_points(
        alg, poly, q, G, cap, mc_samples, random.Random(seed)
    ):
        dev = float(abs(p_val - pref * q_val)) if exact else abs(float(p_val) - float(pref * q_val))
        if not exact:
            notes.append(f"P at {tuple(pt)} estimated from {mc_samples} samples")
        rows.append(PointRow(tuple(pt), p_val, q_val, pref, dev, exact))
    low = next(r for r in rows if r.point[0] == 1)
    high = next((r for r in rows if r.point[0] == 2), None)
    endpoint_low = float(low.p_value)
    endpoint_high = float(high.p_value) if high else float("nan")
    fd_slope = (
        abs(float(q.evaluate(high.point) - q.evaluate((1,) + high.point[1:])))
        if high
        else None
    )
    if high is None:
        notes.append("no g=2 point in range; distinguisher check skipped")

    distinguisher = (
        endpoint_low <= float(ERROR_PROBABILITY) + 1e-15
        and endpoint_high >= 1 - float(ERROR_PROBABILITY) - 1e-15
    )
    if not distinguisher:
        notes.append("not a distinguisher: endpoint acceptances miss the 1/10 - 9/10 gap")

    return _bound_report(
        alg.kind, q, n, T, G, max((r.deviation for r in rows), default=0.0),
        algorithm=alg.name,
        extracted_degree=max(poly.degree, 0),
        points=rows,
        endpoint_low=endpoint_low,
        endpoint_high=endpoint_high,
        distinguisher=distinguisher,
        fd_slope=fd_slope,
        notes=notes,
    )


def chain_report_for_poly(
    q: LatticePoly, n: int, T: int, G: int, label: str = "injected-poly",
) -> ChainReport:
    """Chain consistency for a directly supplied grid polynomial, on the
    family its arity names.

    Negative control path: an injected polynomial with an artificially
    steep derivative should report 2T < bound, i.e. inconsistency.
    """
    if G < 2:
        raise ConfigError(f"need G >= 2 for a nondegenerate rectangle, got G={G}")
    if T < 1:
        raise ConfigError(f"need T >= 1 for the chain window, got T={T}")
    if n < 1:
        raise ConfigError(f"need n >= 1 for the chain window, got n={n}")
    variant = variant_of(q)
    fam = family(variant)
    try:  # the rectangle's corners and the Markov excursion c T (G-1) reach(G) / n
        float(G), float(n), float(Fraction(fam.window_denom * T * (G - 1) * fam.reach(G), n))
    except OverflowError:
        raise ConfigError("n, T and G give a chain window past the float range") from None
    return _bound_report(
        variant, q, n, T, G, DEVIATION_BOUND,
        algorithm=label,
        extracted_degree=q.total_degree,
        points=[],
        endpoint_low=float("nan"),
        endpoint_high=float("nan"),
        distinguisher=False,
        fd_slope=None,
        notes=["no per-point section: polynomial supplied directly"],
    )


def _bound_report(variant, q, n, T, G, deviation, **head) -> ChainReport:
    """The tail both chains share: the weighted derivative search over
    the rectangle, the Markov bound with q's value window widened by
    deviation = max |P - prefactor q|, and the verdict against the
    degree cap."""
    fam = family(variant)
    T_win = max(T, 1)
    d_report = weighted_max_derivative(q, n, T_win, G)
    bound = degree_lower_bound(
        d_report.value, G, T_win, n, variant, fam.value_range(deviation)
    )
    degree_cap = fam.cap_per_query * T
    return ChainReport(
        variant=variant,
        n=n,
        T=T,
        G=G,
        degree_cap=degree_cap,
        d_value=d_report.value,
        d_at=d_report.at,
        d_direction=d_report.direction,
        derived_bound=bound,
        consistent=degree_cap >= bound - 1e-12,
        **head,
    )
