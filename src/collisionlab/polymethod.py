"""Acceptance polynomials and their expectations over g-to-1 families.

A T-query standard-oracle algorithm's acceptance probability is a
multilinear polynomial of degree at most 2T in the input indicators;
extract_polynomial builds it by propagating per-amplitude polynomials
through the circuit.  Averaged over the (g, N) input family, each
monomial contributes a closed-form expectation gamma(I, g, N) equal to a
fixed factorial prefactor times a bivariate polynomial q~ of total degree
at most 2T, so the averaged acceptance satisfies

    P(g, N) = prefactor(n, T, N) * q(g, N),    q = sum_I beta_I * q~_I

exactly at every admissible point.  Every closed form, here and in
setcomp_poly, has an independent brute-force twin, gamma_bruteforce,
that enumerates the latent draws directly.  A point's arity names its
family: (g, N) for collision inputs, (g, N, M) for set comparison.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .instances import (
    CollisionLatent,
    Instance,
    QuasilatticePoint,
    enumerate_supports,
    instance_from_latent,
    sample_collision_input,  # perfbench/tracer.py counts samples by patching this name here
)
from .lattice import LatticePoly
from .multilinear import IndicatorVariable, Monomial, MultilinearPoly
from .qsqrt2 import QSqrt2
from .simulator import QueryAlgorithm, acceptance_probability


def as_monomial(I) -> Monomial | None:
    """Accept a Monomial or an iterable of factors; None means the
    identically-zero product (conflicting factors)."""
    if I is None or isinstance(I, Monomial):
        return I
    return Monomial.from_factors(I)


# ---------------------------------------------------------------------------
# acceptance polynomial extraction
# ---------------------------------------------------------------------------


def query_address_register(kind: str, n: int, index: int) -> tuple[str, int]:
    """Map a query address to (register, position): set-comparison
    addresses 1..n read x, n+1..2n read y."""
    if kind == "collision" or index <= n:
        return "x", index
    return "y", index - n


def extract_polynomial(alg: QueryAlgorithm) -> MultilinearPoly:
    """Acceptance probability of alg as a multilinear indicator polynomial.

    Propagates one polynomial per basis state: layers take linear
    combinations; a query sends the amplitude of |w, i, z> to
    |w XOR enc(h), i, z> multiplied by Delta(register_i, h), summed over
    all alphabet values h.  The result is the sum over accepting states
    of the squared amplitude polynomials, in canonical multilinear form,
    with degree at most 2T.

    The arithmetic is on integers.  A propagated polynomial maps
    canonical factor tuples to (A, B), meaning (A + B sqrt(2)) / D, where
    D is the product of the layer denominators (Layer.int_cols) applied
    so far; a query only extends monomials and leaves D unchanged.
    Coefficients become Fractions once, over D^2, after squaring.
    """
    if alg.oracle_kind != "standard":
        raise ValueError("polynomial extraction is defined for standard-oracle algorithms")
    space = alg.space
    stride = space.index_size * 2
    alphabet = range(1, alg.alphabet_size + 1)
    variables: dict[tuple[str, int], list[IndicatorVariable]] = {}

    amps: dict[int, dict[tuple, tuple[int, int]]] = {space.encode(alg.initial): {(): (1, 0)}}
    D = 1

    def apply_layer(layer) -> None:
        nonlocal amps, D
        d_layer, cols = layer.int_cols()
        out: dict[int, dict[tuple, tuple[int, int]]] = {}
        for ordinal, poly in amps.items():
            for row, ea, eb in cols[ordinal]:
                acc = out.get(row)
                if acc is None:
                    acc = out[row] = {}
                for m, (a, b) in poly.items():
                    pa = a * ea + 2 * b * eb
                    pb = a * eb + b * ea
                    cur = acc.get(m)
                    acc[m] = (pa, pb) if cur is None else (cur[0] + pa, cur[1] + pb)
        amps = _nonzero(out)
        D *= d_layer

    apply_layer(alg.layers[0])
    for t in range(1, alg.T + 1):
        masks = [space.encode_answer(h) * stride for h in alphabet]
        out: dict[int, dict[tuple, tuple[int, int]]] = {}
        for ordinal, poly in amps.items():
            index = (ordinal >> 1) % space.index_size + 1
            key = query_address_register(alg.kind, alg.n, index)
            queried = variables.get(key)
            if queried is None:
                queried = variables[key] = [
                    IndicatorVariable(*key, h) for h in alphabet
                ]
            for m, c in poly.items():
                # Factors sort by (register, position, value), so k is
                # where the queried position sits or would be inserted.
                k = bisect_left(m, key)
                if k < len(m) and m[k][:2] == key:
                    # Delta(key, v) Delta(key, h) is Delta(key, v) if h == v, else 0.
                    _add(out, ordinal ^ masks[m[k].value - 1], m, c)
                    continue
                head, tail = m[:k], m[k:]
                for var, mask in zip(queried, masks):
                    _add(out, ordinal ^ mask, (*head, var, *tail), c)
        amps = _nonzero(out)
        apply_layer(alg.layers[t])

    # Square each accepting amplitude: diagonal terms once (Delta^2 =
    # Delta), cross terms i < j doubled.  Monomials are numbered so the
    # products of one pair add up over every accepting amplitude first;
    # each distinct pair is then multiplied out once.
    number: dict[tuple, int] = {}
    accepting = [
        [(number.setdefault(m, len(number)), a, b) for m, (a, b) in poly.items()]
        for ordinal, poly in amps.items()
        if ordinal & 1  # output register holds 2
    ]
    K = len(number)
    pair_sums: dict[int, tuple[int, int]] = {}
    for terms in accepting:
        for p, (i, a1, b1) in enumerate(terms):
            for j, a2, b2 in terms[p:]:
                key = i * K + j if i <= j else j * K + i
                cur = pair_sums.get(key)
                pa = a1 * a2 + 2 * b1 * b2
                pb = a1 * b2 + b1 * a2
                pair_sums[key] = (pa, pb) if cur is None else (cur[0] + pa, cur[1] + pb)
    monomials = list(number)
    total: dict[tuple, tuple[int, int]] = {}
    for key, (a, b) in pair_sums.items():
        i, j = divmod(key, K)
        if i == j:
            m = monomials[i]
        else:
            m = _merge_factors(monomials[i], monomials[j])
            if m is None:
                continue
            a, b = 2 * a, 2 * b
        cur = total.get(m)
        total[m] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
    d2 = D * D
    accept = MultilinearPoly({
        Monomial(m): QSqrt2(Fraction(a, d2), Fraction(b, d2))
        for m, (a, b) in total.items()
        if a or b
    })
    if accept.degree > 2 * alg.T:
        raise AssertionError("extracted degree exceeds 2T; extraction bug")
    return accept


def _add(out: dict, target: int, m: tuple, c: tuple[int, int]) -> None:
    acc = out.get(target)
    if acc is None:
        out[target] = {m: c}
        return
    cur = acc.get(m)
    acc[m] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])


def _nonzero(amps: dict) -> dict:
    """Drop cancelled coefficients, then amplitudes left with no terms."""
    out = {}
    for ordinal, poly in amps.items():
        poly = {m: c for m, c in poly.items() if c[0] or c[1]}
        if poly:
            out[ordinal] = poly
    return out


def _merge_factors(f: tuple, g: tuple) -> tuple | None:
    """Canonical product of two canonical factor tuples; None when they
    pin one (register, position) to two values."""
    out = []
    i = j = 0
    while i < len(f) and j < len(g):
        x, y = f[i], g[j]
        if x[1] == y[1] and x[0] == y[0]:
            if x[2] != y[2]:
                return None
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    return (*out, *f[i:], *g[j:])


def evaluate_poly(p: MultilinearPoly, inst: Instance) -> QSqrt2:
    """Substitute the instance into the indicators and sum."""
    return p.evaluate(inst.x, inst.y)


# ---------------------------------------------------------------------------
# monomial expectations: closed form and brute force
# ---------------------------------------------------------------------------


def gamma_closed(I, g: int, N: int, n: int, T: int | None = None) -> Fraction:
    """Probability that monomial I evaluates to 1 under the (g, N) family.

    Direct product of the counting formula: the chance that the
    monomial's range fits in the drawn range set, times the fraction of
    g-to-1 functions consistent with the pinned positions.  Returns 0 for
    conflicting products, ranges that cannot embed, values outside
    {1..n}, or any value pinned at more than g positions.
    """
    m = as_monomial(I)
    if m is None:
        return Fraction(0)
    if m.register_factors("y"):
        raise ValueError("collision-family expectations take x-register monomials only")
    if g < 1 or N % g != 0:
        raise ValueError("g must be >= 1 and divide N")
    blocks = N // g
    if blocks > n:
        raise ValueError("range size N/g exceeds n")
    r = m.degree
    if T is not None and r > 2 * T:
        raise ValueError(f"monomial degree {r} exceeds 2T = {2 * T}")
    if any(f.position > n for f in m.factors):
        raise ValueError("monomial positions must lie within 1..n")
    values = m.value_set()
    w = len(values)
    if any(not 1 <= v <= n for v in values):
        return Fraction(0)
    if w > blocks:
        return Fraction(0)
    mult = m.multiplicities()
    if any(c > g for c in mult.values()):
        return Fraction(0)
    range_fits = Fraction(math.comb(n - w, blocks - w), math.comb(n, blocks))
    consistent = Fraction(
        math.factorial(N - r) * math.factorial(g) ** w,
        math.factorial(N)
        * math.prod(math.factorial(g - c) for c in mult.values()),
    )
    return range_fits * consistent


def latent_instances(point, n: int, cap: int | None = None) -> Iterator[Instance]:
    """Every latent draw of the family at point, as an Instance, in the
    enumerator's order: (g, N) draws collision inputs, (g, N, M)
    set-comparison pairs.  Raises EnumerationTooLarge past the cap."""
    for latent in enumerate_supports(point, n, cap):
        yield instance_from_latent(latent, n)


# Kept by name: gamma_bruteforce_sweep calls it so that perfbench/tracer.py,
# which patches this name, counts the sweep's latent draws.
def enumerate_collision_supports(
    point: QuasilatticePoint, n: int, cap: int | None = None
) -> Iterator[CollisionLatent]:
    return enumerate_supports(QuasilatticePoint(*point), n, cap)


def gamma_bruteforce(I, point, n: int, cap: int | None = None) -> Fraction:
    """Same expectation as gamma_closed (or gamma3_closed, for a
    (g, N, M) point) by direct enumeration of every latent draw.

    Deliberately naive: walks every draw, evaluates the monomial on its
    length-n prefixes, and divides.  Independent of the closed forms.
    """
    m = as_monomial(I)
    if m is None:
        return Fraction(0)
    hits = 0
    total = 0
    for inst in latent_instances(point, n, cap):
        total += 1
        hits += m.evaluate(inst.x, inst.y)
    return Fraction(hits, total)


def gamma_bruteforce_sweep(
    monomials: Sequence[Monomial | None],
    g: int,
    N: int,
    n: int,
    cap: int | None = None,
) -> list[Fraction]:
    """Brute-force expectations for many monomials over one enumeration.

    Identical counting to gamma_bruteforce (every latent draw, direct
    evaluation); the support table is materialized once and the
    per-monomial indicator product is vectorized.
    """
    xs = np.array(
        [latent.xhat[:n] for latent in enumerate_collision_supports(QuasilatticePoint(g, N), n, cap)],
        dtype=np.int64,
    )
    total = xs.shape[0]
    out = []
    for m in monomials:
        if m is None:
            out.append(Fraction(0))
            continue
        mask = np.ones(total, dtype=bool)
        for f in m.factors:
            if f.register != "x":
                raise ValueError("collision-family expectations take x-register monomials only")
            if f.position > n:
                raise ValueError("monomial positions must lie within 1..n")
            if not 1 <= f.value <= n:
                mask = np.zeros(total, dtype=bool)
                break
            mask &= xs[:, f.position - 1] == f.value
        out.append(Fraction(int(mask.sum()), total))
    return out


def all_monomials(n: int, max_degree: int) -> Iterator[Monomial]:
    """Every canonical x-register monomial on positions and values 1..n
    with degree <= max_degree."""
    yield Monomial.one()
    for r in range(1, max_degree + 1):
        for positions in itertools.combinations(range(1, n + 1), r):
            for values in itertools.product(range(1, n + 1), repeat=r):
                m = Monomial.from_factors(
                    IndicatorVariable("x", p, v) for p, v in zip(positions, values)
                )
                if m is None:
                    raise AssertionError("distinct positions cannot conflict")
                yield m


# ---------------------------------------------------------------------------
# the bivariate polynomial q~ and the prefactor identity
# ---------------------------------------------------------------------------


def q_tilde(I, n: int, T: int) -> LatticePoly:
    """Symbolic bivariate polynomial with gamma = prefactor * q~ at grid points.

        q~(g, N) = (n-w)! (n-2T)! / (n!)^2
                   * prod_{i=r}^{2T-1} (N - i)
                   * prod_{i=0}^{w-1} (N - g i)
                   * prod_{values} prod_{j=1}^{mult-1} (g - j)

    Total degree is (2T - r) + w + (r - w) = 2T.
    """
    if n < 2 * T:
        raise ValueError("need n >= 2T")
    m = as_monomial(I)
    if m is None:
        return LatticePoly(2)
    if m.register_factors("y"):
        raise ValueError("collision-family polynomials take x-register monomials only")
    r = m.degree
    if r > 2 * T:
        raise ValueError(f"degree violation: monomial degree {r} exceeds 2T = {2 * T}")
    w = m.width()
    scalar = Fraction(
        math.factorial(n - w) * math.factorial(n - 2 * T), math.factorial(n) ** 2
    )
    g_var = LatticePoly.variable(2, 0)
    n_var = LatticePoly.variable(2, 1)
    poly = LatticePoly.constant(2, scalar)
    for i in range(r, 2 * T):
        poly = poly * LatticePoly.linear(2, -i, {1: 1})
    for i in range(w):
        poly = poly * (n_var - g_var.scale(i))
    for count in m.multiplicities().values():
        for j in range(1, count):
            poly = poly * LatticePoly.linear(2, -j, {0: 1})
    return poly


def prefactor(n: int, T: int, N: int) -> Fraction:
    """(N-2T)! n! / (N! (n-2T)!) as a falling-factorial ratio, in (0, 1]."""
    if N < 2 * T or n < 2 * T:
        raise ValueError("need N >= 2T and n >= 2T")
    out = Fraction(1)
    for i in range(2 * T):
        out *= Fraction(n - i, N - i)
    return out


def assemble_q(p: MultilinearPoly, n: int, T: int) -> LatticePoly:
    """q(g, N) = sum_I beta_I q~_I(g, N) for an extracted acceptance poly.

    Coefficients must be rational: sqrt(2) parts of squared amplitudes
    are expected to cancel, and a nonzero remainder is an error rather
    than something to approximate away.
    """
    return assemble_grid_poly(p, n, T, q_tilde, 2)


def assemble_grid_poly(
    p: MultilinearPoly, n: int, T: int, q_tilde_of, arity: int
) -> LatticePoly:
    """sum_I beta_I q_tilde_of(I, n, T) in `arity` grid variables; the one
    assembly loop behind assemble_q and assemble_q3.

    q~_I depends on I only through its shape: the width w (distinct
    values over both registers) and the sorted value multiplicities of
    each register.  These give everything q_tilde and q_tilde3 read: the
    degrees r_x, r_y (sums of the multiplicities, r = r_x + r_y), the
    register widths w_x, w_y (their counts), w, and the multiplicities
    themselves; positions and the values' labels never enter.  So the
    rational beta_I are summed per shape, and q~ is built once per shape,
    from its first monomial, and scaled once, in first-seen order.  The
    degree and sqrt(2) checks still run on every term in term order, and
    q_tilde_of runs when a shape is first seen, so its own errors (a y
    factor on the collision side) come in term order too.

    Zero sums are dropped only at the end, so grid monomials keep the
    order in which they first appear: the order a per-term sum gives
    wherever none of its partial sums returns to zero.  evaluate_float
    adds in that order.
    """
    q_tildes: dict[tuple, LatticePoly] = {}  # shape -> q~ of its first monomial
    betas: dict[tuple, Fraction] = {}  # shape -> sum of beta, same order
    for m, c in p.terms.items():
        if m.degree > 2 * T:
            raise ValueError(f"degree violation: monomial degree {m.degree} exceeds 2T")
        try:
            beta = c.as_fraction()
        except ValueError as exc:
            raise ValueError(
                f"coefficient of {m!r} has a nonzero sqrt(2) part: {c!r}"
            ) from exc
        shape = (
            m.width(),
            tuple(sorted(m.multiplicities("x").values())),
            tuple(sorted(m.multiplicities("y").values())),
        )
        if shape not in q_tildes:
            q_tildes[shape] = q_tilde_of(m, n, T)
        betas[shape] = betas.get(shape, 0) + beta
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for shape, beta_sum in betas.items():
        for exps, c in q_tildes[shape].coeffs.items():
            coeffs[exps] = coeffs.get(exps, 0) + c * beta_sum
    return LatticePoly(arity, coeffs)


# ---------------------------------------------------------------------------
# expected acceptance over the family
# ---------------------------------------------------------------------------


_EMPTY_BATCH = "an empty batch has no mean acceptance; need at least one draw"


def _value_on_instance(obj, inst: Instance) -> QSqrt2:
    if isinstance(obj, QueryAlgorithm):
        return acceptance_probability(obj, inst, mode="exact")
    raise TypeError(f"cannot evaluate acceptance of {type(obj).__name__}")


def _draw_array(instances: Iterable[Instance]) -> tuple[np.ndarray, int]:
    """Stream instances into one S x n array of x (S x 2n, y after x, for
    set comparison) without keeping them; returns (array, n)."""
    it = iter(instances)
    first = next(it, None)
    if first is None:
        return np.empty((0, 0), dtype=np.int64), 0
    values = itertools.chain.from_iterable(
        inst.x + (inst.y or ()) for inst in itertools.chain((first,), it)
    )
    draws = np.fromiter(values, dtype=np.int64)
    return draws.reshape(-1, len(first.x) + len(first.y or ())), first.n


def mean_acceptance(obj, instances: Iterable[Instance]) -> QSqrt2:
    """Exact average acceptance over the given instances."""
    if isinstance(obj, MultilinearPoly):
        A, B, D = obj.evaluate_batch(*_draw_array(instances))
        denom = D * len(A)
        return QSqrt2(Fraction(sum(A), denom), Fraction(sum(B), denom))
    total = 0
    acc = QSqrt2(0)
    for inst in instances:
        acc = acc + _value_on_instance(obj, inst)
        total += 1
    if not total:
        raise ValueError(_EMPTY_BATCH)
    return acc / QSqrt2(total)


def mean_acceptance_mc(obj, draws: Iterable[Instance]) -> tuple[float, float]:
    """Float mean and standard error of the acceptance over sampled draws."""
    if isinstance(obj, MultilinearPoly):
        A, B, D = obj.evaluate_batch(*_draw_array(draws))
        values = [float(QSqrt2(Fraction(a, D), Fraction(b, D))) for a, b in zip(A, B)]
    else:
        values = [float(_value_on_instance(obj, inst)) for inst in draws]
    samples = len(values)
    if not samples:
        raise ValueError(_EMPTY_BATCH)
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
    return mean, math.sqrt(var / samples)


def expected_acceptance(obj, point, n: int, cap: int | None = None) -> QSqrt2:
    """Exact average acceptance over every latent draw of the family at
    point, (g, N) or (g, N, M).

    obj is a QueryAlgorithm (simulated per draw) or an extracted
    MultilinearPoly (evaluated over all draws in one batch).
    """
    return mean_acceptance(obj, latent_instances(point, n, cap))


def expected_acceptance_mc(
    obj, point: QuasilatticePoint, n: int, samples: int, rng: random.Random
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the family acceptance."""
    return mean_acceptance_mc(
        obj, (sample_collision_input(point, n, rng) for _ in range(samples))
    )
