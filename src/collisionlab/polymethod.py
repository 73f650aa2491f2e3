"""Acceptance polynomials and their expectations over the input families.

A T-query standard-oracle algorithm's acceptance probability is a
multilinear polynomial of degree at most 2T in the input indicators;
extract_polynomial builds it by propagating per-amplitude polynomials
through the circuit.  A point's arity names its family: (g, N) for
collision inputs, (g, N, M) for set comparison.  Averaged over either
family, a monomial I has the expectation gamma_closed(I, point, n), one
counting formula whose parameters alone depend on the arity.  On the
collision side gamma is a fixed factorial prefactor times a bivariate
polynomial q~ of total degree at most 2T, so the averaged acceptance
satisfies

    P(g, N) = prefactor(n, T, N) * q(g, N),    q = sum_I beta_I * q~_I

exactly at every admissible point; setcomp_poly holds the trivariate
q~3 and prefactor3.  The closed form's independent twin,
gamma_bruteforce, enumerates the latent draws of either family.
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
    Instance,
    enumerate_rows,
    kappa,
    sample_collision_input,  # unused; kept bound because perfbench/tracer.py patches it here
    sample_rows,
)
from .lattice import LatticePoly
from .multilinear import IndicatorVariable, Monomial, MultilinearPoly, hit_masks, monomials_over
from .qsqrt2 import QSqrt2, int_form
from .simulator import QueryAlgorithm, _grouped, _int64_or_object, acceptance_probability


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

    Squaring runs on integer arrays.  The monomials of the accepting
    amplitudes are numbered 0..K-1 in first-seen order.  Each
    amplitude's upper-triangle pairs (p, q >= p) give a pair key
    min * K + max and the products of their coefficients; the products
    are summed per key, and the keys keep the order in which they first
    appear.  A K x (positions) table of the value each monomial pins
    (0: free) finds the pairs whose factors conflict and gives each
    merged monomial one integer code, under which the diagonal sums and
    the doubled cross sums are added.  Each surviving monomial is
    multiplied out once, from its first pair.  So the terms, and their
    order, are those of a dict filled pair by pair: assemble_grid_poly,
    and through it LatticePoly.evaluate_float, add in that order.  The
    sums are int64 while 6 max|coef|^2 pairs fits in it, and the codes
    while the largest possible code does; past either bound the same
    arrays hold Python ints.  Only the table of pinned values takes the
    narrowest type that holds the largest value.
    Coefficients become Fractions once, over D^2, after squaring.
    """
    if alg.oracle_kind != "standard":
        raise ValueError("polynomial extraction is defined for standard-oracle algorithms")
    accept = _square_accepting(*_propagate(alg))
    if accept.degree > 2 * alg.T:
        raise AssertionError("extracted degree exceeds 2T; extraction bug")
    return accept


def _propagate(alg: QueryAlgorithm) -> tuple[dict[int, dict[tuple, tuple[int, int]]], int]:
    """(amps, D) after the last layer: amps maps each basis-state ordinal
    with a nonzero amplitude to its polynomial, canonical factor tuple ->
    (A, B), meaning (A + B sqrt(2)) / D."""
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

    return amps, D


def _square_accepting(amps: dict[int, dict[tuple, tuple[int, int]]], D: int) -> MultilinearPoly:
    """Sum of the squared accepting amplitudes, over D^2: diagonal pairs
    once (Delta^2 = Delta), cross pairs doubled.  See extract_polynomial
    for the method."""
    number: dict[tuple, int] = {}
    accepting = [
        [(number.setdefault(m, len(number)), a, b) for m, (a, b) in poly.items()]
        for ordinal, poly in amps.items()
        if ordinal & 1  # output register holds 2
    ]
    monomials = list(number)
    K = len(monomials)
    pairs = sum(len(terms) * (len(terms) + 1) // 2 for terms in accepting)
    if not pairs:
        return MultilinearPoly()
    # No sum below exceeds 6 max|coef|^2 pairs in absolute value.
    big = max(max(abs(a), abs(b)) for terms in accepting for _, a, b in terms)
    coef = _int64_or_object(6 * big * big * pairs)

    # Pair products of each amplitude, summed per pair key, in the order
    # in which the keys first appear.
    keys = np.empty(pairs, dtype=np.int64)
    prod_a = np.empty(pairs, dtype=coef)
    prod_b = np.empty(pairs, dtype=coef)
    end = 0
    for terms in accepting:
        idx, a, b = zip(*terms)
        idx = np.array(idx, dtype=np.int64)
        a, b = np.array(a, dtype=coef), np.array(b, dtype=coef)
        p, q = np.triu_indices(len(terms))
        part = slice(end, end + len(p))
        end += len(p)
        ip, iq, ap, aq, bp, bq = idx[p], idx[q], a[p], a[q], b[p], b[q]
        keys[part] = np.minimum(ip, iq) * K + np.maximum(ip, iq)
        prod_a[part] = ap * aq + 2 * bp * bq
        prod_b[part] = ap * bq + bp * aq
    first, sum_a, sum_b = _grouped(keys, prod_a, prod_b)
    i, j = np.divmod(keys[first], K)
    del keys, prod_a, prod_b

    # Merge each pair on a table of pinned values (0: free), one column
    # per (register, position); a merged monomial's code is the Horner
    # number of its factors' indices, base F + 1 for F distinct factors.
    slots = sorted({f[:2] for m in monomials for f in m})
    factors = sorted({f for m in monomials for f in m})
    top = max((f[2] for f in factors), default=0)
    column = {slot: c for c, slot in enumerate(slots)}
    table = np.zeros((K, len(slots)), dtype=np.min_scalar_type(top))
    for k, m in enumerate(monomials):
        for f in m:
            table[k, column[f[:2]]] = f[2]
    base = len(factors) + 1
    max_degree = 2 * max(len(m) for m in monomials)
    code_type = _int64_or_object(base ** max_degree - 1)
    digits = np.zeros((len(slots), top + 1), dtype=code_type)
    for d, f in enumerate(factors, 1):
        digits[column[f[:2]], f[2]] = d
    ti, tj = table[i], table[j]
    keep = ~((ti != tj) & (ti != 0) & (tj != 0)).any(axis=1)
    merged = np.maximum(ti, tj)
    code = np.zeros(len(i), dtype=code_type)
    for c in range(len(slots)):
        v = merged[:, c]
        hit = v != 0
        code[hit] = code[hit] * base + digits[c, v[hit]]
    i, j, sum_a, sum_b = i[keep], j[keep], sum_a[keep], sum_b[keep]
    cross = i != j
    sum_a[cross] *= 2
    sum_b[cross] *= 2
    first, total_a, total_b = _grouped(code[keep], sum_a, sum_b)
    d2 = D * D
    return MultilinearPoly({
        Monomial(_merge_factors(monomials[i[f]], monomials[j[f]])): QSqrt2.over(a, b, d2)
        for f, a, b in zip(first.tolist(), total_a.tolist(), total_b.tolist())
        if a or b
    })


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


def gamma_closed(I, point, n: int, T: int | None = None) -> Fraction:
    """Probability that monomial I evaluates to 1 under the family at
    point, (g, N) or (g, N, M), for inputs of length n:

        C(U - w, |S| - w) / C(U, |S|)
        * prod_reg C(|S| - w_reg, sub - w_reg) / C(|S|, sub)
                   * (L - r_reg)! / L! * prod_{values v} perm(k, c_v)

    the chance that the monomial's range fits in the drawn range set S,
    that each register's range fits in its drawn range, and that its
    pinned positions agree with a k-to-1 sequence of length L.  Only the
    parameters depend on the arity: (g, N) has U = n, |S| = N/g, k = g,
    L = N and one register x, whose range is S itself (sub = |S|, a
    factor of 1); (g, N, M) has U = 2n, |S| = 2N/g, sub = M/kappa(g),
    k = kappa(g), L = M and the registers x and y.

    Conflicting products, values outside {1..U}, ranges that cannot
    embed and values pinned more than k times in a register give 0.
    The points rejected are those enumerate_rows rejects.  The count
    uses the point alone, never the sampler or the enumerator, so that
    gamma_bruteforce stays an independent check.
    """
    m = as_monomial(I)
    if m is None:
        return Fraction(0)
    g, N, *M = point
    if g < 1 or N % g:
        raise ValueError("g must be >= 1 and divide N")
    if M:
        (L,) = M
        k, U, size, registers = kappa(g), 2 * n, 2 * N // g, ("x", "y")
        if L % k:
            raise ValueError("kappa(g) must divide M")
        sub = L // k
    else:
        k, L, U, size, registers = g, N, n, N // g, ("x",)
        sub = size
    if size > U or sub > size or L < n:
        raise ValueError(f"point {tuple(point)} does not fit inputs of length n={n}")
    if T is not None and m.degree > 2 * T:
        raise ValueError(f"monomial degree {m.degree} exceeds 2T = {2 * T}")
    if any(f.register not in registers or f.position > n for f in m.factors):
        raise ValueError(f"monomial factors must lie on registers {registers} at positions 1..n")
    values = m.value_set()
    w = len(values)
    if w > size or any(not 1 <= v <= U for v in values):
        return Fraction(0)
    num, den = math.comb(U - w, size - w), math.comb(U, size)  # reduced once, at the end
    for reg in registers:
        mult = m.multiplicities(reg)
        w_reg = len(mult)
        if w_reg > sub:
            return Fraction(0)
        num *= math.comb(size - w_reg, sub - w_reg)
        den *= math.comb(size, sub)
        num *= math.prod(math.perm(k, c) for c in mult.values())
        den *= math.perm(L, sum(mult.values()))
    return Fraction(num, den)


# Kept by name: gamma_bruteforce_sweep calls it so that perfbench/tracer.py,
# which patches this name, counts the sweep's latent draws.
enumerate_collision_supports = enumerate_rows


def gamma_bruteforce(I, point, n: int, cap: int | None = None) -> Fraction:
    """Same expectation as gamma_closed, at a (g, N) or (g, N, M) point,
    by direct enumeration of every latent draw.

    Deliberately naive: walks every draw's row, evaluates the monomial on
    its x (and y), and divides.  Independent of the closed forms.
    """
    m = as_monomial(I)
    if m is None:
        return Fraction(0)
    hits = 0
    total = 0
    for row in enumerate_rows(point, n, cap):
        total += 1
        hits += m.evaluate(row[:n], row[n:])
    return Fraction(hits, total)


def gamma_bruteforce_sweep(
    monomials: Sequence[Monomial | None], point, n: int, cap: int | None = None
) -> list[Fraction]:
    """gamma_bruteforce for many monomials over one enumeration of the
    (g, N) family at point: hit draws over all draws, with the hits read
    from one table of the draws by evaluate_batch's hit_masks."""
    draws = draw_table(enumerate_collision_supports(point, n, cap), point, n)
    total = len(draws)
    hits = iter([
        total if mask is None else int(np.count_nonzero(mask))
        for mask in hit_masks([m for m in monomials if m is not None], draws, n)
    ])
    return [Fraction(0) if m is None else Fraction(next(hits), total) for m in monomials]


def all_monomials(n: int, max_degree: int) -> Iterator[Monomial]:
    """Every canonical x-register monomial on positions and values 1..n
    with degree <= max_degree."""
    return monomials_over([("x", p) for p in range(1, n + 1)], range(1, n + 1), max_degree)


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


def draw_table(rows: Iterable[Sequence[int]], point, n: int) -> np.ndarray:
    """Stream the rows of draws from the family at point into one table,
    without keeping them: S x n of x for a (g, N) point, S x 2n of x then
    y for a (g, N, M) point.  Values lie in 1..n, or 1..2n, so the table
    takes the narrowest type that holds the largest."""
    width = n * (len(point) - 1)
    return np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.min_scalar_type(width)
    ).reshape(-1, width)


def _row_instance(row: np.ndarray, n: int) -> Instance:
    """The input of one draw-table row."""
    x, y = tuple(row[:n].tolist()), tuple(row[n:].tolist())
    return Instance("setcomp", n, x, y) if y else Instance("collision", n, x)


def _exact_acceptances(
    obj, draws: np.ndarray, n: int
) -> tuple[Sequence[int], Sequence[int], int]:
    """(A, B, D): draw s of the table accepts with probability
    (A[s] + B[s] sqrt(2)) / D.

    A MultilinearPoly is evaluated over the whole table in one batch; a
    QueryAlgorithm is simulated exactly row by row, and its acceptances
    are brought to their int_form.
    """
    if isinstance(obj, MultilinearPoly):
        return obj.evaluate_batch(draws, n)
    D, pairs = int_form([
        acceptance_probability(obj, _row_instance(row, n), mode="exact") for row in draws
    ])
    if not pairs:
        raise ValueError(_EMPTY_BATCH)
    A, B = zip(*pairs)
    return A, B, D


def mean_acceptance_mc(obj, draws: np.ndarray, n: int) -> tuple[float, float]:
    """Float mean and standard error of the acceptance over a table of
    sampled draws."""
    A, B, D = _exact_acceptances(obj, draws, n)
    values = [QSqrt2.float_over(a, b, D) for a, b in zip(A, B)]
    samples = len(values)
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
    return mean, math.sqrt(var / samples)


def expected_acceptance(obj, point, n: int, cap: int | None = None) -> QSqrt2:
    """Exact average acceptance over every latent draw of the family at
    point, (g, N) or (g, N, M), read from enumerate_rows into one table.

    obj is a QueryAlgorithm (simulated row by row) or an extracted
    MultilinearPoly (evaluated over all rows in one batch).
    """
    draws = draw_table(enumerate_rows(point, n, cap), point, n)
    A, B, D = _exact_acceptances(obj, draws, n)
    return QSqrt2.over(sum(A), sum(B), D * len(A))


def expected_acceptance_mc(
    obj, point, n: int, samples: int, rng: random.Random
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the acceptance over the
    family at point, (g, N) or (g, N, M), from one table of samples draws
    from rng."""
    return mean_acceptance_mc(obj, sample_rows(point, n, samples, rng), n)
