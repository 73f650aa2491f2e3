"""Acceptance polynomials and their expectations over the input families.

A T-query standard-oracle algorithm's acceptance probability is a
multilinear polynomial of degree at most 2T in the input indicators;
extract_polynomial builds it by propagating per-amplitude polynomials
through the circuit.  A point's arity names its family: (g, N) for
collision inputs, (g, N, M) for set comparison.  Averaged over either
family, a canonical Monomial I has the expectation gamma_closed(I,
point, n), one counting formula whose parameters alone depend on the
arity.  It factors into a prefactor of the point times a grid
polynomial q~ of total degree at most 2T (collision) or 8T (set
comparison), again one formula for both, so the averaged acceptance
satisfies

    P(point) = prefactor(n, T, point) * q(point),
    q = sum_lambda beta_lambda * q_tilde(lambda, n, T, len(point))

exactly at every admissible point, where beta_lambda sums the
coefficients of the monomials of shape lambda (Monomial.shape()).  The
closed form's independent twin, gamma_bruteforce, enumerates the latent
draws of either family.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .instances import (
    KIND_REGISTERS,
    ConfigError,
    Instance,
    enumerate_rows,
    enumerate_table,
    kappa,
    sample_collision_input,  # unused; kept bound because perfbench/tracer.py patches it here
    sample_rows,
)
from .lattice import LatticePoly
from .multilinear import (
    _EXACT_FLOAT, IndicatorVariable, Monomial, MonomialShape, MultilinearPoly, code_lookup, monomials_over,
)
from .qsqrt2 import QSqrt2, int_form
from .simulator import (
    LayerArrays,
    QueryAlgorithm,
    _folded,
    _int64_or_object,
    _largest,
    _products,
    _summed,
    acceptance_probability,
)


# ---------------------------------------------------------------------------
# acceptance polynomial extraction
# ---------------------------------------------------------------------------


def query_address_register(n: int, index: int) -> tuple[str, int]:
    """Map a query address to (register, position): addresses 1..n read
    x, n+1..2n read y, as in Instance.row."""
    register, position = divmod(index - 1, n)
    return KIND_REGISTERS["setcomp"][register], position + 1


def extract_polynomial(alg: QueryAlgorithm) -> MultilinearPoly:
    """Acceptance probability of alg as a multilinear indicator polynomial.

    Propagates one polynomial per basis state: layers take linear
    combinations; a query sends the amplitude of |w, i, z> to
    |w XOR enc(h), i, z> multiplied by Delta(register_i, h), summed over
    all alphabet values h.  The result is the sum over accepting states
    of the squared amplitude polynomials, in canonical multilinear form,
    with degree at most 2T.

    The arithmetic is on integer arrays (_Amplitudes).  One row holds one
    term of one amplitude: its basis ordinal, its monomial's code and
    (A, B), meaning (A + B sqrt(2)) / D, where D is the product of the
    layer denominators (Layer.int_arrays) applied so far; a query only
    extends monomials and leaves D unchanged.  Query address i reads slot
    i - 1, factor Delta(slot s, h) has the id s * alphabet + h, and a
    monomial's code is the Horner number of its ids, ascending, base
    slots * alphabet + 1, so code order is Monomial order.  Each step
    writes its products as rows and keeps their nonzero sums per key
    ordinal * width + code, ascending (_summed; a layer's products come
    in blocks of at most _GRAM_BUDGET, folded by _folded).

    Squaring is a Gram product.  The accepting rows are written as two
    dense integer matrices over (accepting ordinal, distinct code), C_a
    for the rational parts and C_b for the sqrt(2) parts, and G_a =
    C_a^T C_a + 2 C_b^T C_b, G_b = C_a^T C_b + C_b^T C_a hold in entry
    (i, j) the coefficient of the pair of codes i and j, summed over
    every accepting amplitude.  Each nonzero entry i <= j is merged
    once: the digits of its codes, which are its factor ids, give the
    product's code, or a conflict (one slot pinned to two values), which
    is dropped.  The products are summed per code (cross pairs doubled,
    since Delta^2 = Delta), and the terms come out in code order, which
    is sorted_terms() order: assemble_grid_poly reads them in that
    order.  Each monomial is built once, from its code's digits, and
    each distinct coefficient once, as a Fraction pair over D^2.  The
    Gram products run on float64 (BLAS) only while 6 |ordinals|
    max|a, b|^2 < 2^53, so that every partial sum is an exact integer,
    and on Python ints past it.  No dense array holds more than
    _GRAM_BUDGET entries, or one row: the ordinals are split into groups
    and G is computed in blocks of rows, folded in turn.  The summed
    coefficients are int64 while a stated bound on every sum fits in it,
    and so are the codes; past either bound they are Python ints.
    """
    if alg.oracle_kind != "standard":
        raise ConfigError("polynomial extraction is defined for standard-oracle algorithms")
    accept = _square_accepting(*_propagate(alg))
    if accept.degree > 2 * alg.T:
        raise AssertionError("extracted degree exceeds 2T; extraction bug")
    return accept


class _Amplitudes(NamedTuple):
    """Amplitude polynomials as integer rows, one per (basis ordinal,
    monomial) with a nonzero coefficient: row r adds (a[r] + b[r] sqrt 2)
    / D times its monomial to the amplitude of basis state ordinal[r].
    code[r] is the monomial's code over the (register, position) slots
    and the values 1..alphabet (extract_polynomial, _digits).  The rows
    ascend by ordinal, and the rows of one ordinal by code."""

    slots: tuple[tuple[str, int], ...]
    alphabet: int
    ordinal: np.ndarray
    code: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _digits(code: np.ndarray, base: int) -> list[np.ndarray]:
    """The codes' base-`base` digits as int64 arrays, most significant
    first, as many as the largest code has and one at least.  A code's
    digits are its factor ids, ascending, after leading zeros; id d > 0
    pins slot (d - 1) // alphabet to the value (d - 1) % alphabet + 1."""
    places = []
    while not places or np.any(code > 0):
        places.append((code % base).astype(np.int64))
        code = code // base
    return places[::-1]


def _propagate(alg: QueryAlgorithm) -> tuple[_Amplitudes, int]:
    """(amps, D) after the last layer; see extract_polynomial."""
    space = alg.space
    slots, alphabet = space.index_size, alg.alphabet_size
    base = slots * alphabet + 1
    # A monomial holds at most T factors, so codes stay below base^T and
    # (ordinal, code) keys below dim * base^T.
    width = base ** alg.T
    key_type = _int64_or_object(space.dim * width)
    powers = np.array([base ** k for k in range(alg.T + 1)], dtype=key_type)
    amps = _Amplitudes(
        tuple(query_address_register(alg.n, i) for i in range(1, slots + 1)),
        alphabet,
        np.array([space.encode(alg.initial)], dtype=np.int64),
        np.zeros(1, dtype=key_type),
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )
    D = 1
    for t, layer in enumerate(alg.layers):
        if t:
            masks = np.array(
                [0, *(space.encode_answer(h) * slots * 2 for h in range(1, alphabet + 1))],
                dtype=np.int64,
            )
            amps = _query_rows(amps, masks, powers, width)
        arrays = layer.int_arrays()
        amps = _layer_rows(amps, arrays, width)
        D *= arrays.D
    return amps, D


_GRAM_BUDGET = 1 << 18  # most products or dense-array entries in one block


def _layer_rows(amps: _Amplitudes, layer: LayerArrays, width: int) -> _Amplitudes:
    """The layer times the amplitudes: each row meets every entry of its
    ordinal's column (_products), in blocks of rows of at most
    _GRAM_BUDGET products or one row, and _folded sums them per key
    target * width + code.  A sum meets each source ordinal at most once
    (a column has one entry per row, an amplitude one term per monomial)."""
    step = max(1, _GRAM_BUDGET // int(layer.lengths.max()))
    big = _largest(amps.a, amps.b)

    def blocks():
        for lo in range(0, len(amps.ordinal), step):
            rows = slice(lo, lo + step)
            row, target, a, b = _products(amps.ordinal[rows], amps.a[rows], amps.b[rows], layer, big)
            code = amps.code[rows][row]
            yield target.astype(code.dtype) * width + code, a, b

    keys, a, b = _folded(blocks(), _GRAM_BUDGET)
    return amps._replace(ordinal=(keys // width).astype(np.int64, copy=False), code=keys % width, a=a, b=b)


def _query_rows(amps: _Amplitudes, masks, powers, width: int) -> _Amplitudes:
    """The standard query on the amplitudes.  A row whose queried slot is
    pinned to v moves to ordinal ^ masks[v]; a free row fans out to one
    row per value h, moved to ordinal ^ masks[h] with the slot pinned to
    h.  The rows are summed per key target * width + code (_summed): a
    key meets at most two of them, a monomial free at the slot and the
    same monomial pinned there."""
    slots, alphabet = len(amps.slots), amps.alphabet
    base = slots * alphabet + 1
    slot = (amps.ordinal >> 1) % slots
    # The code's digits give the value pinned at the queried slot (0:
    # free) and the count of pinned slots after it.
    value = np.zeros(len(slot), dtype=np.int64)
    after = np.zeros(len(slot), dtype=np.int64)
    for d in _digits(amps.code, base):
        pinned = (d - 1) // alphabet  # -1 for the 0 of no factor
        value = np.where(pinned == slot, d - slot * alphabet, value)
        after += pinned > slot
    free = value == 0
    reps = np.where(free, alphabet, 1)
    src = np.repeat(np.arange(len(slot)), reps)
    h = np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps) + np.maximum(value, 1)[src]
    # Pinning a slot with k pinned slots after it turns the code
    # high * base^k + low into high * base^(k + 1) + id * base^k + low.
    code, shift = amps.code, powers[after]
    low = code % shift
    spread = (code - low) * base + low
    ids = slot[src] * alphabet + h
    code = np.where(free[src], spread[src] + ids * shift[src], code[src])
    num = _int64_or_object(2 * _largest(amps.a, amps.b))
    a, b = amps.a.astype(num, copy=False)[src], amps.b.astype(num, copy=False)[src]
    target = amps.ordinal[src] ^ masks[h]
    keys, a, b = _summed(target.astype(code.dtype) * width + code, a, b)
    return amps._replace(ordinal=(keys // width).astype(np.int64, copy=False), code=keys % width, a=a, b=b)


def _merged(columns: list, alphabet: int, base: int, code_type):
    """(code, clash) for the products of pairs of factor lists, the id of
    Delta(slot s, h) being s * alphabet + h: the first half of the
    columns holds one list of each pair and the second half the other,
    each list ascending and padded in front with 0 (no factor).
    Sorting the columns row by row (odd-even transposition) puts a
    factor the lists share in adjacent columns, and so two factors on
    one slot, a clash.  code is the Horner number, base `base`, of each
    row's distinct nonzero ids in ascending order."""
    columns = list(columns)
    w = len(columns)
    for r in range(w):
        for c in range(r % 2, w - 1, 2):
            lo, hi = columns[c], columns[c + 1]
            columns[c], columns[c + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    code = np.zeros(len(columns[0]), dtype=code_type)
    clash = np.zeros(len(code), dtype=bool)
    slot_of = (np.arange(base) - 1) // alphabet  # id 0 pins nothing: -1
    prev = 0
    for col in columns:
        fresh = col != prev
        clash |= fresh & (slot_of[col] == slot_of[prev])
        code = np.where(fresh, code * base + col, code)
        prev = col
    return code, clash


def _gram_rows(ca: np.ndarray, cb: np.ndarray, lo: int, hi: int):
    """Rows lo..hi-1 of G_a = ca^T ca + 2 cb^T cb and G_b = ca^T cb +
    cb^T ca, columns from lo on: entry (i, j) is the sum, over the rows
    of ca and cb, of (ca[:, i] + cb[:, i] sqrt 2)(ca[:, j] + cb[:, j]
    sqrt 2)."""
    la, lb, ra, rb = ca[:, lo:hi].T, cb[:, lo:hi].T, ca[:, lo:], cb[:, lo:]
    return la @ ra + 2 * (lb @ rb), la @ rb + lb @ ra


def _square_accepting(amps: _Amplitudes, D: int) -> MultilinearPoly:
    """Sum of the squared accepting amplitudes, over D^2, terms in
    Monomial order: diagonal pairs once (Delta^2 = Delta), cross pairs
    doubled.  See extract_polynomial for the method."""
    accept = np.flatnonzero(amps.ordinal & 1)  # output register holds 2
    if not len(accept):
        return MultilinearPoly()
    ordinal = amps.ordinal[accept]
    new = np.ones(len(accept), dtype=bool)
    new[1:] = ordinal[1:] != ordinal[:-1]
    amplitude = np.cumsum(new) - 1  # rows ascend by ordinal
    sizes = np.bincount(amplitude)
    codes, column = np.unique(amps.code[accept], return_inverse=True)
    # No Gram sum, partial or whole, exceeds 3 max|coef|^2 per amplitude
    # in absolute value, nor a product code's sum 6 max|coef|^2 per pair
    # of rows of one amplitude; float64 is exact below _EXACT_FLOAT even
    # at the larger factor.
    big = _largest(amps.a, amps.b)
    gram = np.float64 if 6 * len(sizes) * big * big < _EXACT_FLOAT else object
    exact = np.int64 if gram is np.float64 else object
    coef = _int64_or_object(6 * big * big * int((sizes * (sizes + 1) // 2).sum()))
    a, b = amps.a[accept].astype(gram), amps.b[accept].astype(gram)

    alphabet = amps.alphabet
    base = len(amps.slots) * alphabet + 1
    digits = _digits(codes, base)
    code_type = _int64_or_object(base ** (2 * len(digits)) - 1)

    def blocks():  # per group of amplitudes, G in blocks of rows; see extract_polynomial
        group = max(1, _GRAM_BUDGET // len(codes))
        edges = np.searchsorted(amplitude, np.arange(0, len(sizes) + group, group))
        for lo, hi in zip(edges[:-1], edges[1:]):
            used, col = np.unique(column[lo:hi], return_inverse=True)
            row = amplitude[lo:hi] - amplitude[lo]
            ca = np.zeros((row[-1] + 1, len(used)), dtype=gram)
            cb = np.zeros_like(ca)
            ca[row, col], cb[row, col] = a[lo:hi], b[lo:hi]
            top = 0
            while top < len(used):
                stop = min(len(used), top + max(1, _GRAM_BUDGET // (len(used) - top)))
                ga, gb = _gram_rows(ca, cb, top, stop)
                # Each pair of codes i <= j once: the upper triangle.
                i, j = np.nonzero(np.triu((ga != 0) | (gb != 0)))
                pa, pb = (g[i, j].astype(exact).astype(coef) for g in (ga, gb))
                p, q = used[top + i], used[top + j]
                merged, clash = _merged([d[p] for d in digits] + [d[q] for d in digits], alphabet, base, code_type)
                keep = ~clash
                pa, pb = pa[keep], pb[keep]
                cross = (i != j)[keep]
                pa[cross] *= 2
                pb[cross] *= 2
                yield merged[keep], pa, pb
                top = stop

    codes, sum_a, sum_b = _folded(blocks(), _GRAM_BUDGET)
    product = np.stack(_digits(codes, base), axis=1)
    ids = product[product != 0].tolist()
    var = {i: IndicatorVariable(*amps.slots[(i - 1) // alphabet], (i - 1) % alphabet + 1) for i in set(ids)}
    flat = [var[i] for i in ids]
    cuts = np.cumsum(np.count_nonzero(product, axis=1)).tolist()
    A, B = sum_a.tolist(), sum_b.tolist()
    d2 = D * D
    value = {pair: QSqrt2.over(*pair, d2) for pair in set(zip(A, B))}
    return MultilinearPoly({
        Monomial(tuple(flat[i:j])): value[pair]
        for i, j, pair in zip([0, *cuts], cuts, zip(A, B))
    })


# ---------------------------------------------------------------------------
# monomial expectations: closed form and brute force
# ---------------------------------------------------------------------------


def gamma_closed(m: Monomial, point, n: int) -> Fraction:
    """Probability that monomial m evaluates to 1 under the family at
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

    A Monomial pins no position twice.  Values outside {1..U}, ranges
    that cannot embed and values pinned more than k times in a register
    give 0.
    The points rejected are those enumerate_rows rejects.  The count
    uses the point alone, never the sampler or the enumerator, so that
    gamma_bruteforce stays an independent check.
    """
    g, N, *M = point
    if g < 1 or N % g:
        raise ValueError("g must be >= 1 and divide N")
    if M:
        (L,) = M
        k, U, size, registers = kappa(g), 2 * n, 2 * N // g, KIND_REGISTERS["setcomp"]
        if L % k:
            raise ValueError("kappa(g) must divide M")
        sub = L // k
    else:
        k, L, U, size, registers = g, N, n, N // g, KIND_REGISTERS["collision"]
        sub = size
    if size > U or sub > size or L < n:
        raise ValueError(f"point {tuple(point)} does not fit inputs of length n={n}")
    if any(f.register not in registers or f.position > n for f in m.factors):
        raise ValueError(f"monomial factors must lie on registers {registers} at positions 1..n")
    shape = m.shape()
    w = shape.width
    if w > size or any(not 1 <= f.value <= U for f in m.factors):
        return Fraction(0)
    num, den = math.comb(U - w, size - w), math.comb(U, size)  # reduced once, at the end
    for reg in registers:
        mult = getattr(shape, reg)
        w_reg = len(mult)
        if w_reg > sub:
            return Fraction(0)
        num *= math.comb(size - w_reg, sub - w_reg)
        den *= math.comb(size, sub)
        num *= math.prod(math.perm(k, c) for c in mult)
        den *= math.perm(L, sum(mult))
    return Fraction(num, den)


# Kept by name: perfbench/tracer.py patches it here.  No caller is left,
# since the sweep reads one enumerate_table per point.
enumerate_collision_supports = enumerate_rows


def gamma_bruteforce(m: Monomial, point, n: int, cap: int | None = None) -> Fraction:
    """Same expectation as gamma_closed, at a (g, N) or (g, N, M) point,
    by direct enumeration of every latent draw.

    Deliberately naive: walks every draw's row as Python ints, evaluates
    the monomial on its x (and y), and divides.  Independent of the
    closed forms and of the draw-table kernel.
    """
    hits = 0
    total = 0
    for row in enumerate_rows(point, n, cap):
        values = row.tolist()
        total += 1
        hits += m.evaluate(values[:n], values[n:])
    return Fraction(hits, total)


def gamma_bruteforce_sweep(
    monomials: Sequence[Monomial], point, n: int, cap: int | None = None
) -> list[Fraction]:
    """gamma_bruteforce for many monomials over one enumeration of the
    (g, N) family at point: hit draws over all draws.  The draws are the
    rows of enumerate_table, built at once; per slot set of code_lookup,
    one bincount of the draws' bins, read at the monomials' bins, counts
    each monomial's hits."""
    draws = enumerate_table(point, n, cap)
    total = len(draws)
    counts = np.zeros(len(monomials), dtype=np.int64)
    for members, term_bins, draw_bins, bins in code_lookup(monomials, draws, n):
        counts[members] = np.bincount(draw_bins, minlength=bins)[term_bins]
    return [Fraction(hits, total) for hits in counts.tolist()]


def all_monomials(n: int, max_degree: int) -> Iterator[Monomial]:
    """Every canonical x-register monomial on positions and values 1..n
    with degree <= max_degree."""
    return monomials_over([("x", p) for p in range(1, n + 1)], range(1, n + 1), max_degree)


# ---------------------------------------------------------------------------
# the grid polynomial q~ and the prefactor identity
# ---------------------------------------------------------------------------


_X_ONLY = "collision-family polynomials take x-register monomials only"


def q_tilde(shape: MonomialShape, n: int, T: int, arity: int) -> LatticePoly:
    """Grid polynomial of a monomial shape: gamma_closed = prefactor * q~
    at admissible points, in (g, N) for arity 2 and (g, N, M) for arity 3:

        q~ = prod_reg [ prod_{i<w_reg} (L - i k)
                        * prod_{values v} prod_{j=1}^{c_v - 1} (k - j)
                        * prod_{i=r_reg}^{2T-1} (L - i) ]
             / ((U)_w * prod_reg (n)_{2T})

    with (x)_j the falling factorial and gamma_closed's parameters:
    (L, k, U) = (N, g, n) and the register x, or (M, kappa(g), 2n) and
    the registers x, y.  Set comparison draws each register's range
    inside S, so arity 3 has one more factor,

        g^(w_x + w_y - w) * prod_{i=w_x}^{w-1} (2N - i g)
        * prod_{i=w_y}^{2T-1} (2N - i g) / (2n)^(2T).

    The total degree is 2T at arity 2 and at most r + 6T <= 8T at arity 3.
    """
    if n < 2 * T:
        raise ValueError("need n >= 2T")
    if arity == 2 and shape.y:
        raise ValueError(_X_ONLY)
    if (degree := sum(shape.x) + sum(shape.y)) > 2 * T:
        raise ValueError(f"degree violation: monomial degree {degree} exceeds 2T = {2 * T}")
    one = LatticePoly.constant(arity, 1)
    g, N, *M = (LatticePoly.variable(arity, i) for i in range(arity))
    if M:
        L, k, U, kind = M[0], (g * g).scale(4) - g.scale(12) + one.scale(9), 2 * n, "setcomp"
    else:
        L, k, U, kind = N, g, n, "collision"
    registers = KIND_REGISTERS[kind]
    w = shape.width
    factors = []
    for reg in registers:
        mult = getattr(shape, reg)
        factors += [L - k.scale(i) for i in range(len(mult))]
        factors += [k - one.scale(j) for c in mult for j in range(1, c)]
        factors += [L - one.scale(i) for i in range(sum(mult), 2 * T)]
    scalar = Fraction(1, math.perm(U, w) * math.perm(n, 2 * T) ** len(registers))
    if M:
        w_x, w_y = len(shape.x), len(shape.y)
        scalar /= (2 * n) ** (2 * T)
        factors += [g] * (w_x + w_y - w)
        factors += [N.scale(2) - g.scale(i) for i in (*range(w_x, w), *range(w_y, 2 * T))]
    # Integer coefficients until the one scaling at the end.
    return math.prod(factors, start=one).scale(scalar)


def prefactor(n: int, T: int, point) -> Fraction:
    """P / q at point, (g, N) or (g, N, M): prod_reg (n)_{2T} / (L)_{2T},
    with L = N and one register, or L = M and two, times
    (2n)^(2T) / prod_{i<2T} (2N - g i) for set comparison.  On the
    collision side it does not depend on g, and lies in (0, 1] for
    N >= n."""
    g, N, *M = point
    L = M[0] if M else N
    if L < 2 * T or n < 2 * T:
        raise ValueError(f"need {'M' if M else 'N'} >= 2T and n >= 2T")
    out = Fraction(math.perm(n, 2 * T), math.perm(L, 2 * T)) ** (1 + len(M))
    if M:
        out *= Fraction((2 * n) ** (2 * T), math.prod(2 * N - g * i for i in range(2 * T)))
    return out


def assemble_q(p: MultilinearPoly, n: int, T: int) -> LatticePoly:
    """q(g, N) for an extracted acceptance poly.  Its coefficients must be
    rational: sqrt(2) parts of squared amplitudes are expected to cancel,
    and a nonzero remainder is an error, not something to approximate."""
    return assemble_grid_poly(p, n, T, 2)


def shape_sums(p: MultilinearPoly, T: int, arity: int) -> dict[MonomialShape, Fraction]:
    """beta_lambda, the sum of p's coefficients over its monomials of
    shape lambda, in first-seen order: integers over one int_form
    denominator, one Fraction per shape.  Each term is checked in term
    order: its degree, then its sqrt(2) part, then a y factor at arity 2."""
    D, pairs = int_form(p.terms.values())
    sums: dict[MonomialShape, int] = {}
    for (m, c), (a, b) in zip(p.terms.items(), pairs):
        if m.degree > 2 * T:
            raise ValueError(f"degree violation: monomial degree {m.degree} exceeds 2T")
        if b:
            raise ValueError(f"coefficient of {m!r} has a nonzero sqrt(2) part: {c!r}")
        shape = m.shape()
        if arity == 2 and shape.y:
            raise ValueError(_X_ONLY)
        sums[shape] = sums.get(shape, 0) + a
    return {shape: Fraction(a, D) for shape, a in sums.items()}


def assemble_grid_poly(p: MultilinearPoly, n: int, T: int, arity: int) -> LatticePoly:
    """sum_lambda beta_lambda q_tilde(lambda, n, T, arity), over the
    monomial shapes lambda of shape_sums; the one assembly loop behind
    assemble_q and assemble_q3.  It equals sum_I beta_I q~_I, since q~_I
    depends on I only through its shape, and builds and scales q~ once
    per shape.

    q's terms come out in ascending exponent order, whatever order q~
    multiplies its factors in; evaluate_float adds in that order.
    """
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for shape, beta in shape_sums(p, T, arity).items():
        for exps, c in q_tilde(shape, n, T, arity).coeffs.items():
            coeffs[exps] = coeffs.get(exps, 0) + c * beta
    return LatticePoly(arity, dict(sorted(coeffs.items())))


# ---------------------------------------------------------------------------
# expected acceptance over the family
# ---------------------------------------------------------------------------


_EMPTY_BATCH = "an empty batch has no mean acceptance; need at least one draw"


def _exact_acceptances(
    obj, draws: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(A, B, D): draw s of the table accepts with probability
    (A[s] + B[s] sqrt(2)) / D, with A and B integer arrays.

    A MultilinearPoly is evaluated over the whole table in one batch; a
    QueryAlgorithm is simulated exactly row by row, and its acceptances
    are brought to their int_form, as arrays of Python ints.
    """
    if isinstance(obj, MultilinearPoly):
        return obj.evaluate_batch(draws, n)
    D, pairs = int_form([
        acceptance_probability(obj, Instance.from_row(row, n), mode="exact") for row in draws
    ])
    if not pairs:
        raise ValueError(_EMPTY_BATCH)
    A, B = (np.array(part, dtype=object) for part in zip(*pairs))
    return A, B, D


def expected_acceptance(obj, point, n: int, cap: int | None = None) -> QSqrt2:
    """Exact average acceptance over every latent draw of the family at
    point, (g, N) or (g, N, M), over the one table of enumerate_table.

    obj is a QueryAlgorithm (simulated row by row) or an extracted
    MultilinearPoly (evaluated over all rows in one batch).  The values
    are summed as Python ints: an int64 sum over a large table could
    overflow.
    """
    draws = enumerate_table(point, n, cap)
    A, B, D = _exact_acceptances(obj, draws, n)
    return QSqrt2.over(sum(A.tolist()), sum(B.tolist()), D * len(A))


def expected_acceptance_mc(
    obj, point, n: int, samples: int, rng: random.Random
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the acceptance over the
    family at point, (g, N) or (g, N, M), from one table of samples draws
    from rng.

    The values are QSqrt2.float_over over the (A, B, D) arrays in one
    expression: int64 arrays come only with values and D below 2^53
    (evaluate_batch), which convert to floats exactly, and object arrays
    divide Python ints, so every value has the bits of the scalar
    float_over.  The mean and the variance add the values in draw
    order."""
    A, B, D = _exact_acceptances(obj, sample_rows(point, n, samples, rng), n)
    values = QSqrt2.float_over(A, B, D).tolist()
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
    return mean, math.sqrt(var / samples)
