"""Acceptance polynomials and their expectations over the input families.

A T-query standard-oracle algorithm's acceptance probability is a
multilinear polynomial of degree at most 2T in the input indicators;
extract_polynomial builds it by propagating per-amplitude polynomials
through the circuit.  A point's arity names its family: (g, N) for
collision inputs, (g, N, M) for set comparison.  Averaged over either
family, a canonical Monomial I has the expectation gamma_closed(I,
point, n), one counting formula whose parameters alone depend on the
arity.  On the collision side gamma is a fixed factorial prefactor
times a bivariate polynomial q~ of total degree at most 2T, so the
averaged acceptance satisfies

    P(g, N) = prefactor(n, T, N) * q(g, N),    q = sum_I beta_I * q~_I

exactly at every admissible point; setcomp_poly holds the trivariate
q~3 and prefactor3.  The closed form's independent twin,
gamma_bruteforce, enumerates the latent draws of either family.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .instances import (
    KIND_REGISTERS,
    ConfigError,
    Instance,
    enumerate_rows,
    kappa,
    sample_collision_input,  # unused; kept bound because perfbench/tracer.py patches it here
    sample_rows,
)
from .lattice import LatticePoly
from .multilinear import IndicatorVariable, Monomial, MultilinearPoly, code_lookup, monomials_over
from .qsqrt2 import QSqrt2, int_form
from .simulator import (
    LayerArrays,
    QueryAlgorithm,
    _int64_or_object,
    _key_sums,
    _largest,
    _meetings,
    _stable_order,
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
    term of one amplitude: its basis ordinal, its monomial as the value
    it pins at each (register, position) slot (0: free), and (A, B),
    meaning (A + B sqrt(2)) / D, where D is the product of the layer
    denominators (Layer.int_arrays) applied so far; a query only extends
    monomials and leaves D unchanged.  Each step writes its products as
    rows and sums them per (ordinal, monomial), both ascending
    (_collect).  A monomial's code is the Horner number of its factor
    ids, ascending, and the ids are numbered in (slot, value) order, so
    code order is Monomial order.

    Squaring pairs the rows of each accepting amplitude, p <= q, at most
    _PAIR_CHUNK pairs at a time.  Each amplitude's rows are walked by
    their lowest factor, so the products whose lowest factor is f all
    come from one run of the walk: their sums are complete when the run
    ends, and only the nonzero ones are kept past it.  Within a chunk
    the products are summed per pair of monomials, and each distinct
    pair is merged once: its factor ids give the product's code, or a
    conflict (one slot pinned to two values), which is dropped.  The
    products are summed per code (cross pairs doubled, since Delta^2 =
    Delta), and the terms come out in code order, which is
    sorted_terms() order: assemble_grid_poly, and through it
    LatticePoly.evaluate_float, add in that order.  Each monomial is
    built once, from its code's digits, and each distinct coefficient
    once, as a Fraction pair over D^2.  The coefficients are int64
    while a stated bound on every sum fits in it, and so are the codes;
    past either bound the same arrays hold Python ints.
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
    The monomial pins slot s, the (register, position) slots[s], to the
    value table[r, s], or leaves it free at 0.  The rows ascend by
    ordinal, and the rows of one ordinal by monomial."""

    slots: tuple[tuple[str, int], ...]
    ordinal: np.ndarray
    table: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _propagate(alg: QueryAlgorithm) -> tuple[_Amplitudes, int]:
    """(amps, D) after the last layer; see extract_polynomial.

    Query address i reads slot i - 1, and factor Delta(slot s, h) has the
    id s * alphabet + h.  code holds each row's Horner number of its
    factor ids, in slot order, base slots * alphabet + 1.
    """
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
        np.array([space.encode(alg.initial)], dtype=np.int64),
        np.zeros((1, slots), dtype=np.min_scalar_type(alphabet)),
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )
    code = np.zeros(1, dtype=key_type)
    D = 1
    for t, layer in enumerate(alg.layers):
        if t:
            masks = np.array(
                [0, *(space.encode_answer(h) * slots * 2 for h in range(1, alphabet + 1))],
                dtype=np.int64,
            )
            amps, code = _query_rows(amps, code, masks, powers, width)
        arrays = layer.int_arrays()
        amps, code = _layer_rows(amps, code, arrays, width)
        D *= arrays.D
    return amps, D


def _collect(target, code, a, b, width: int):
    """Sum rows per key target * width + code, keys ascending, so by
    target ordinal, then by monomial code; zero sums dropped.  Returns
    (pick, sums of a, sums of b), pick a row that holds each sum's key."""
    order, starts, a, b = _key_sums(target.astype(code.dtype) * width + code, a, b)
    keep = (a != 0) | (b != 0)
    return order[starts[keep]], a[keep], b[keep]


def _layer_rows(amps: _Amplitudes, code, layer: LayerArrays, width: int):
    """The layer times the amplitudes: each row meets every entry of its
    ordinal's column (_meetings), and the products are summed by
    _collect."""
    row, entry = _meetings(amps.ordinal, layer)
    # A sum meets each source ordinal at most once (a column has one entry
    # per row, an amplitude one term per monomial), in a product of
    # absolute value <= 3 big big'.
    num = _int64_or_object(3 * len(layer.lengths) * _largest(amps.a, amps.b) * layer.big)
    a, b = amps.a.astype(num, copy=False)[row], amps.b.astype(num, copy=False)[row]
    ea, eb = layer.a.astype(num, copy=False)[entry], layer.b.astype(num, copy=False)[entry]
    target = layer.rows[entry]
    pick, sum_a, sum_b = _collect(target, code[row], a * ea + 2 * b * eb, a * eb + b * ea, width)
    src = row[pick]
    return amps._replace(ordinal=target[pick], table=amps.table[src], a=sum_a, b=sum_b), code[src]


def _query_rows(amps: _Amplitudes, code, masks, powers, width: int):
    """The standard query on the amplitudes.  A row whose queried slot is
    pinned to v moves to ordinal ^ masks[v]; a free row fans out to one
    row per value h, moved to ordinal ^ masks[h] with the slot pinned to
    h.  The rows are summed by _collect: a key meets at most two of
    them, a monomial free at the slot and the same monomial pinned
    there."""
    rows, slots = amps.table.shape
    alphabet = len(masks) - 1
    slot = (amps.ordinal >> 1) % slots
    value = amps.table[np.arange(rows), slot]
    free = value == 0
    reps = np.where(free, alphabet, 1)
    src = np.repeat(np.arange(rows), reps)
    h = np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps) + np.maximum(value, 1)[src]
    # Pinning a slot with k pinned slots after it turns the code
    # high * base^k + low into high * base^(k + 1) + id * base^k + low.
    after = np.count_nonzero((amps.table != 0) & (np.arange(slots) > slot[:, None]), axis=1)
    shift = powers[after]
    low = code % shift
    spread = (code - low) * int(powers[1]) + low
    ids = slot[src] * alphabet + h
    code = np.where(free[src], spread[src] + ids * shift[src], code[src])
    num = _int64_or_object(2 * _largest(amps.a, amps.b))
    a, b = amps.a.astype(num, copy=False)[src], amps.b.astype(num, copy=False)[src]
    target = amps.ordinal[src] ^ masks[h]
    pick, sum_a, sum_b = _collect(target, code, a, b, width)
    table = amps.table[src[pick]]
    table[np.arange(len(pick)), slot[src[pick]]] = h[pick]
    return amps._replace(ordinal=target[pick], table=table, a=sum_a, b=sum_b), code[pick]


_PAIR_CHUNK = 1 << 16  # most monomial pairs that _square_accepting multiplies out at once


def _merged(columns: list, slot_of: np.ndarray, base: int, code_type):
    """(code, clash) for the products of factor lists given as columns of
    ids, at least one, each list ascending and padded in front with 0
    (no factor).
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
    prev = 0
    for col in columns:
        fresh = col != prev
        clash |= fresh & (prev != 0) & (slot_of[col] == slot_of[prev])
        code = np.where(fresh, code * base + col, code)
        prev = col
    return code, clash


def _square_accepting(amps: _Amplitudes, D: int) -> MultilinearPoly:
    """Sum of the squared accepting amplitudes, over D^2, terms in
    Monomial order: diagonal pairs once (Delta^2 = Delta), cross pairs
    doubled.  See extract_polynomial for the method."""
    accept = np.flatnonzero(amps.ordinal & 1)  # output register holds 2
    rows = len(accept)
    if not rows:
        return MultilinearPoly()
    ordinal, table = amps.ordinal[accept], amps.table[accept]
    new = np.ones(rows, dtype=bool)
    new[1:] = ordinal[1:] != ordinal[:-1]
    start = np.flatnonzero(new)
    # Row r pairs with the rows of its amplitude from r on.
    partners = np.repeat(np.append(start[1:], rows), np.diff(start, append=rows)) - np.arange(rows)
    # No sum below exceeds 6 max|coef|^2 pairs in absolute value.
    big = _largest(amps.a, amps.b)
    coef = _int64_or_object(6 * big * big * int(partners.sum()))
    a, b = amps.a[accept].astype(coef), amps.b[accept].astype(coef)

    # Number the (slot, value) factors that the rows pin 1..F in slot
    # order, and list each row's ids ascending, padded in front with 0
    # to the largest degree, one array of digits per place.  Codes are Horner
    # numbers of ids, base F + 1, and a pair's key is its lower row code,
    # then its higher one, in the same base.
    top = int(table.max(initial=0)) + 1
    pins = np.where(table != 0, np.arange(table.shape[1]) * top + table, 0)
    factors = np.unique(pins[pins != 0])
    ids = np.zeros((rows, 1 + table.shape[1]), dtype=np.int64)  # one place at least
    ids[:, 1:] = np.where(pins != 0, np.searchsorted(factors, pins) + 1, 0)
    ids.sort(axis=1)
    degree = int(np.count_nonzero(table, axis=1).max())
    digits = [np.ascontiguousarray(c) for c in ids[:, -max(degree, 1):].T]
    slot_of = np.append(-1, factors // top)  # id 0 pins nothing
    base = len(factors) + 1
    code_type = _int64_or_object(base ** (2 * degree) - 1)
    code = _merged(digits, slot_of, base, code_type)[0]
    shift = base ** degree

    # A product's lowest factor is the lower of its rows' lowest ones (the
    # constant's counts as highest).  So if each amplitude's rows are
    # walked by their lowest factor, the products whose lowest factor is
    # f all come from one run of the walk, and their sums are complete
    # at its end: only the nonzero ones need to be kept past it.
    lead = np.where(ids != 0, ids, base).min(axis=1)
    amplitude = np.cumsum(new) - 1
    walked = _stable_order(amplitude * (base + 1) + lead)[0]  # by amplitude, then lead
    walk = _stable_order(lead[walked])[0]  # positions in walked, by lead
    runs = np.cumsum(partners[walk])  # partners depends on the position alone
    led = lead[walked[walk]]
    bounds = np.concatenate(([0], np.flatnonzero(led[1:] != led[:-1]) + 1, [rows]))

    def chunks():
        w = 0
        while w < rows:
            # Walk positions w .. stop - 1: at most _PAIR_CHUNK pairs, or one
            # row, cut back to the end of a run if one lies past w.
            stop = max(w + 1, int(np.searchsorted(runs, runs[w] - partners[walk[w]] + _PAIR_CHUNK, "right")))
            cut = bounds[np.searchsorted(bounds, stop, "right") - 1]
            if cut > w:
                stop = int(cut)
            ks = walk[w:stop]
            count = partners[ks]
            kp = np.repeat(ks, count)
            kq = np.arange(len(kp)) + np.repeat(ks - (np.cumsum(count) - count), count)
            p, q = walked[kp], walked[kq]
            # Sum the products per pair of monomials, then merge each distinct
            # pair once, from any one of its rows: they hold the same codes.
            cp, cq = code[p], code[q]
            ap, aq, bp, bq = a[p], a[q], b[p], b[q]
            order, starts, pa, pb = _key_sums(
                np.minimum(cp, cq) * shift + np.maximum(cp, cq), ap * aq + 2 * bp * bq, ap * bq + bp * aq
            )
            p, q = p[order[starts]], q[order[starts]]
            merged, clash = _merged([d[p] for d in digits] + [d[q] for d in digits], slot_of, base, code_type)
            keep = ~clash
            pa, pb = pa[keep], pb[keep]
            cross = (p != q)[keep]
            pa[cross] *= 2
            pb[cross] *= 2
            yield _summed(merged[keep], pa, pb), stop == rows or led[stop] != led[stop - 1]
            w = stop

    done, parts, held, folded = [], [], 0, 0
    for part, complete in chunks():
        parts.append(part)
        held += len(part[0])
        # Fold the chunk sums once they outgrow the folded sums.
        if complete or held - folded > max(_PAIR_CHUNK, folded):
            parts = [_summed(*map(np.concatenate, zip(*parts)))]
            held = folded = len(parts[0][0])
        if complete:
            sums = parts[0]
            keep = (sums[1] != 0) | (sums[2] != 0)
            done.append(tuple(x[keep] for x in sums))
            parts, held, folded = [], 0, 0
    # Each code is complete in one run, so the codes are distinct; their
    # order is the Monomial order.
    codes, sum_a, sum_b = (np.concatenate(x) for x in zip(*done))
    order, codes = _stable_order(codes)
    sum_a, sum_b = sum_a[order], sum_b[order]
    # A code's base-`base` digits are its factor ids, ascending after
    # leading zeros.
    places = []
    for _ in range(max(2 * degree, 1)):
        places.append((codes % base).astype(np.int64))
        codes = codes // base
    product = np.stack(places[::-1], axis=1)
    variables = [IndicatorVariable(*amps.slots[f // top], f % top) for f in factors.tolist()]
    flat = [variables[i - 1] for i in product[product != 0].tolist()]
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
    (g, N) family at point: hit draws over all draws.  The rows stream
    from enumerate_collision_supports, one 1-D array per latent draw,
    and draw_table packs them into one table; per slot set of
    code_lookup, one bincount of the draws' bins, read at the monomials'
    bins, counts each monomial's hits."""
    draws = draw_table(enumerate_collision_supports(point, n, cap), point, n)
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
# the bivariate polynomial q~ and the prefactor identity
# ---------------------------------------------------------------------------


def q_tilde(m: Monomial, n: int, T: int) -> LatticePoly:
    """Symbolic bivariate polynomial with gamma = prefactor * q~ at grid points.

        q~(g, N) = (n-w)! (n-2T)! / (n!)^2
                   * prod_{i=r}^{2T-1} (N - i)
                   * prod_{i=0}^{w-1} (N - g i)
                   * prod_{values} prod_{j=1}^{mult-1} (g - j)

    Total degree is (2T - r) + w + (r - w) = 2T.
    """
    if n < 2 * T:
        raise ValueError("need n >= 2T")
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


def draw_table(rows: Iterable[np.ndarray], point, n: int) -> np.ndarray:
    """Pack the rows of draws from the family at point into one table,
    without keeping them: S x n of x for a (g, N) point, S x 2n of x then
    y for a (g, N, M) point.  Each row is one 1-D item of width n or 2n,
    as enumerate_rows yields them, copied whole by one np.fromiter over a
    subarray dtype; an empty stream gives a (0, width) table.  Values lie
    in 1..n, or 1..2n, so the table takes the narrowest type that holds
    the largest."""
    width = n * (len(point) - 1)
    return np.fromiter(rows, dtype=np.dtype((np.min_scalar_type(width), width)))


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
    point, (g, N) or (g, N, M), read from enumerate_rows into one table.

    obj is a QueryAlgorithm (simulated row by row) or an extracted
    MultilinearPoly (evaluated over all rows in one batch).  The values
    are summed as Python ints: an int64 sum over a large table could
    overflow.
    """
    draws = draw_table(enumerate_rows(point, n, cap), point, n)
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
