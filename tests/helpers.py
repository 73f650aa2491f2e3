"""Reference helpers that only the tests use.

Each one is an independent check on the program (a closed form, a
brute-force universe, a plain sampler), so it lives beside the tests
rather than in the package.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from collisionlab.instances import Instance
from collisionlab.multilinear import REGISTERS, Monomial, MultilinearPoly, monomials_over
from collisionlab.polymethod import _merge_factors
from collisionlab.qsqrt2 import ONE, QSqrt2, int_form
from collisionlab.simulator import Layer, erasing_space


# ---------------------------------------------------------------------------
# univariate extrema via critical points (the Markov tests)
# ---------------------------------------------------------------------------


def _real_roots_in(poly: np.polynomial.Polynomial, a: float, b: float) -> list[float]:
    if poly.degree() < 1:
        return []
    roots = poly.roots()
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 and a - 1e-12 <= r.real <= b + 1e-12:
            out.append(min(max(r.real, a), b))
    return out


def univariate_range(coeffs, interval: tuple[float, float]) -> tuple[float, float]:
    """Exact-to-roundoff min/max of a polynomial on an interval, from the
    critical points of its derivative plus the endpoints."""
    a, b = interval
    p = np.polynomial.Polynomial(list(coeffs))
    candidates = [a, b] + _real_roots_in(p.deriv(), a, b)
    values = [float(p(c)) for c in candidates]
    return min(values), max(values)


def univariate_derivative_abs_max(coeffs, interval: tuple[float, float]) -> float:
    """max |p'| on the interval, from the critical points of p'."""
    a, b = interval
    dp = np.polynomial.Polynomial(list(coeffs)).deriv()
    candidates = [a, b] + _real_roots_in(dp.deriv(), a, b)
    return max(abs(float(dp(c))) for c in candidates)


# ---------------------------------------------------------------------------
# input and monomial universes
# ---------------------------------------------------------------------------


def all_collision_sequences(n: int):
    """Every sequence in {1..n}^n, promise or not; n^n of them."""
    for x in itertools.product(range(1, n + 1), repeat=n):
        yield Instance(kind="collision", n=n, x=x)


def one_to_one_instance(n: int, rng: random.Random) -> Instance:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Instance(kind="collision", n=n, x=tuple(perm))


def mixed_monomials(n: int, max_degree: int) -> list[Monomial]:
    """Every canonical monomial over both registers, positions 1..n,
    values 1..2n, degree <= max_degree."""
    slots = [(reg, pos) for reg in REGISTERS for pos in range(1, n + 1)]
    return list(monomials_over(slots, range(1, 2 * n + 1), max_degree))


# ---------------------------------------------------------------------------
# closed forms of the reference algorithms
# ---------------------------------------------------------------------------


def erasing_setcomp_reference(inst: Instance) -> Fraction:
    """Outcome-1 probability from set arithmetic alone:
    |symmetric difference| / (4n).  Independent of the simulator."""
    if inst.kind != "setcomp":
        raise ValueError("set comparison needs a setcomp instance")
    return Fraction(len(set(inst.x) ^ set(inst.y_sequence())), 4 * inst.n)


def grover_success_probability(num_marked: int, size: int, iterations: int) -> float:
    """Closed-form marked weight sin^2((2t+1) asin(sqrt(k/size)))."""
    if num_marked == 0:
        return 0.0
    theta = math.asin(math.sqrt(num_marked / size))
    return math.sin((2 * iterations + 1) * theta) ** 2


# ---------------------------------------------------------------------------
# the dense circuit-file form
# ---------------------------------------------------------------------------


def dense_layer_json(layer) -> list[list[list[str]]]:
    """A layer in the dense file form: every row in full, zeros included,
    as ["p/q", "r/s"] pairs.  Circuit files written before the sparse form
    look like this, and Layer.from_json still reads it."""
    return [[v.to_strings() for v in row] for row in layer.to_dense()]


def dense_algorithm_json(alg) -> dict:
    """alg.to_json() with every layer in the dense form."""
    return {**alg.to_json(), "layers": [dense_layer_json(layer) for layer in alg.layers]}


# ---------------------------------------------------------------------------
# squaring the accepting amplitudes, one pair at a time
# ---------------------------------------------------------------------------


def square_accepting_reference(amps: dict, D: int) -> MultilinearPoly:
    """The squaring step of extract_polynomial written with dicts, pair
    by pair: the reference that the array form must match term for term
    and in order.  amps and D are as polymethod._propagate returns them."""
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
    return MultilinearPoly({
        Monomial(m): QSqrt2.over(a, b, d2) for m, (a, b) in total.items() if a or b
    })


# ---------------------------------------------------------------------------
# the layer kernels written with dicts, one product at a time
# ---------------------------------------------------------------------------


def reference_gram_is_orthogonal(layer: Layer) -> bool:
    """Layer.is_orthogonal written with dicts: M^T M for M = D U, one row
    of M at a time, each row adding the products of every pair of its
    nonzeros.  U is orthogonal iff M^T M = D^2 I with no sqrt(2) part."""
    D, cols = layer.int_cols()
    dim = layer.dim
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
    for c, col in enumerate(cols):
        for r, a, b in col:
            rows[r].append((c, a, b))
    # Entry (i, j), i <= j, of M^T M is keyed i * dim + j.
    gram_a: dict[int, int] = {}
    gram_b: dict[int, int] = {}
    for row in rows:
        for p, (i, a1, b1) in enumerate(row):
            base = i * dim
            for j, a2, b2 in row[p:]:
                key = base + j
                gram_a[key] = gram_a.get(key, 0) + a1 * a2 + 2 * b1 * b2
                gram_b[key] = gram_b.get(key, 0) + a1 * b2 + b1 * a2
    d2 = D * D
    diagonal = 0
    for key, a in gram_a.items():
        i, j = divmod(key, dim)
        if gram_b[key] != 0 or a != (d2 if i == j else 0):
            return False
        diagonal += i == j
    return diagonal == dim


def reference_compose(outer: Layer, inner: Layer) -> Layer:
    """outer.compose(inner) written with dicts: each column of inner times
    outer's integer columns, zero sums dropped, rows ascending, and the
    whole reduced by gcd(D, every A and B); the result carries that form
    as its int_cols()."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    d_outer, outer_cols = outer.int_cols()
    d_inner, inner_cols = inner.int_cols()
    int_cols = []
    for col in inner_cols:
        acc: dict[int, list[int]] = {}
        for j, a1, b1 in col:
            for row, a2, b2 in outer_cols[j]:
                cur = acc.setdefault(row, [0, 0])
                cur[0] += a1 * a2 + 2 * b1 * b2
                cur[1] += a1 * b2 + b1 * a2
        int_cols.append([(row, a, b) for row, (a, b) in sorted(acc.items()) if a or b])
    D = d_outer * d_inner
    common = math.gcd(D, *(v for col in int_cols for _, a, b in col for v in (a, b)))
    D //= common
    int_cols = [[(row, a // common, b // common) for row, a, b in col] for col in int_cols]
    layer = Layer(outer.dim, [[(row, QSqrt2.over(a, b, D)) for row, a, b in col] for col in int_cols])
    layer._int_cols = (D, int_cols)
    return layer


# ---------------------------------------------------------------------------
# the exact state kernels on dicts of QSqrt2 amplitudes
# ---------------------------------------------------------------------------


def reference_exact_layer(entries: dict, layer: Layer) -> dict:
    """The exact layer product on a dict of QSqrt2 amplitudes: the
    int_form of the amplitudes over d times the layer's int_cols() over D,
    then one QSqrt2.over per nonzero sum, rows in the order first reached."""
    d, ints = int_form(entries.values())
    D, cols = layer.int_cols()
    acc: dict[int, list[int]] = {}
    for j, (a1, b1) in zip(entries, ints):
        for row, a2, b2 in cols[j]:
            cur = acc.setdefault(row, [0, 0])
            cur[0] += a1 * a2 + 2 * b1 * b2
            cur[1] += a1 * b2 + b1 * a2
    den = d * D
    return {row: QSqrt2.over(x, y, den) for row, (x, y) in acc.items() if x or y}


def reference_exact_square_sum(amps) -> QSqrt2:
    """Sum of squares of QSqrt2 amplitudes, as one integer sum over the
    square of their int_form's denominator."""
    d, ints = int_form(amps)
    ra = rb = 0
    for A, B in ints:
        ra += A * A + 2 * B * B
        rb += A * B
    return QSqrt2.over(ra, 2 * rb, d * d)


def reference_standard_query(entries: dict, space, inst: Instance) -> dict:
    """XOR each queried value's answer mask into its basis states."""
    masks = [
        space.encode_answer(inst.query_value(i)) * space.index_size * 2
        for i in range(1, space.index_size + 1)
    ]
    return {
        ordinal ^ masks[(ordinal >> 1) % space.index_size]: amp
        for ordinal, amp in entries.items()
    }


def reference_erasing_query(entries: dict, space, inst: Instance) -> dict:
    """Move each basis state's query address b*2n + i to b*2n + v_i."""
    seqs = (inst.x,) if inst.kind == "collision" else (inst.x, inst.y_sequence())
    two_n = 2 * inst.n
    targets = {
        b * two_n + i: b * two_n + v for b, seq in enumerate(seqs) for i, v in enumerate(seq, start=1)
    }
    if space.index_size != erasing_space(inst).index_size:
        raise ValueError("state space does not match the erasing-oracle layout")
    out = {}
    for ordinal, amp in entries.items():
        idx = (ordinal >> 1) % space.index_size + 1
        out[ordinal + (targets[idx] - idx) * 2] = amp
    return out


def reference_exact_steps(alg, inst: Instance):
    """The exact state after each step of alg.run (U_0, then query and U_t
    for t = 1..T), as dicts of QSqrt2, each step checked to keep the
    squared norm."""
    query = reference_standard_query if alg.oracle_kind == "standard" else reference_erasing_query
    entries = {alg.space.encode(alg.initial): ONE}
    steps = [lambda e: reference_exact_layer(e, alg.layers[0])]
    for layer in alg.layers[1:]:
        steps.append(lambda e: query(e, alg.space, inst))
        steps.append(lambda e, layer=layer: reference_exact_layer(e, layer))
    for step in steps:
        out = step(entries)
        if reference_exact_square_sum(out.values()) != reference_exact_square_sum(entries.values()):
            raise AssertionError("a step changed the squared norm")
        entries = out
        yield entries
