"""Reference helpers that only the tests use.

Each one is an independent check on the program (a closed form, a
brute-force universe, a plain sampler), so it lives beside the tests
rather than in the package.
"""

import itertools
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np

from collisionlab.circuits import hadamard_matrix
from collisionlab.degreebound import DerivativeReport, chain_region, family, variant_of
from collisionlab.instances import (
    WINDOW_DENOM,
    WINDOW_DENOM3,
    Instance,
    SuperQuasilatticePoint,
    kappa,
    sample_rows,
)
from collisionlab.lattice import VARIABLE_NAMES, LatticePoly
from collisionlab.multilinear import (
    REGISTERS,
    IndicatorVariable,
    Monomial,
    MultilinearPoly,
    monomials_over,
)
from collisionlab.polymethod import _Amplitudes, query_address_register
from collisionlab.qsqrt2 import ONE, ZERO, QSqrt2, int_form
from collisionlab.simulator import Layer, StateSpace, _accepting, erasing_space


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
# the derivative search on the whole grid
# ---------------------------------------------------------------------------


def full_grid_max_derivative(
    q: LatticePoly,
    n: int,
    T: int,
    G: int,
    resolution: int | None = None,
    refinement_rounds: int = 2,
) -> DerivativeReport:
    """The weighted derivative search evaluated on the whole grid: every
    partial on every open-grid point of every round, then np.argmax.
    degreebound.weighted_max_derivative must report the same bits."""
    variant = variant_of(q)
    fam = family(variant)
    resolution = fam.grid_resolution if resolution is None else resolution
    directions = VARIABLE_NAMES[q.arity]
    w = n / (fam.window_denom * T * (G - 1))
    weights = dict(zip(directions, [1.0] + [w] * (q.arity - 1)))
    partials = {name: q.derivative(i) for i, name in enumerate(directions)}

    intervals = chain_region(n, T, G, variant)
    best = DerivativeReport(-1.0, (), "g")
    for _ in range(refinement_rounds + 1):
        axes = [np.linspace(lo, hi, resolution) for lo, hi in intervals]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        round_best = None
        for name in directions:
            vals = np.abs(partials[name].evaluate_float(*grids)) * weights[name]
            flat = int(np.argmax(vals))
            value = float(vals.flat[flat])
            if round_best is None or value > round_best[0]:
                idx = np.unravel_index(flat, vals.shape)
                at = tuple(float(ax[i]) for ax, i in zip(axes, idx))
                round_best = (value, at, name, idx)
        value, at, name, idx = round_best
        if value > best.value:
            best = DerivativeReport(value, at, name)
        new_intervals = []
        for (lo, hi), ax, i in zip(intervals, axes, idx):
            new_lo = float(ax[max(0, i - 2)])
            new_hi = float(ax[min(len(ax) - 1, i + 2)])
            if new_hi <= new_lo:
                new_lo, new_hi = lo, hi
            new_intervals.append((new_lo, new_hi))
        intervals = new_intervals
    return best


def search_key(report: DerivativeReport) -> tuple:
    """A derivative report's value bits, point and direction."""
    return float.hex(report.value), report.at, report.direction


# ---------------------------------------------------------------------------
# input and monomial universes
# ---------------------------------------------------------------------------


def all_collision_sequences(n: int):
    """Every sequence in {1..n}^n, promise or not; n^n of them."""
    for x in itertools.product(range(1, n + 1), repeat=n):
        yield Instance(kind="collision", n=n, x=x)


_UNION_CHUNK = 1000  # draws per sample_rows table: its key arrays stay a few MB at n = 200


def fraction_of_small_unions(
    n: int, samples: int, rng: random.Random, threshold: Fraction = Fraction(11, 10)
) -> float:
    """Monte Carlo check on the g=1 set-comparison family: fraction of
    draws whose union is smaller than threshold*n.  The rows come from
    sample_rows, _UNION_CHUNK draws at a time; sorted, a row's union size
    is its count of distinct values."""
    if samples < 1:
        raise ValueError(f"no draws were asked for: samples must be >= 1, got {samples}")
    point = SuperQuasilatticePoint(1, n, n)
    cutoff = math.ceil(threshold * n)  # an integer size is below threshold*n iff below this
    small = 0
    for start in range(0, samples, _UNION_CHUNK):
        rows = np.sort(sample_rows(point, n, min(_UNION_CHUNK, samples - start), rng), axis=1)
        sizes = 1 + np.count_nonzero(np.diff(rows, axis=1), axis=1)
        small += int(np.count_nonzero(sizes < cutoff))
    return small / samples


def one_to_one_instance(n: int, rng: random.Random) -> Instance:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Instance(kind="collision", n=n, x=tuple(perm))


def mixed_monomials(n: int, max_degree: int) -> list[Monomial]:
    """Every canonical monomial over both registers, positions 1..n,
    values 1..2n, degree <= max_degree."""
    slots = [(reg, pos) for reg in REGISTERS for pos in range(1, n + 1)]
    return list(monomials_over(slots, range(1, 2 * n + 1), max_degree))


def with_factor(m: Monomial, f: IndicatorVariable) -> Monomial | None:
    """m times one more indicator, or None if the product conflicts."""
    return Monomial.from_factors(m.factors + (f,))


# ---------------------------------------------------------------------------
# admissibility predicates, point by point
# ---------------------------------------------------------------------------


def is_quasilattice_point(g: int, N: int, n: int, T: int, slack: int = WINDOW_DENOM) -> bool:
    """Admissibility of (g, N): g | N, 1 <= g <= sqrt(n),
    n <= N <= n + n/(slack*T), and N = n when g = 1."""
    if g < 1 or g * g > n:
        return False
    if N % g != 0:
        return False
    if N < n or (N - n) * slack * T > n:
        return False
    if g == 1 and N != n:
        return False
    return True


def is_super_quasilattice_point(
    g: int, N: int, M: int, n: int, T: int, slack: int = WINDOW_DENOM3
) -> bool:
    """Admissibility of (g, N, M): g in [1, n^(1/3)], g | N, kappa(g) | M,
    N and M in [n, n(1 + 1/(slack*T))], N = n when g = 1, M = n when g = 2."""
    if g < 1 or g**3 > n:
        return False
    if N % g != 0 or M % kappa(g) != 0:
        return False
    if N < n or (N - n) * slack * T > n:
        return False
    if M < n or (M - n) * slack * T > n:
        return False
    if g == 1 and N != n:
        return False
    if g == 2 and M != n:
        return False
    return True


# ---------------------------------------------------------------------------
# layers and states: a generator and dense views
# ---------------------------------------------------------------------------


def random_orthogonal_layer(space: StateSpace, rng: random.Random, stages: int = 10) -> Layer:
    """Seeded random orthogonal layer: signed permutation composed with
    Hadamard-type rotations on random basis-state pairs.  Exact by
    construction."""
    dim = space.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    one = QSqrt2(1)
    cols = []
    for c in range(dim):
        sign = one if rng.random() < 0.5 else -one
        cols.append([(perm[c], sign)])
    layer = Layer(dim, cols)
    h = QSqrt2.inv_sqrt2()
    for _ in range(stages):
        p, q = rng.sample(range(dim), 2)
        cols = [[(j, one)] for j in range(dim)]
        cols[p] = sorted([(p, h), (q, h)])
        cols[q] = sorted([(p, h), (q, -h)])
        layer = Layer(dim, cols).compose(layer)
    return layer


def to_dense(layer: Layer) -> list[list[QSqrt2]]:
    """The layer's matrix in full, zeros included, row by row."""
    rows = [[ZERO for _ in range(layer.dim)] for _ in range(layer.dim)]
    for c, col in enumerate(layer.cols):
        for r, v in col:
            rows[r][c] = v
    return rows


# The register layers as the package wrote them before circuits.digit_layer,
# one register at a time: the references digit_layer is checked against.


def reference_index_register_layer(space: StateSpace, small: list[list[QSqrt2]]) -> Layer:
    """small (index_size x index_size) acting on the index register alone."""
    m = space.index_size
    if len(small) != m:
        raise ValueError("operator size must equal index_size")
    # column c's nonzero (row, value) pairs, rows ascending, listed once
    nonzero = [
        [(r, v) for r, row in enumerate(small) if not (v := row[c]).is_zero()] for c in range(m)
    ]
    cols: list[list[tuple[int, QSqrt2]]] = [[] for _ in range(space.dim)]
    for w in range(1 << space.workspace_bits):
        for z in (0, 1):
            for c, entries in enumerate(nonzero):
                cols[(w * m + c) * 2 + z] = [((w * m + r) * 2 + z, v) for r, v in entries]
    return Layer(space.dim, cols)


def reference_workspace_bit_layer(space: StateSpace, bit: int, gate: list[list[QSqrt2]]) -> Layer:
    """2x2 gate on one workspace bit, identity elsewhere."""
    if not 0 <= bit < space.workspace_bits:
        raise ValueError("bit outside the workspace")
    if len(gate) != 2:
        raise ValueError("gate must be 2x2")
    mask = 1 << bit
    stride = space.index_size * 2
    cols: list[list[tuple[int, QSqrt2]]] = [[] for _ in range(space.dim)]
    for ordinal in range(space.dim):
        w = ordinal // stride
        b = 1 if w & mask else 0
        flipped = ordinal ^ (mask * stride)
        col = []
        if not gate[b][b].is_zero():
            col.append((ordinal, gate[b][b]))
        if not gate[1 - b][b].is_zero():
            col.append((flipped, gate[1 - b][b]))
        cols[ordinal] = sorted(col)
    return Layer(space.dim, cols)


def reference_pair_bit_hadamard(space: StateSpace, two_n: int) -> Layer:
    """Hadamard on the pair bit of the (b, value) index register, H (x) I_2n:
    |b, v> -> (|0, v> + (-1)^b |1, v>) / sqrt(2)."""
    h = hadamard_matrix(1)
    return reference_index_register_layer(space, [
        [h[r // two_n][c // two_n] if r % two_n == c % two_n else ZERO for c in range(2 * two_n)]
        for r in range(2 * two_n)
    ])


def assert_same_int_arrays(got: Layer, want: Layer) -> None:
    """The two layers store equal int_arrays(): D, big, and each array's
    dtype and values."""
    mine, theirs = got.int_arrays(), want.int_arrays()
    assert (mine.D, mine.big) == (theirs.D, theirs.big)
    for x, y in zip(mine[1:6], theirs[1:6]):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


def acceptance_weight(state):
    """Total squared amplitude of a StateVector on output = 2 states."""
    return state.weight(_accepting)


# ---------------------------------------------------------------------------
# closed forms of the reference algorithms
# ---------------------------------------------------------------------------


def erasing_setcomp_reference(inst: Instance) -> Fraction:
    """Outcome-1 probability from set arithmetic alone:
    |symmetric difference| / (4n).  Independent of the simulator."""
    if inst.kind != "setcomp":
        raise ValueError("set comparison needs a setcomp instance")
    return Fraction(len(set(inst.x) ^ set(inst.y)), 4 * inst.n)


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
    return [[v.to_strings() for v in row] for row in to_dense(layer)]


def dense_algorithm_json(alg) -> dict:
    """alg.to_json() with every layer in the dense form."""
    return {**alg.to_json(), "layers": [dense_layer_json(layer) for layer in alg.layers]}


# ---------------------------------------------------------------------------
# extraction written with dicts, one term and one pair at a time
# ---------------------------------------------------------------------------


def propagate_reference(alg) -> tuple[dict[int, dict[tuple, tuple[int, int]]], int]:
    """The propagation step of extract_polynomial written with dicts:
    (amps, D) after the last layer, where amps maps each basis-state
    ordinal with a nonzero amplitude to its polynomial, canonical factor
    tuple -> (A, B), meaning (A + B sqrt(2)) / D.  Ordinals, and the
    monomials of each, come in the order in which they are first reached;
    the array form must match it as a mapping."""
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
            key = query_address_register(alg.n, index)
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


def amplitude_rows(amps: dict) -> _Amplitudes:
    """The dict amplitudes of propagate_reference as the rows that the
    array squaring reads: one row per (ordinal, monomial) in dict order,
    one slot per (register, position) the monomials pin, the alphabet up
    to the largest pinned value, and each monomial as its code."""
    terms = [(o, m, c) for o, poly in amps.items() for m, c in poly.items()]
    slots = sorted({f[:2] for _, m, _ in terms for f in m})
    column = {slot: s for s, slot in enumerate(slots)}
    alphabet = max((f.value for _, m, _ in terms for f in m), default=1)
    codes = []
    for _, m, _ in terms:
        code = 0
        for i in sorted(column[f[:2]] * alphabet + f.value for f in m):
            code = code * (len(slots) * alphabet + 1) + i
        codes.append(code)
    coefs = [v for _, _, c in terms for v in c]
    dtype = np.int64 if max(map(abs, coefs), default=0) < 2**63 else object
    return _Amplitudes(
        tuple(slots),
        alphabet,
        np.array([o for o, _, _ in terms], dtype=np.int64),
        np.array(codes, dtype=np.int64 if max(codes, default=0) < 2**63 else object),
        np.array([a for _, _, (a, _) in terms], dtype=dtype),
        np.array([b for _, _, (_, b) in terms], dtype=dtype),
    )


def code_factors(amps: _Amplitudes, code: int) -> tuple:
    """The factors of a row code of the array propagation, ascending: its
    digits, base len(slots) * alphabet + 1, are the factor ids, id d
    pinning slot (d - 1) // alphabet to (d - 1) % alphabet + 1."""
    factors = []
    while code:
        code, d = divmod(code, len(amps.slots) * amps.alphabet + 1)
        s, h = divmod(d - 1, amps.alphabet)
        factors.append(IndicatorVariable(*amps.slots[s], h + 1))
    return tuple(factors[::-1])


def amplitude_dicts(amps: _Amplitudes) -> dict:
    """The rows of the array propagation in propagate_reference's form."""
    out: dict = {}
    for o, code, a, b in zip(amps.ordinal.tolist(), amps.code.tolist(), amps.a.tolist(), amps.b.tolist()):
        out.setdefault(o, {})[code_factors(amps, code)] = (a, b)
    return out


def merge_factors(f: tuple, g: tuple) -> tuple | None:
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


def square_accepting_reference(amps: dict, D: int) -> MultilinearPoly:
    """The squaring step of extract_polynomial written with dicts, pair
    by pair: the reference that the array form must match term for term,
    as a mapping.  amps and D are as propagate_reference returns them."""
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
            m = merge_factors(monomials[i], monomials[j])
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
    # query address i reads x_i for i <= n and y_(i-n) past it
    n = inst.n
    values = [inst.x[i - 1] if i <= n else inst.y[i - n - 1] for i in range(1, space.index_size + 1)]
    masks = [space.encode_answer(v) * space.index_size * 2 for v in values]
    return {
        ordinal ^ masks[(ordinal >> 1) % space.index_size]: amp
        for ordinal, amp in entries.items()
    }


def reference_erasing_query(entries: dict, space, inst: Instance) -> dict:
    """Move each basis state's query address b*2n + i to b*2n + v_i."""
    seqs = (inst.x,) if inst.y is None else (inst.x, inst.y)
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


# ---------------------------------------------------------------------------
# monomial hit counts, row by row
# ---------------------------------------------------------------------------


def hit_counts(rows, max_degree: int) -> Counter:
    """(positions, values) -> how many rows hold those values at those
    1-based positions, for every set of at most max_degree positions: the
    count of each x-register monomial's hits, read off the rows."""
    rows = list(rows)
    columns = list(zip(*rows))
    counts: Counter = Counter({((), ()): len(rows)})
    for r in range(1, max_degree + 1):
        for chosen in itertools.combinations(range(len(columns)), r):
            positions = tuple(p + 1 for p in chosen)
            for values, count in Counter(zip(*(columns[p] for p in chosen))).items():
                counts[positions, values] = count
    return counts
