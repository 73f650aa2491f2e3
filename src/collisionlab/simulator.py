"""Exact real-amplitude state-vector simulation of query algorithms.

A basis state is |workspace, index, output>: a fixed-width workspace
bitstring (holding, among other things, the query-answer field), a query
index register, and a one-bit accept register (output 2 means accept).
Between queries an algorithm applies input-independent orthogonal layers
over Q(sqrt(2)); a query rewrites every basis state at once according to
the oracle semantics:

  standard  |w, i, z> -> |w XOR enc(value_i), i, z>   (answer field XOR)
  erasing   |w, i, z> -> |w, value_i, z>              (index replaced)

Exact and float mode share every kernel: exact mode holds QSqrt2
amplitudes and checks norms for equality, float mode holds doubles and
checks them within FLOAT_NORM_TOL.  Those constants and the few
operations on a state's entries (the layer product, re-keying, the sum
of squares and its checks) live in the MODES table; nothing else
differs.
An exact state's entries stay in qsqrt2's integer form from step to
step (ExactEntries): integers over the amplitudes' least common
denominator d.  A layer multiplies them by its Layer.int_cols() over D
and reduces the result to its least common denominator; a query re-keys
them; a sum of squares is one integer sum over d^2, and the norm and
[0, 1] checks compare those integers.  A QSqrt2 is built only where a
caller reads an amplitude or a sum.

The layer kernels (the orthogonality check and the layer product) run
on numpy arrays of those integers: int64 while every sum provably fits,
Python ints (dtype object) past that, so either way they are exact.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .instances import Instance, json_field
from .qsqrt2 import ONE, QSqrt2, ZERO, int_form, parse_fraction, sign

FLOAT_NORM_TOL = 1e-12
MEASURE_NORM_TOL = 1e-9
_GRAM_CHUNK = 1 << 13  # most row pairs that is_orthogonal multiplies out at once


@dataclass(frozen=True)
class BasisState:
    workspace: int
    index: int
    output: int  # 1 = reject, 2 = accept; stored as-is, encoded as one bit


class StateSpace:
    """Shape of the basis: workspace width, index range, answer field."""

    __slots__ = ("workspace_bits", "index_size", "answer_offset", "answer_bits", "dim")

    def __init__(
        self,
        index_size: int,
        workspace_bits: int = 0,
        answer_offset: int = 0,
        answer_bits: int = 0,
    ):
        if index_size < 1:
            raise ValueError("index_size must be >= 1")
        if workspace_bits < 0 or answer_bits < 0 or answer_offset < 0:
            raise ValueError("negative register width")
        if answer_offset + answer_bits > workspace_bits:
            raise ValueError("answer field does not fit in the workspace")
        self.workspace_bits = workspace_bits
        self.index_size = index_size
        self.answer_offset = answer_offset
        self.answer_bits = answer_bits
        self.dim = (1 << workspace_bits) * index_size * 2

    def encode(self, state: BasisState) -> int:
        if not 0 <= state.workspace < (1 << self.workspace_bits):
            raise ValueError("workspace out of range")
        if not 1 <= state.index <= self.index_size:
            raise ValueError("index out of range")
        if state.output not in (1, 2):
            raise ValueError("output must be 1 or 2")
        return (
            (state.workspace * self.index_size + (state.index - 1)) * 2
            + (state.output - 1)
        )

    def decode(self, ordinal: int) -> BasisState:
        ordinal, z = divmod(ordinal, 2)
        w, i = divmod(ordinal, self.index_size)
        return BasisState(workspace=w, index=i + 1, output=z + 1)

    def encode_answer(self, value: int) -> int:
        """Answer-field image of a queried value, as a workspace XOR mask."""
        if value >= (1 << self.answer_bits):
            raise ValueError(
                f"field overflow: value {value} needs more than "
                f"{self.answer_bits} answer bits"
            )
        return value << self.answer_offset


def _int_product(vec, cols) -> dict[int, list[int]]:
    """Integer columns times an integer vector over Z[sqrt 2].

    vec lists (j, (a, b)), entry j being a + b sqrt 2, and cols[j] lists
    (row, A, B).  Returns row -> [rational sum, sqrt(2) sum] in the order
    rows are first reached; zero sums are kept.
    """
    acc: dict[int, list[int]] = {}
    for j, (a1, b1) in vec:
        for row, a2, b2 in cols[j]:
            cur = acc.get(row)
            if cur is None:
                acc[row] = [a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2]
            else:
                cur[0] += a1 * a2 + 2 * b1 * b2
                cur[1] += a1 * b2 + b1 * a2
    return acc


def _flatten(cols):
    """Column lengths, then the rows, A and B of integer columns as
    tuples, entries in column order."""
    flat = [entry for col in cols for entry in col]
    rows, a, b = zip(*flat) if flat else ((), (), ())
    return [len(col) for col in cols], rows, a, b


def _largest(*parts) -> int:
    """Largest absolute value in sequences of integers; 0 if none."""
    return max((max(map(abs, part), default=0) for part in parts), default=0)


def _int64_or_object(bound: int):
    """int64 if it holds every integer of absolute value up to bound,
    else object: Python ints, exact at any size."""
    return np.int64 if bound <= np.iinfo(np.int64).max else object


def _grouped(keys: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Sum a and b per distinct key.  Returns (first, sums of a, sums of
    b), one entry per key in the order in which the keys first appear,
    with first the position of that first appearance.  The sort is
    stable, so a key's first entry in sorted order is its first
    appearance.  Empty input gives empty output."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    first = order[starts]
    seen = np.argsort(first, kind="stable")
    sum_a = np.add.reduceat(a[order], starts)[seen]
    sum_b = np.add.reduceat(b[order], starts)[seen]
    return first[seen], sum_a, sum_b


def _summed(parts):
    """(keys, sums of a, sums of b) over (keys, a, b) parts, one entry
    per distinct key."""
    keys, a, b = (np.concatenate(part) for part in zip(*parts))
    first, a, b = _grouped(keys, a, b)
    return keys[first], a, b


class Layer:
    """Orthogonal matrix over Q(sqrt(2)), stored as sparse columns.

    cols[j] lists (row, entry) pairs of column j, at most one per row.
    Orthogonality (U^T U = I) is checked exactly on demand; algorithm
    construction rejects non-orthogonal layers.

    Exact kernels use the integer form int_cols(): one denominator D
    shared by the whole layer and each entry as (row, A, B), meaning
    (A + B sqrt(2)) / D, so sums of products need no per-step
    normalization.
    """

    __slots__ = ("dim", "cols", "_float_cols", "_int_cols")

    def __init__(self, dim: int, cols: list[list[tuple[int, QSqrt2]]]):
        if len(cols) != dim:
            raise ValueError("column count must equal dim")
        self.dim = dim
        self.cols = cols
        self._float_cols = None
        self._int_cols = None

    @staticmethod
    def identity(dim: int) -> "Layer":
        return Layer(dim, [[(j, ONE)] for j in range(dim)])

    def to_dense(self) -> list[list[QSqrt2]]:
        rows = [[ZERO for _ in range(self.dim)] for _ in range(self.dim)]
        for c, col in enumerate(self.cols):
            for r, v in col:
                rows[r][c] = v
        return rows

    def float_cols(self):
        if self._float_cols is None:
            self._float_cols = [
                [(r, float(v)) for r, v in col] for col in self.cols
            ]
        return self._float_cols

    def int_cols(self) -> tuple[int, list[list[tuple[int, int, int]]]]:
        """(D, cols) with cols[j] listing (row, A, B): entry (A + B sqrt 2) / D,
        the int_form of the layer's entries in column order."""
        if self._int_cols is None:
            D, pairs = int_form(v for col in self.cols for _, v in col)
            it = iter(pairs)
            self._int_cols = (D, [
                [(r, A, B) for (r, _), (A, B) in zip(col, it)] for col in self.cols
            ])
        return self._int_cols

    def is_orthogonal(self) -> bool:
        """Exact check that columns are orthonormal.

        Builds M^T M for the integer matrix M = D U from the rows of M:
        each row adds the products of every pair of its nonzeros, keyed
        i * dim + j for its columns i <= j.  Rows of one length share one
        triu_indices table; at most _GRAM_CHUNK pairs (or one row) are
        multiplied out and summed per key at once, and the chunk sums are
        summed per key again.  U is orthogonal iff M^T M = D^2 I with no
        sqrt(2) part.
        """
        D, cols = self.int_cols()
        dim = self.dim
        lengths, rows, a, b = _flatten(cols)
        d2 = D * D
        # A Gram entry sums at most dim products of absolute value <= 3 big^2.
        num = _int64_or_object(max(3 * dim * _largest(a, b) ** 2, d2))
        rows = np.array(rows, dtype=np.int64)
        order = np.argsort(rows, kind="stable")  # columns stay ascending in a row
        col = np.repeat(np.arange(dim, dtype=np.int64), lengths)[order]
        a, b = np.array(a, dtype=num)[order], np.array(b, dtype=num)[order]
        per_row = np.bincount(rows, minlength=dim)
        row_start = np.cumsum(per_row) - per_row
        parts, held, folded = [], 0, 0
        for length in sorted(set(per_row.tolist()) - {0}):
            p, q = np.triu_indices(length)
            starts = row_start[per_row == length, None]
            step = max(1, _GRAM_CHUNK // len(p))
            for s in range(0, len(starts), step):
                ip, iq = (starts[s:s + step] + p).ravel(), (starts[s:s + step] + q).ravel()
                keys = col[ip] * dim + col[iq]
                first, sum_a, sum_b = _grouped(
                    keys, a[ip] * a[iq] + 2 * b[ip] * b[iq], a[ip] * b[iq] + b[ip] * a[iq]
                )
                parts.append((keys[first], sum_a, sum_b))
                held += len(first)
                # Fold the chunk sums once they outgrow the folded sums, so
                # dense rows hold about twice the Gram's nonzeros at most.
                if held - folded > max(_GRAM_CHUNK, folded):
                    parts = [_summed(parts)]
                    held = folded = len(parts[0][0])
        if not parts:
            return dim == 0
        keys, sum_a, sum_b = _summed(parts)
        i, j = np.divmod(keys, dim)
        diagonal = i == j
        return (
            int(np.count_nonzero(diagonal)) == dim
            and not np.any(sum_b != 0)
            and bool(np.all(sum_a[diagonal] == d2))
            and not np.any(sum_a[~diagonal] != 0)
        )

    def compose(self, inner: "Layer") -> "Layer":
        """self @ inner: the layer that applies inner first, then self.

        Each entry (k, a, b) of column c of inner meets every entry of
        column k of self; the products are summed per key c * dim + row
        as integers over D = d_outer * d_inner.  The composed layer keeps
        the nonzero sums, rows ascending, as its int_cols(), reduced to
        the least common denominator, the form int_form derives from the
        entries.  Equal entries share one QSqrt2.
        """
        if self.dim != inner.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        d_outer, outer_cols = self.int_cols()
        d_inner, inner_cols = inner.int_cols()
        outer_len, outer_row, outer_a, outer_b = _flatten(outer_cols)
        inner_len, inner_row, inner_a, inner_b = _flatten(inner_cols)
        # A sum has at most dim products of absolute value <= 3 big^2.
        num = _int64_or_object(3 * dim * _largest(outer_a, outer_b, inner_a, inner_b) ** 2)
        # Inner entry t, in row k of its column, meets each entry of outer
        # column k: e repeats t once per meeting, at indexes the entry met.
        k = np.array(inner_row, dtype=np.int64)
        outer_len = np.array(outer_len, dtype=np.int64)
        reps = outer_len[k]
        e = np.repeat(np.arange(len(k)), reps)
        at = np.arange(len(e)) + np.repeat(np.cumsum(outer_len)[k] - np.cumsum(reps), reps)
        c = np.repeat(np.arange(dim, dtype=np.int64), inner_len)[e]
        keys = c * dim + np.array(outer_row, dtype=np.int64)[at]
        ia, ib = np.array(inner_a, dtype=num)[e], np.array(inner_b, dtype=num)[e]
        oa, ob = np.array(outer_a, dtype=num)[at], np.array(outer_b, dtype=num)[at]
        first, sum_a, sum_b = _grouped(keys, ia * oa + 2 * ib * ob, ia * ob + ib * oa)
        keys = keys[first]
        keep = np.flatnonzero((sum_a != 0) | (sum_b != 0))
        keep = keep[np.argsort(keys[keep], kind="stable")]
        col, rows = np.divmod(keys[keep], dim)
        rows, A, B = rows.tolist(), sum_a[keep].tolist(), sum_b[keep].tolist()
        D = d_outer * d_inner
        common = math.gcd(D, *A, *B)
        if common > 1:
            D //= common
            A, B = [x // common for x in A], [y // common for y in B]
        value = {pair: QSqrt2.over(*pair, D) for pair in set(zip(A, B))}
        int_flat = list(zip(rows, A, B))
        flat = list(zip(rows, map(value.__getitem__, zip(A, B))))
        ends = np.cumsum(np.bincount(col, minlength=dim)).tolist()
        spans = list(zip([0, *ends], ends))
        layer = Layer(dim, [flat[s:t] for s, t in spans])
        layer._int_cols = (D, [int_flat[s:t] for s, t in spans])
        return layer

    def to_json(self) -> dict:
        """Sparse form {"dim": dim, "cols": [[[row, "a", "b"], ...], ...]}:
        each column's nonzero entries a + b sqrt(2), rows ascending."""
        return {"dim": self.dim, "cols": [
            [[r, *v.to_strings()] for r, v in sorted(col, key=lambda e: e[0]) if not v.is_zero()]
            for col in self.cols
        ]}

    @staticmethod
    def from_json(doc) -> "Layer":
        """Inverse of to_json; also reads the dense form, a list of rows of
        ["a", "b"] pairs.  Both forms feed one loop over (row, col, pair)
        triples, and an entry that parses to zero is dropped."""
        if isinstance(doc, dict):
            dim = json_field(doc, "dim")
            entries = _sparse_entries(dim, json_field(doc, "cols", list))
        else:
            dim = len(doc)
            entries = _dense_entries(doc)
        cols: list[list[tuple[int, QSqrt2]]] = [[] for _ in range(dim)]
        parsed: dict[str, Fraction] = {}

        def fraction(text: str) -> Fraction:
            f = parsed.get(text)
            if f is None:
                f = parsed[text] = parse_fraction(text)
            return f

        for r, c, pair in entries:
            if len(pair) != 2:
                raise ValueError(f"expected [a, b] entry, got {pair!r}")
            v = QSqrt2(fraction(pair[0]), fraction(pair[1]))
            if not v.is_zero():
                cols[c].append((r, v))
        return Layer(dim, cols)


def _sparse_entries(dim: int, cols):
    """(row, col, pair) for each [row, "a", "b"] entry of the sparse form,
    column by column; rows must ascend within each column."""
    if len(cols) != dim:
        raise ValueError(f"expected {dim} columns, got {len(cols)}")
    for c, col in enumerate(cols):
        last = -1
        for r, *pair in col:
            if type(r) is not int:
                raise ValueError(f"column {c}: row must be an integer, got {r!r}")
            if not 0 <= r < dim:
                raise ValueError(f"column {c}: row {r} out of range 0..{dim - 1}")
            if r <= last:
                raise ValueError(f"column {c}: row {r} does not follow row {last}")
            last = r
            yield r, c, pair


def _dense_entries(rows):
    """(row, col, pair) for each entry of the dense form but literal zeros,
    which are skipped unparsed."""
    dim = len(rows)
    for r, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError("matrix must be square")
        for c, entry in enumerate(row):
            if entry != _ZERO_ENTRY:
                yield r, c, entry


_ZERO_ENTRY = ZERO.to_strings()


class ExactEntries(Mapping):
    """Read-only amplitudes of an exact state in qsqrt2's integer form.

    ints[ordinal] = (A, B) holds the amplitude (A + B sqrt 2) / d, in the
    order the ordinals were reached, and (d, ints) is what int_form gives
    for the amplitudes.  Reading an amplitude builds its QSqrt2; the
    kernels and checks read d and ints.  The entries cannot change, so
    the squared norm is summed once, when first asked for, and kept.
    """

    __slots__ = ("d", "ints", "_norm")

    def __init__(self, d: int, ints: dict[int, tuple[int, int]]):
        self.d = d
        self.ints = ints
        self._norm = None

    @staticmethod
    def of(entries: Mapping) -> "ExactEntries":
        """entries as ExactEntries: itself if it is one, else the int_form
        of its QSqrt2 values."""
        if isinstance(entries, ExactEntries):
            return entries
        d, pairs = int_form(entries.values())
        return ExactEntries(d, dict(zip(entries, pairs)))

    @staticmethod
    def reduced(d: int, ints: dict[int, tuple[int, int]]) -> "ExactEntries":
        """(A + B sqrt 2) / d for each (A, B), with d and every integer
        divided by their common gcd: the least common denominator."""
        common = math.gcd(d, *itertools.chain.from_iterable(ints.values()))
        if common > 1:
            d //= common
            ints = {k: (A // common, B // common) for k, (A, B) in ints.items()}
        return ExactEntries(d, ints)

    def __getitem__(self, ordinal) -> QSqrt2:
        A, B = self.ints[ordinal]
        return QSqrt2.over(A, B, self.d)

    def __contains__(self, ordinal) -> bool:
        return ordinal in self.ints

    def __iter__(self):
        return iter(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __repr__(self):
        return f"ExactEntries({dict(self.items())!r})"

    def square_sum(self, keep=None) -> tuple[int, int, int]:
        """(A, B, D): the squared amplitudes whose ordinal keep accepts
        (all if keep is None) sum to (A + B sqrt 2) / D, one integer sum
        over D = d^2 > 0, since (A + B sqrt 2)^2 = A^2 + 2 B^2 + 2 A B sqrt 2."""
        if keep is None and self._norm is not None:
            return self._norm
        pairs = self.ints.values() if keep is None else (
            pair for k, pair in self.ints.items() if keep(k)
        )
        ra = rb = 0
        for A, B in pairs:
            ra += A * A + 2 * B * B
            rb += A * B
        total = (ra, 2 * rb, self.d * self.d)
        if keep is None:
            self._norm = total
        return total


def _exact_layer(entries: ExactEntries, layer: Layer) -> ExactEntries:
    """Layer product on integers: the state's integers over d times the
    layer's int_cols() over D, zero sums dropped, reduced to the least
    common denominator."""
    D, cols = layer.int_cols()
    acc = _int_product(entries.ints.items(), cols)
    return ExactEntries.reduced(entries.d * D, {
        row: (x, y) for row, (x, y) in acc.items() if x or y
    })


def _exact_rekey(entries: ExactEntries, keys: list[int]) -> ExactEntries:
    return ExactEntries(entries.d, dict(zip(keys, entries.ints.values())))


def _float_layer(entries: dict, layer: Layer) -> dict:
    cols = layer.float_cols()
    out: dict[int, float] = {}
    for ordinal, amp in entries.items():
        for row, v in cols[ordinal]:
            cur = out.get(row)
            out[row] = v * amp if cur is None else cur + v * amp
    return {k: v for k, v in out.items() if v}


def _float_rekey(entries: dict, keys: list[int]) -> dict:
    return dict(zip(keys, entries.values()))


def _float_weight(entries: dict, keep=None):
    amps = entries.values() if keep is None else (a for k, a in entries.items() if keep(k))
    return sum((a * a for a in amps), 0)


def _exact_same(s: tuple[int, int, int], t: tuple[int, int, int]) -> bool:
    """(A + B sqrt 2) / D == (A' + B' sqrt 2) / D', by cross-multiplying:
    sqrt 2 is irrational, so both parts must agree."""
    (a, b, d), (a2, b2, d2) = s, t
    return a * d2 == a2 * d and b * d2 == b2 * d


def _exact_probability(s: tuple[int, int, int]) -> QSqrt2:
    """(A + B sqrt 2) / D as a QSqrt2, checked to lie in [0, 1] by the
    sign rule: with D > 0 it is at least 0 iff A + B sqrt 2 is, and at
    most 1 iff (A - D) + B sqrt 2 is at most 0."""
    A, B, D = s
    p = QSqrt2.over(A, B, D)
    if sign(A, B) < 0 or sign(A - D, B) > 0:
        raise AssertionError(f"acceptance probability {p!r} outside [0, 1]")
    return p


def _float_same(s: float, t: float) -> bool:
    return s == t or -FLOAT_NORM_TOL <= s - t <= FLOAT_NORM_TOL


def _float_probability(p: float) -> float:
    """p clipped to [0, 1], checked to lie within FLOAT_NORM_TOL of it."""
    clipped = min(max(p, 0), 1.0)
    if not _float_same(p, clipped):
        raise AssertionError(f"acceptance probability {p!r} outside [0, 1]")
    return clipped


class Arithmetic(NamedTuple):
    """What differs between amplitude modes: zero, one, and the
    operations on a state's entries.  read gives a state's entries in the
    form the others take; layer is the layer product; rekey moves the i-th
    entry to keys[i]; square_sum(entries, keep) sums the squares of the
    amplitudes whose ordinal keep accepts (all if keep is None), in the
    form the checks read: (A, B, D) integers in exact mode.  value turns
    such a sum into the mode's number; same(s, t) tells whether two sums
    agree, exactly or within FLOAT_NORM_TOL; probability(s) is value(s)
    checked to lie in [0, 1], and in float mode clipped to it.  The float
    zero is the int 0 of a plain sum(), so a float acceptance with no
    accepting state reads 0."""

    zero: object
    one: object
    read: Callable[[Mapping], Mapping]
    layer: Callable[[Mapping, Layer], Mapping]
    rekey: Callable[[Mapping, list], Mapping]
    square_sum: Callable
    value: Callable
    same: Callable[..., bool]
    probability: Callable


MODES = {
    "exact": Arithmetic(ZERO, ONE, ExactEntries.of, _exact_layer, _exact_rekey,
                        ExactEntries.square_sum, lambda s: QSqrt2.over(*s), _exact_same,
                        _exact_probability),
    "float": Arithmetic(0, 1.0, lambda entries: entries, _float_layer, _float_rekey,
                        _float_weight, lambda s: s, _float_same, _float_probability),
}


def _accepting(ordinal: int) -> int:
    """The output bit of a basis ordinal: 1 on output = 2 states."""
    return ordinal & 1


class StateVector:
    """Sparse amplitude vector over a StateSpace.

    mode "exact" holds QSqrt2 amplitudes, mode "float" holds doubles.
    Entries are keyed internally by basis ordinal; items() exposes
    (BasisState, amplitude) pairs.  An exact state may be built from a
    plain dict of QSqrt2; it keeps the dict's ExactEntries, the read-only
    form every kernel takes and returns.
    """

    __slots__ = ("space", "mode", "entries")

    def __init__(self, space: StateSpace, mode: str = "exact", entries=None):
        if mode not in MODES:
            raise ValueError("mode must be 'exact' or 'float'")
        self.space = space
        self.mode = mode
        self.entries: Mapping = MODES[mode].read(entries if entries is not None else {})

    @staticmethod
    def from_basis_state(
        space: StateSpace, state: BasisState, mode: str = "exact"
    ) -> "StateVector":
        return StateVector(space, mode, {space.encode(state): MODES[mode].one})

    def items(self):
        for ordinal, amp in self.entries.items():
            yield self.space.decode(ordinal), amp

    def amplitude(self, state: BasisState):
        return self.entries.get(self.space.encode(state), MODES[self.mode].zero)

    def weight(self, keep=None):
        """Total squared amplitude on the ordinals keep accepts (all if None)."""
        m = MODES[self.mode]
        return m.value(m.square_sum(self.entries, keep))

    def squared_norm(self):
        return self.weight()

    def acceptance_weight(self):
        """Total squared amplitude on output = 2 states."""
        return self.weight(_accepting)


def _same_norm(a: StateVector, b: StateVector) -> bool:
    m = MODES[a.mode]
    return m.same(m.square_sum(a.entries), m.square_sum(b.entries))


def _check_norm_preserved(before: StateVector, after: StateVector, what: str):
    if not _same_norm(before, after):
        raise AssertionError(
            f"{what} changed the squared norm from {before.squared_norm()!r} "
            f"to {after.squared_norm()!r}"
        )


def apply_unitary(state: StateVector, layer: Layer) -> StateVector:
    """Apply one input-independent orthogonal layer."""
    if layer.dim != state.space.dim:
        raise ValueError("layer dimension does not match state space")
    result = StateVector(state.space, state.mode, MODES[state.mode].layer(state.entries, layer))
    _check_norm_preserved(state, result, "unitary layer")
    return result


def apply_standard_query(state: StateVector, inst: Instance) -> StateVector:
    """XOR the queried value's encoding into the answer field of every
    basis state.  A bijection on basis states, so norm is untouched."""
    space = state.space
    if space.index_size != inst.num_query_indices:
        raise ValueError("instance does not match the state space index register")
    masks = [
        space.encode_answer(inst.query_value(i)) * space.index_size * 2
        for i in range(1, space.index_size + 1)
    ]
    entries = state.entries
    keys = [ordinal ^ masks[(ordinal >> 1) % space.index_size] for ordinal in entries]
    result = StateVector(space, state.mode, MODES[state.mode].rekey(entries, keys))
    _check_norm_preserved(state, result, "standard query")
    return result


def erasing_space(inst: Instance, workspace_bits: int = 0) -> StateSpace:
    """State space whose index register holds erasing-oracle outputs:
    {1..n} for collision inputs, {0,1} x {1..2n} (size 4n) for pairs."""
    size = inst.n if inst.kind == "collision" else 4 * inst.n
    return StateSpace(index_size=size, workspace_bits=workspace_bits)


def apply_erasing_query(state: StateVector, inst: Instance) -> StateVector:
    """Replace the index register content by the queried value.

    Query address b*2n + i goes to b*2n + v_i, with v = x for b = 0 and
    v = y for b = 1; collision inputs have b = 0 only.  Defined only on
    basis states whose index is a query address, and only for injective
    inputs, which make it an inner-product-preserving basis map.
    """
    seqs = (inst.x,) if inst.kind == "collision" else (inst.x, inst.y_sequence())
    if any(len(set(seq)) != inst.n for seq in seqs):
        raise ValueError("erasing oracle undefined for non-injective input")
    two_n = 2 * inst.n
    targets = {
        b * two_n + i: b * two_n + v
        for b, seq in enumerate(seqs)
        for i, v in enumerate(seq, start=1)
    }
    space = state.space
    if space.index_size != erasing_space(inst).index_size:
        raise ValueError("state space does not match the erasing-oracle layout")
    entries = state.entries
    keys = []
    for ordinal in entries:
        idx = (ordinal >> 1) % space.index_size + 1
        new_idx = targets.get(idx)
        if new_idx is None:
            raise ValueError(
                f"erasing query applied to a state outside the query domain (index {idx})"
            )
        keys.append(ordinal + (new_idx - idx) * 2)
    out = MODES[state.mode].rekey(entries, keys)
    if len(out) != len(entries):
        raise AssertionError("erasing map collided; input claimed injective")
    result = StateVector(space, state.mode, out)
    _check_norm_preserved(state, result, "erasing query")
    return result


@dataclass
class QueryAlgorithm:
    """A T-query algorithm: layers U_0 .. U_T with a query between each.

    kind names the expected instance kind; the index register enumerates
    query addresses (n for collision, 2n for set-comparison pairs).  The
    workspace layout, answer-field placement and initial basis state are
    explicit metadata since no canonical choice exists.
    """

    name: str
    kind: str  # "collision" | "setcomp"
    n: int
    T: int
    oracle_kind: str  # "standard" | "erasing"
    space: StateSpace
    layers: list[Layer]
    initial: BasisState = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in ("collision", "setcomp"):
            raise ValueError("kind must be 'collision' or 'setcomp'")
        if self.oracle_kind not in ("standard", "erasing"):
            raise ValueError("oracle_kind must be 'standard' or 'erasing'")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if len(self.layers) != self.T + 1:
            raise ValueError(f"need exactly T+1 = {self.T + 1} layers")
        expected_index = self.n if self.kind == "collision" else 2 * self.n
        if self.oracle_kind == "standard" and self.space.index_size != expected_index:
            raise ValueError("index register must enumerate the query addresses")
        if self.initial is None:
            self.initial = BasisState(workspace=0, index=1, output=1)
        self.space.encode(self.initial)  # range check
        for t, layer in enumerate(self.layers):
            if layer.dim != self.space.dim:
                raise ValueError(f"layer {t} dimension mismatch")
            if not layer.is_orthogonal():
                raise ValueError(f"layer {t} is not orthogonal")

    @property
    def alphabet_size(self) -> int:
        return self.n if self.kind == "collision" else 2 * self.n

    def check_instance(self, inst: Instance):
        if inst.kind != self.kind or inst.n != self.n:
            raise ValueError("instance incompatible with algorithm")

    def run(self, inst: Instance, mode: str = "exact") -> StateVector:
        """Apply U_0, then (query, U_t) for t = 1..T; returns the final state."""
        self.check_instance(inst)
        query = (
            apply_standard_query if self.oracle_kind == "standard" else apply_erasing_query
        )
        start = StateVector.from_basis_state(self.space, self.initial, mode)
        state = apply_unitary(start, self.layers[0])
        for t in range(1, self.T + 1):
            state = query(state, inst)
            state = apply_unitary(state, self.layers[t])
        if not _same_norm(state, start):  # a basis state has squared norm one
            raise AssertionError(
                f"final state is not normalized (squared norm {state.squared_norm()!r})"
            )
        return state

    # -- description file ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "n": self.n,
            "T": self.T,
            "oracle_kind": self.oracle_kind,
            "workspace_bits": self.space.workspace_bits,
            "index_size": self.space.index_size,
            "answer_offset": self.space.answer_offset,
            "answer_bits": self.space.answer_bits,
            "initial": {
                "workspace": self.initial.workspace,
                "index": self.initial.index,
                "output": self.initial.output,
            },
            "layers": [layer.to_json() for layer in self.layers],
        }

    @staticmethod
    def from_json(doc: dict) -> "QueryAlgorithm":
        space = StateSpace(
            index_size=json_field(doc, "index_size"),
            workspace_bits=json_field(doc, "workspace_bits"),
            answer_offset=json_field(doc, "answer_offset"),
            answer_bits=json_field(doc, "answer_bits"),
        )
        return QueryAlgorithm(
            name=doc.get("name", "unnamed"),
            kind=json_field(doc, "kind", str),
            n=json_field(doc, "n"),
            T=json_field(doc, "T"),
            oracle_kind=json_field(doc, "oracle_kind", str),
            space=space,
            layers=json_field(doc, "layers", lambda docs: [Layer.from_json(r) for r in docs]),
            initial=json_field(doc, "initial", lambda init: BasisState(
                *(json_field(init, k) for k in ("workspace", "index", "output"))
            )),
        )

    def dump(self, path):
        # unindented, so json.dumps runs its C encoder over the whole document
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()) + "\n")

    @staticmethod
    def load(path) -> "QueryAlgorithm":
        with open(path, encoding="utf-8") as fh:
            return QueryAlgorithm.from_json(json.load(fh))


def acceptance_probability(alg: QueryAlgorithm, inst: Instance, mode: str = "exact"):
    """Probability of measuring output 2 after the full circuit.

    Exact mode returns a QSqrt2 value checked to lie in [0, 1]; float mode
    returns a double checked to lie within FLOAT_NORM_TOL of it, clipped.
    """
    m = MODES[mode]
    return m.probability(m.square_sum(alg.run(inst, mode).entries, _accepting))


def sample_measurement(state: StateVector, rng: random.Random) -> BasisState:
    """Draw one basis state with probability equal to its squared amplitude."""
    ordinals = list(state.entries)
    weights = [a * a for a in map(float, state.entries.values())]
    total = sum(weights)
    if abs(total - 1.0) > MEASURE_NORM_TOL:
        raise ValueError(f"state is not normalized (squared norm {total})")
    r = rng.random() * total
    acc = 0.0
    for ordinal, w in zip(ordinals, weights):
        acc += w
        if r < acc:
            return state.space.decode(ordinal)
    return state.space.decode(ordinals[-1])
