"""Exact real-amplitude state-vector simulation of query algorithms.

A basis state is |workspace, index, output>: a fixed-width workspace
bitstring (holding, among other things, the query-answer field), a query
index register, and a one-bit accept register (output 2 means accept).
Between queries an algorithm applies input-independent orthogonal layers
over Q(sqrt(2)); a query rewrites every basis state at once according to
the oracle semantics:

  standard  |w, i, z> -> |w XOR enc(value_i), i, z>   (answer field XOR)
  erasing   |w, i, z> -> |w, value_i, z>              (index replaced)

A StateVector holds its amplitudes exactly, in qsqrt2's integer form:
integers (A, B) over one denominator d, each amplitude (A + B sqrt 2) / d.
A layer multiplies them by its Layer.int_cols() over D and keeps the
result over d * D, unreduced; a query re-keys them.  So a state's d is
its initial int_form denominator times the D of every layer applied
since.  A sum of squares is one integer sum over d^2, and the norm and
[0, 1] checks compare those integers.  A QSqrt2 is built only where a
caller reads an amplitude or a sum, and a float only where a caller asks
for one: QSqrt2.float_over of the exact integers, converted once.

A Layer stores its entries once, in that integer form: the arrays of
LayerArrays, from which its int_cols() and cols lists are read.  The
layer kernels (the orthogonality check and the layer product) run on
those arrays: int64 while every sum provably fits, Python ints (dtype
object) past that, so either way they are exact.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .instances import KIND_REGISTERS, ConfigError, Instance, _json_string, json_field
from .qsqrt2 import ONE, QSqrt2, ZERO, int_form, parse_fraction, sign

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


class LayerArrays(NamedTuple):
    """A layer's entries, the one form a Layer stores, as flat numpy
    arrays column after column: column j holds the entries starts[j] ..
    starts[j] + lengths[j] - 1, entry e being (a[e] + b[e] sqrt 2) / D in
    row rows[e].  a and b are int64 if every entry fits, else Python
    ints; big is the largest absolute value among them (0 if none)."""

    D: int
    lengths: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    a: np.ndarray
    b: np.ndarray
    big: int


def _largest(*arrays) -> int:
    """Largest absolute value in integer arrays; 0 if all are empty."""
    return max((int(np.abs(x).max()) for x in arrays if len(x)), default=0)


def _int64_or_object(bound: int):
    """int64 if it holds every integer of absolute value up to bound,
    else object: Python ints, exact at any size."""
    return np.int64 if bound <= np.iinfo(np.int64).max else object


def _stable_order(keys: np.ndarray):
    """(order, keys[order]) for order = np.argsort(keys, kind="stable").
    Nonnegative int64 keys small enough to carry their position in the
    low bits are sorted as key * 2^s + position: those are distinct, so
    numpy's fastest sort, stable or not, puts equal keys in position
    order.  Other keys take the stable argsort."""
    s = len(keys).bit_length()
    if keys.dtype == np.int64 and len(keys) and keys.min() >= 0 and keys.max() < 1 << (62 - s):
        packed = np.sort((keys << s) | np.arange(len(keys)))
        return packed & ((1 << s) - 1), packed >> s
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _summed(keys: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(keys, sums of a, sums of b), one entry per distinct key whose
    sums are not both zero, keys ascending: the one per-key sum of the
    exact kernels.  Empty input gives empty output."""
    order, ordered = _stable_order(keys)
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    sum_a, sum_b = np.add.reduceat(a[order], starts), np.add.reduceat(b[order], starts)
    keep = (sum_a != 0) | (sum_b != 0)
    if not keep.all():  # copy only when a sum cancels
        starts, sum_a, sum_b = starts[keep], sum_a[keep], sum_b[keep]
    return ordered[starts], sum_a, sum_b


def _folded(blocks, budget: int):
    """_summed of the concatenated (keys, a, b) blocks, block by block:
    the block sums are summed again once they outgrow the sums folded so
    far and budget, so they hold about twice the result at most.  A lone
    block's sum is returned as it is; no block gives empty int64 arrays."""
    parts, held, folded = [], 0, 0
    for block in blocks:
        parts.append(_summed(*block))
        held += len(parts[-1][0])
        if len(parts) > 1 and held - folded > max(budget, folded):
            parts = [_summed(*map(np.concatenate, zip(*parts)))]
            held = folded = len(parts[0][0])
    if len(parts) == 1:
        return parts[0]
    return _summed(*map(np.concatenate, zip(*parts))) if parts else np.zeros((3, 0), dtype=np.int64)


def _products(k: np.ndarray, a: np.ndarray, b: np.ndarray, layer: LayerArrays, big: int):
    """(item, row, A, B) for every meeting of item i, the value (a[i] +
    b[i] sqrt 2) in row k[i], with an entry of the layer's column k[i]:
    the entry's row and the product (A + B sqrt 2), item by item, then
    entry by entry in column order.  big bounds |a| and |b| over a whole
    layer step, so its blocks share one type: A and B are int64 if a sum
    of dim products, at most 3 dim big layer.big, fits, else Python ints."""
    reps = layer.lengths[k]
    item = np.repeat(np.arange(len(k)), reps)
    entry = np.arange(len(item)) + np.repeat(layer.starts[k] - (np.cumsum(reps) - reps), reps)
    num = _int64_or_object(3 * len(layer.lengths) * big * layer.big)
    a, b = a.astype(num, copy=False)[item], b.astype(num, copy=False)[item]
    ea, eb = layer.a.astype(num, copy=False)[entry], layer.b.astype(num, copy=False)[entry]
    return item, layer.rows[entry], a * ea + 2 * b * eb, a * eb + b * ea


class Layer:
    """Orthogonal matrix over Q(sqrt(2)), stored as sparse columns.

    The constructor takes cols[j], the (row, entry) pairs of column j,
    each row 0..dim-1 at most once, and keeps them only in qsqrt2's
    integer form, int_arrays(): one denominator D shared by the whole
    layer and each entry as (A + B sqrt(2)) / D, so sums of products need
    no per-step normalization.  int_cols() is a list read once from those arrays; cols
    reads the QSqrt2 entries back from them.
    Orthogonality (U^T U = I) is checked exactly on demand; algorithm
    construction rejects non-orthogonal layers.
    """

    __slots__ = ("dim", "_int_arrays", "_int_cols")

    def __init__(self, dim: int, cols: list[list[tuple[int, QSqrt2]]]):
        if len(cols) != dim:
            raise ValueError("column count must equal dim")
        D, pairs = int_form(v for col in cols for _, v in col)
        lengths = np.fromiter(map(len, cols), dtype=np.int64, count=dim)
        rows = np.fromiter((r for col in cols for r, _ in col), dtype=np.int64, count=len(pairs))
        if len(rows) and (rows.min() < 0 or rows.max() >= dim):
            e = int(np.flatnonzero((rows < 0) | (rows >= dim))[0])
            c = int(np.searchsorted(np.cumsum(lengths), e, side="right"))
            raise ValueError(f"column {c}: row {rows[e]} out of range 0..{dim - 1}")
        cells = np.sort(np.repeat(np.arange(dim, dtype=np.int64), lengths) * dim + rows)
        if len(twice := np.flatnonzero(cells[1:] == cells[:-1])):
            c, r = divmod(int(cells[twice[0]]), dim)
            raise ValueError(f"column {c}: row {r} given twice")
        try:
            ab = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        except OverflowError:  # an entry outgrows int64
            ab = np.array(pairs, dtype=object).reshape(-1)
        a, b = ab[0::2].copy(), ab[1::2].copy()
        self._keep(dim, LayerArrays(D, lengths, np.cumsum(lengths) - lengths, rows, a, b, _largest(a, b)))

    def _keep(self, dim: int, arrays: LayerArrays):
        self.dim = dim
        self._int_arrays = arrays
        self._int_cols = None

    @staticmethod
    def identity(dim: int) -> "Layer":
        return Layer(dim, [[(j, ONE)] for j in range(dim)])

    def _columns(self, flat: list) -> list[list]:
        """flat, one item per entry in column order, cut into columns."""
        _, lengths, starts = self._int_arrays[:3]
        return [flat[s:s + n] for s, n in zip(starts.tolist(), lengths.tolist())]

    @property
    def cols(self) -> list[list[tuple[int, QSqrt2]]]:
        """The (row, QSqrt2) pairs of each column, in the order given,
        built from int_arrays() on each read; equal entries share one
        QSqrt2."""
        D, _, _, rows, a, b, _ = self._int_arrays
        pairs = list(zip(a.tolist(), b.tolist()))
        value = {pair: QSqrt2.over(*pair, D) for pair in set(pairs)}
        return self._columns(list(zip(rows.tolist(), map(value.__getitem__, pairs))))

    def int_cols(self) -> tuple[int, list[list[tuple[int, int, int]]]]:
        """int_arrays() as lists: (D, cols) with cols[j] listing (row, A, B),
        entry (A + B sqrt 2) / D."""
        if self._int_cols is None:
            D, _, _, rows, a, b, _ = self._int_arrays
            self._int_cols = (D, self._columns(list(zip(rows.tolist(), a.tolist(), b.tolist()))))
        return self._int_cols

    def int_arrays(self) -> LayerArrays:
        """The layer's entries as the integer arrays it stores, shared by
        every kernel that reads the layer."""
        return self._int_arrays

    def is_orthogonal(self) -> bool:
        """Exact check that columns are orthonormal.

        Builds M^T M for the integer matrix M = D U from the rows of M:
        each row adds the products of every pair of its nonzeros, keyed
        i * dim + j for its columns i <= j.  Rows of one length share one
        triu_indices table, and at most _GRAM_CHUNK pairs (or one row)
        are multiplied out at once; _folded sums them per key, block by
        block, and keeps the nonzero sums.  U is orthogonal iff those are
        exactly the dim diagonal keys, each D^2 with no sqrt(2) part.
        """
        D, lengths, _, rows, a, b, big = self.int_arrays()
        dim = self.dim
        d2 = D * D
        # A Gram entry sums at most dim products of absolute value <= 3 big^2.
        num = _int64_or_object(max(3 * dim * big ** 2, d2))
        order = _stable_order(rows)[0]  # columns stay ascending in a row
        col = np.repeat(np.arange(dim, dtype=np.int64), lengths)[order]
        a, b = a.astype(num, copy=False)[order], b.astype(num, copy=False)[order]
        per_row = np.bincount(rows, minlength=dim)
        row_start = np.cumsum(per_row) - per_row

        def blocks():
            for length in sorted(set(per_row.tolist()) - {0}):
                p, q = np.triu_indices(length)
                starts = row_start[per_row == length, None]
                step = max(1, _GRAM_CHUNK // len(p))
                for s in range(0, len(starts), step):
                    ip, iq = (starts[s:s + step] + p).ravel(), (starts[s:s + step] + q).ravel()
                    a_ip, b_ip, a_iq, b_iq = a[ip], b[ip], a[iq], b[iq]
                    yield col[ip] * dim + col[iq], a_ip * a_iq + 2 * b_ip * b_iq, a_ip * b_iq + b_ip * a_iq

        keys, sum_a, sum_b = _folded(blocks(), _GRAM_CHUNK)
        return (
            len(keys) == dim
            and bool(np.all(keys // dim == keys % dim))
            and bool(np.all(sum_a == d2))
            and not np.any(sum_b != 0)
        )

    def compose(self, inner: "Layer") -> "Layer":
        """self @ inner: the layer that applies inner first, then self.

        Each entry (k, a, b) of column c of inner meets every entry of
        column k of self (_products); the products are summed per key
        c * dim + row as integers over D = d_outer * d_inner, keys
        ascending, so each column's rows ascend.  The composed layer keeps
        the nonzero sums, reduced to the least common denominator (the
        form int_form derives from the entries), as its int_arrays().
        """
        if self.dim != inner.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        outer = self.int_arrays()
        inner_arrays = inner.int_arrays()
        e, row, A, B = _products(inner_arrays.rows, inner_arrays.a, inner_arrays.b, outer, inner_arrays.big)
        c = np.repeat(np.arange(dim, dtype=np.int64), inner_arrays.lengths)[e]
        keys, a, b = _summed(c * dim + row, A, B)
        col, rows = np.divmod(keys, dim)
        D = outer.D * inner_arrays.D
        common = math.gcd(D, *a.tolist(), *b.tolist())
        if common > 1:
            D //= common
            if len(a):  # common then divides an entry, so it fits a's type
                a, b = a // common, b // common
        big = _largest(a, b)
        small = _int64_or_object(big)
        a, b = a.astype(small, copy=False), b.astype(small, copy=False)
        lengths = np.bincount(col, minlength=dim)
        layer = Layer.__new__(Layer)
        layer._keep(dim, LayerArrays(D, lengths, np.cumsum(lengths) - lengths, rows, a, b, big))
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
        triples, and an entry that parses to zero is dropped.  Entries of
        one text share one QSqrt2 (None for zero), so int_form converts
        each text once."""
        if isinstance(doc, dict):
            dim = json_field(doc, "dim")
            entries = _sparse_entries(dim, json_field(doc, "cols", list))
        else:
            dim = len(doc)
            entries = _dense_entries(doc)
        cols: list[list[tuple[int, QSqrt2]]] = [[] for _ in range(dim)]
        parsed: dict[tuple, QSqrt2 | None] = {}
        for r, c, pair in entries:
            if len(pair) != 2:
                raise ValueError(f"expected [a, b] entry, got {pair!r}")
            text = tuple(pair)
            try:
                v = parsed[text]
            except KeyError:
                v = QSqrt2(parse_fraction(pair[0]), parse_fraction(pair[1]))
                v = parsed[text] = None if v.is_zero() else v
            if v is not None:
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


class StateVector(Mapping):
    """Sparse vector of exact amplitudes over a StateSpace, read-only.

    entries[ordinal] = (A, B) holds the amplitude (A + B sqrt 2) / d, in
    the order the ordinals were reached.  d is the state's canonical
    denominator, not reduced: the int_form denominator of the amplitudes
    the state was built from, times the D of every layer applied since.
    As a Mapping the state reads ordinal -> QSqrt2, building each
    amplitude when read; the kernels and checks read d and entries.  The
    entries cannot change, so the squared norm is summed once, when
    first asked for, and kept, as is the table sample_measurement draws
    from.
    """

    __slots__ = ("space", "d", "entries", "_norm", "_draws")

    def __init__(self, space: StateSpace, amplitudes: Mapping | None = None):
        """The state of amplitudes, a mapping ordinal -> QSqrt2, converted
        once to its int_form."""
        amplitudes = amplitudes if amplitudes is not None else {}
        d, pairs = int_form(amplitudes.values())
        self.space, self.d, self.entries = space, d, dict(zip(amplitudes, pairs))
        self._norm = self._draws = None

    @staticmethod
    def _exact(space: StateSpace, d: int, entries: dict[int, tuple[int, int]]) -> "StateVector":
        """The state holding entries over d as they are."""
        state = StateVector.__new__(StateVector)
        state.space, state.d, state.entries = space, d, entries
        state._norm = state._draws = None
        return state

    @staticmethod
    def from_basis_state(space: StateSpace, state: BasisState) -> "StateVector":
        return StateVector._exact(space, 1, {space.encode(state): (1, 0)})

    def __getitem__(self, ordinal) -> QSqrt2:
        A, B = self.entries[ordinal]
        return QSqrt2.over(A, B, self.d)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self):
        return f"StateVector({dict(self.items())!r})"

    def amplitude(self, state: BasisState) -> QSqrt2:
        return self.get(self.space.encode(state), ZERO)

    def square_sum(self, keep=None) -> tuple[int, int, int]:
        """(A, B, D): the squared amplitudes whose ordinal keep accepts
        (all if keep is None) sum to (A + B sqrt 2) / D, one integer sum
        over D = d^2 > 0, since (A + B sqrt 2)^2 = A^2 + 2 B^2 + 2 A B sqrt 2."""
        if keep is None and self._norm is not None:
            return self._norm
        pairs = self.entries.values() if keep is None else (
            pair for k, pair in self.entries.items() if keep(k)
        )
        ra = rb = 0
        for A, B in pairs:
            ra += A * A + 2 * B * B
            rb += A * B
        total = (ra, 2 * rb, self.d * self.d)
        if keep is None:
            self._norm = total
        return total

    def weight(self, keep=None) -> QSqrt2:
        """Total squared amplitude on the ordinals keep accepts (all if None)."""
        return QSqrt2.over(*self.square_sum(keep))

    def squared_norm(self) -> QSqrt2:
        return self.weight()


def _exact_layer(state: StateVector, layer: Layer) -> StateVector:
    """Layer product on integers: the state's integers over d times the
    layer's int_cols() over D, zero sums dropped, kept over d * D.  Entry
    j, a1 + b1 sqrt 2, meets each (row, a2, b2) of column j."""
    D, cols = layer.int_cols()
    acc: dict[int, list[int]] = {}
    for j, (a1, b1) in state.entries.items():
        for row, a2, b2 in cols[j]:
            cur = acc.get(row)
            if cur is None:
                acc[row] = [a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2]
            else:
                cur[0] += a1 * a2 + 2 * b1 * b2
                cur[1] += a1 * b2 + b1 * a2
    return StateVector._exact(state.space, state.d * D, {row: (x, y) for row, (x, y) in acc.items() if x or y})


def _exact_rekey(state: StateVector, keys: list[int]) -> StateVector:
    """The i-th entry moved to keys[i], over the same d."""
    return StateVector._exact(state.space, state.d, dict(zip(keys, state.entries.values())))


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


def float_probability(s: tuple[int, int, int]) -> float:
    """An exact probability (A + B sqrt 2) / D, already checked to lie in
    [0, 1], as a double: QSqrt2.float_over, clipped to [0.0, 1.0], past
    whose ends its rounding may step."""
    return min(max(QSqrt2.float_over(*s), 0.0), 1.0)


def _accepting(ordinal: int) -> int:
    """The output bit of a basis ordinal: 1 on output = 2 states."""
    return ordinal & 1


def _check_norm_preserved(before: StateVector, after: StateVector, what: str):
    if not _exact_same(before.square_sum(), after.square_sum()):
        raise AssertionError(
            f"{what} changed the squared norm from {before.squared_norm()!r} "
            f"to {after.squared_norm()!r}"
        )


def apply_unitary(state: StateVector, layer: Layer) -> StateVector:
    """Apply one input-independent orthogonal layer."""
    if layer.dim != state.space.dim:
        raise ValueError("layer dimension does not match state space")
    result = _exact_layer(state, layer)
    _check_norm_preserved(state, result, "unitary layer")
    return result


def apply_standard_query(state: StateVector, inst: Instance) -> StateVector:
    """XOR the queried value's encoding into the answer field of every
    basis state.  A bijection on basis states, so norm is untouched."""
    space, row = state.space, inst.row
    if space.index_size != len(row):
        raise ValueError("instance does not match the state space index register")
    masks = [space.encode_answer(v) * space.index_size * 2 for v in row]
    keys = [ordinal ^ masks[(ordinal >> 1) % space.index_size] for ordinal in state.entries]
    result = _exact_rekey(state, keys)
    _check_norm_preserved(state, result, "standard query")
    return result


def erasing_space(inst: Instance, workspace_bits: int = 0) -> StateSpace:
    """State space whose index register holds erasing-oracle outputs: one
    block of the alphabet per register, {1..n} for collision inputs and
    {0,1} x {1..2n} (size 4n) for pairs."""
    size = len(inst.registers) * len(inst.row)
    return StateSpace(index_size=size, workspace_bits=workspace_bits)


def apply_erasing_query(state: StateVector, inst: Instance) -> StateVector:
    """Replace the index register content by the queried value.

    Query address b*2n + i goes to b*2n + v_i, with v the b-th register
    (x, then y), in blocks as wide as the alphabet; collision inputs have
    b = 0 only.  Defined only on basis states whose index is a query
    address, and only for injective inputs, which make it an
    inner-product-preserving basis map.
    """
    seqs = inst.registers
    if any(len(set(seq)) != inst.n for seq in seqs):
        raise ConfigError("erasing oracle undefined for non-injective input")
    block = len(inst.row)
    targets = {
        b * block + i: b * block + v
        for b, seq in enumerate(seqs)
        for i, v in enumerate(seq, start=1)
    }
    space = state.space
    if space.index_size != erasing_space(inst).index_size:
        raise ValueError("state space does not match the erasing-oracle layout")
    keys = []
    for ordinal in state.entries:
        idx = (ordinal >> 1) % space.index_size + 1
        new_idx = targets.get(idx)
        if new_idx is None:
            raise ValueError(
                f"erasing query applied to a state outside the query domain (index {idx})"
            )
        keys.append(ordinal + (new_idx - idx) * 2)
    result = _exact_rekey(state, keys)
    if len(result) != len(state):
        raise AssertionError("erasing map collided; input claimed injective")
    _check_norm_preserved(state, result, "erasing query")
    return result


@dataclass
class QueryAlgorithm:
    """A T-query algorithm: layers U_0 .. U_T with a query between each.

    kind names the expected instance kind; the index register enumerates
    its query addresses, as many as its alphabet has values (n for
    collision, 2n for set-comparison pairs).  The workspace layout,
    answer-field placement and initial basis state are explicit metadata
    since no canonical choice exists.
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
        if self.kind not in KIND_REGISTERS:
            raise ValueError("kind must be 'collision' or 'setcomp'")
        if self.oracle_kind not in ("standard", "erasing"):
            raise ValueError("oracle_kind must be 'standard' or 'erasing'")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if len(self.layers) != self.T + 1:
            raise ValueError(f"need exactly T+1 = {self.T + 1} layers")
        if self.oracle_kind == "standard" and self.space.index_size != self.alphabet_size:
            raise ValueError("index register must enumerate the query addresses")
        if self.initial is None:
            self.initial = BasisState(workspace=0, index=1, output=1)
        self.space.encode(self.initial)  # range check
        for t, layer in enumerate(self.layers):
            if layer.dim != self.space.dim:
                raise ValueError(f"layer {t} dimension mismatch")
            if not layer.is_orthogonal():
                raise ValueError(f"layer {t} is not orthogonal")
        # A standard query writes the values 1..alphabet into the answer
        # field; a circuit that never queries writes none.
        if self.oracle_kind == "standard" and self.T and self.alphabet_size >> self.space.answer_bits:
            raise ValueError(
                f"answer_bits = {self.space.answer_bits} cannot hold the alphabet "
                f"1..{self.alphabet_size}"
            )

    @property
    def alphabet_size(self) -> int:
        return len(KIND_REGISTERS[self.kind]) * self.n

    def check_instance(self, inst: Instance):
        if inst.kind != self.kind or inst.n != self.n:
            raise ConfigError("instance incompatible with algorithm")

    def run(self, inst: Instance) -> StateVector:
        """Apply U_0, then (query, U_t) for t = 1..T; returns the final state."""
        self.check_instance(inst)
        query = (
            apply_standard_query if self.oracle_kind == "standard" else apply_erasing_query
        )
        start = StateVector.from_basis_state(self.space, self.initial)
        state = apply_unitary(start, self.layers[0])
        for t in range(1, self.T + 1):
            state = query(state, inst)
            state = apply_unitary(state, self.layers[t])
        if not _exact_same(state.square_sum(), start.square_sum()):  # a basis state has squared norm one
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
            name=json_field(doc, "name", _json_string) if "name" in doc else "unnamed",
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


def final_acceptance(state: StateVector, mode: str = "exact"):
    """Probability of measuring output 2 in a final state, checked
    exactly to lie in [0, 1].  Exact mode returns it as a QSqrt2; float
    mode returns float_probability of the same exact sum."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    s = state.square_sum(_accepting)
    p = _exact_probability(s)
    return p if mode == "exact" else float_probability(s)


def acceptance_probability(alg: QueryAlgorithm, inst: Instance, mode: str = "exact"):
    """final_acceptance of the state the full circuit leaves on inst."""
    return final_acceptance(alg.run(inst), mode)


def _first_past(cumulative: list[float], r: float) -> int:
    """The first index whose running sum in cumulative exceeds r, or the
    last index if none does (r rounded up to the total)."""
    return min(bisect_right(cumulative, r), len(cumulative) - 1)


def sample_measurement(state: StateVector, rng: random.Random) -> BasisState:
    """Draw one basis state with probability equal to its squared
    amplitude, each weight QSqrt2.float_over of the entry's exact square
    (A^2 + 2 B^2 + 2 A B sqrt 2) / d^2, read from its integers.  The state
    must be normalized exactly: its integer squared norm is compared with 1.
    The weights, their running sums and their total are built on the
    first draw from a state and kept with it, so a shot is one search."""
    if state._draws is None:
        if not _exact_same(state.square_sum(), (1, 0, 1)):
            raise ValueError(f"state is not normalized (squared norm {state.squared_norm()!r})")
        d2 = state.d ** 2
        weights = [
            QSqrt2.float_over(A * A + 2 * B * B, 2 * A * B, d2) for A, B in state.entries.values()
        ]
        state._draws = (list(state.entries), list(itertools.accumulate(weights)), sum(weights))
    ordinals, cumulative, total = state._draws
    return state.space.decode(ordinals[_first_past(cumulative, rng.random() * total)])
