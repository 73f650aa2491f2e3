"""Oracle inputs and the structured distributions they are drawn from.

Collision inputs are sequences x_1..x_n over {1..n}; set-comparison
inputs are pairs (X, Y) of length-n sequences over {1..2n}.  The
structured families are indexed by lattice parameter points: (g, N) for
collision inputs (prefixes of g-to-1 functions), and (g, N, M) for
set-comparison inputs (prefixes of kappa(g)-to-1 functions into random
subsets).  Both are one construction: a point's arity names its family,
and one shape per point drives the sampler, the closed-form count and the
enumerator.  A latent draw, the hidden choice behind an input, is one
record for both families, Latent(s, ranges, seqs).  The sampler keeps
it so tests can check the construction white-box, and the enumerator
streams every latent draw in a deterministic order for brute-force
expectations.  sample_collision_input is an alias of sample_input.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

DEFAULT_ENUM_CAP = 10_000_000


class EnumerationTooLarge(RuntimeError):
    """Raised when a brute-force enumeration exceeds the configured cap."""


class ConfigError(ValueError):
    """A well-formed request whose parameters are semantically invalid,
    such as an inadmissible lattice point or a malformed setting."""


def enumeration_cap(cap: int | None = None) -> int:
    """The cap itself, else the default: the argument is the one way to
    set it, so a report follows from its config.  A cap of 0 admits no
    enumeration; a negative one is a ConfigError."""
    if cap is None:
        return DEFAULT_ENUM_CAP
    if cap < 0:
        raise ConfigError(f"enumeration cap must be >= 0, got {cap}")
    return cap


def _json_integer(value) -> int:
    """A JSON integer as is; a float, string or bool is the wrong type."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_string(value) -> str:
    """A JSON string as is; any other value is the wrong type."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_field(doc, key: str, convert=_json_integer):
    """convert(doc[key]) for a file reader: a missing key, or a value that
    convert rejects, is a ValueError that names the field."""
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"missing field {key!r}") from None
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


# ---------------------------------------------------------------------------
# instance data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Latent:
    """The hidden random choice behind an input: the range set S, each
    register's drawn range, and each register's full k-to-1 sequence.
    A (g, N) draw has ranges () and seqs (xhat,); a (g, N, M) draw has
    ranges (S_X, S_Y) and seqs (xhat, yhat)."""

    s: tuple[int, ...]
    ranges: tuple[tuple[int, ...], ...]
    seqs: tuple[tuple[int, ...], ...]


# The one register layout: a kind's input is one length-n sequence per
# register, over an alphabet of len(registers) * n values, and its query
# addresses 1..len(registers) * n read the registers in turn.
KIND_REGISTERS = {"collision": ("x",), "setcomp": ("x", "y")}


@dataclass(frozen=True)
class Instance:
    """One concrete oracle input.

    kind "collision": x over {1..n}.  kind "setcomp": x and y over
    {1..2n}.  Injectivity of set-comparison sequences is a promise of the
    decision problem, not a structural invariant: the sampled families
    deliberately break it for g > 2, so it is enforced where it matters
    (erasing-oracle queries) and checkable via validate_instance.
    """

    kind: str
    n: int
    x: tuple[int, ...]
    y: Optional[tuple[int, ...]] = None
    latent: Optional[Latent] = None

    def __post_init__(self):
        names = KIND_REGISTERS.get(self.kind)
        if names is None:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        top = len(names) * self.n  # the alphabet
        for name, seq in zip(names, (self.x, self.y)):
            if seq is None or len(seq) != self.n:
                raise ValueError(f"{self.kind} instance needs {name} of length n")
            if any(not 1 <= v <= top for v in seq):
                raise ValueError(f"{name} values must lie in 1..{top}")
        if "y" not in names and self.y is not None:
            raise ValueError("collision instance must not carry y")
        if self.latent is not None:
            registers = self.registers
            ranges, seqs = self.latent.ranges, self.latent.seqs
            if (len(ranges), len(seqs)) != (2 * len(registers) - 2, len(registers)):
                raise ValueError(
                    f"latent does not fit a {self.kind} input: "
                    f"it has {len(ranges)} ranges and {len(seqs)} sequences"
                )
            if any(tuple(seq[:self.n]) != tuple(reg) for seq, reg in zip(seqs, registers)):
                raise ValueError("latent sequences must begin with the input's x (and y)")
            _check_draw(self.latent)

    @property
    def registers(self) -> tuple[tuple[int, ...], ...]:
        """The input's sequences, one per register of its kind: (x,) or (x, y)."""
        return tuple(getattr(self, name) for name in KIND_REGISTERS[self.kind])

    @property
    def row(self) -> tuple[int, ...]:
        """The value at every query address 1..len(row): x, then y.  This
        is the layout of a draw-table row (sample_rows, enumerate_rows)."""
        return tuple(itertools.chain.from_iterable(self.registers))

    @staticmethod
    def from_row(row, n: int) -> "Instance":
        """The input whose query addresses hold row, the inverse of
        Instance.row: a row of n values is a collision input, one of 2n a
        set-comparison pair.  Any other width is a ValueError."""
        values = np.asarray(row).tolist()
        for kind, names in KIND_REGISTERS.items():
            if len(values) == len(names) * n:
                return Instance(kind, n, *(tuple(values[k * n:(k + 1) * n]) for k in range(len(names))))
        raise ValueError(f"a row of {len(values)} values is no input of length n={n}: need n or 2n")

    def to_json(self) -> dict:
        names = KIND_REGISTERS[self.kind]
        doc = {"kind": self.kind, "n": self.n, **{k: list(seq) for k, seq in zip(names, self.registers)}}
        if self.latent is not None:
            doc["latent"] = {
                "S": list(self.latent.s),
                **{k: list(r) for k, r in zip(_RANGE_KEYS, self.latent.ranges)},
                **{k: list(seq) for k, seq in zip(_SEQ_KEYS, self.latent.seqs)},
            }
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Instance":
        return Instance(
            kind=json_field(doc, "kind", str),
            n=json_field(doc, "n"),
            x=json_field(doc, "x", _ints),
            y=json_field(doc, "y", _ints) if "y" in doc else None,
            latent=None if doc.get("latent") is None else json_field(doc, "latent", _latent),
        )

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            return Instance.from_json(json.load(fh))


def _check_draw(latent: Latent) -> None:
    """Check that a latent draw could come from its family: every drawn
    range lies in S, and every sequence holds each value of its range (S
    when no range is drawn) equally often, and no other value."""
    s = set(latent.s)
    for key, r in zip(_RANGE_KEYS, latent.ranges):
        if not set(r) <= s:
            raise ValueError(f"latent {key} must lie in S")
    names = _RANGE_KEYS if latent.ranges else ("S",)
    for key, seq, name, r in zip(_SEQ_KEYS, latent.seqs, names, latent.ranges or (latent.s,)):
        counts: dict[int, int] = dict.fromkeys(r, 0)
        for v in seq:
            if v not in counts:
                raise ValueError(f"latent {key} takes the value {v}, which is not in {name}")
            counts[v] += 1
        if len(set(counts.values())) > 1:
            raise ValueError(f"latent {key} must hold each value of {name} equally often")


def _ints(values) -> tuple[int, ...]:
    return tuple(map(_json_integer, values))


_RANGE_KEYS = ("S_X", "S_Y")  # instance-file keys of a latent draw's ranges
_SEQ_KEYS = ("xhat", "yhat")  # and of its sequences


def _latent(raw) -> Latent:
    """The latent draw of an instance file: S and xhat, then whichever of
    S_X, S_Y and yhat it holds; Instance checks that they fit the input."""
    present = lambda keys: tuple(json_field(raw, k, _ints) for k in keys if k in raw)
    return Latent(
        json_field(raw, "S", _ints),
        present(_RANGE_KEYS),
        (json_field(raw, "xhat", _ints), *present(_SEQ_KEYS[1:])),
    )


def is_k_to_one(values, k: int) -> bool:
    """True iff every value that appears does so exactly k times."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return all(c == k for c in counts.values())


def validate_instance(inst: Instance, k: int) -> bool:
    """Check the k-to-one promise on the instance sequences."""
    return all(is_k_to_one(seq, k) for seq in inst.registers)


def set_union_size(inst: Instance) -> int:
    if inst.kind != "setcomp":
        raise ConfigError("set_union_size needs a setcomp instance")
    return len(set(inst.x) | set(inst.y))


# ---------------------------------------------------------------------------
# lattice parameter grids
# ---------------------------------------------------------------------------


def kappa(g: int) -> int:
    """Input multiplicity 4g^2 - 12g + 9 for the set-comparison family.

    Equals 1 at g = 1 and g = 2, so both endpoint families are one-to-one,
    and grows quadratically beyond.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    return 4 * g * g - 12 * g + 9


WINDOW_DENOM = 10  # collision-side window width n/(10 T)
WINDOW_DENOM3 = 100  # set-comparison window width n/(100 T)


class QuasilatticePoint(NamedTuple):
    g: int
    N: int


class SuperQuasilatticePoint(NamedTuple):
    g: int
    N: int
    M: int


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, exact at any size, where a float root
    can be off by more than one; set bit by bit from the top."""
    root = 0
    for bit in reversed(range(n.bit_length() // k + 1)):
        if (root | 1 << bit) ** k <= n:
            root |= 1 << bit
    return root


def _window_top(n: int, T: int, G: int, slack: int, root: int) -> int:
    """Check a grid request whose g must satisfy g^root <= n, and return
    the top n + n/(slack*T) of its N (and M) window."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got n={n}")
    if T < 1:
        raise ConfigError("T must be >= 1")
    if slack < 1:
        raise ConfigError(f"slack must be >= 1, got slack={slack}")
    if G < 1:
        raise ConfigError(f"G must be >= 1, got G={G}")
    largest = _iroot(max(n, 0), root)
    if G > largest:
        bound = "sqrt(n)" if root == 2 else f"n^(1/{root})"
        raise ConfigError(
            f"g out of range: n={n} admits no G >= {largest + 1}; "
            f"the largest admissible G is {largest} (G <= {bound})"
        )
    return n + n // (slack * T)  # floor: N is an integer


def _grid(n: int, G: int, n_top, m_top: int | None = None) -> list:
    """Every (g, N) with 1 <= g <= G and N a multiple of g in
    [n, n_top(g)], pinned to n at g = 1; given m_top, every (g, N, M)
    with also M a multiple of kappa(g) in [n, m_top], pinned to n at
    g = 2.  The loops ascend, so the points come out sorted."""
    points: list = []
    for g in range(1, G + 1):
        top = min(n, n_top(g)) if g == 1 else n_top(g)
        n_values = range(n + (-n) % g, top + 1, g)
        if m_top is None:
            points += (QuasilatticePoint(g, N) for N in n_values)
            continue
        k = kappa(g)
        m_values = [n] if g == 2 else range(n + (-n) % k, m_top + 1, k)
        points += (SuperQuasilatticePoint(g, N, M) for N in n_values for M in m_values)
    return points


def quasilattice_points(
    n: int, T: int, G: int, slack: int = WINDOW_DENOM
) -> list[QuasilatticePoint]:
    """All admissible (g, N) with g <= G, sorted by (g, N).

    slack is the denominator constant in the window width n/(slack*T);
    larger slack shrinks the window and tightens the prefactor bound.
    """
    if n % 2 != 0:
        raise ConfigError("n must be even")
    top = _window_top(n, T, G, slack, 2)
    return _grid(n, G, lambda g: top)


def super_quasilattice_points(
    n: int, T: int, G: int, slack: int = WINDOW_DENOM3
) -> list[SuperQuasilatticePoint]:
    """All admissible (g, N, M) with g <= G, sorted by (g, N, M)."""
    top = _window_top(n, T, G, slack, 3)
    return _grid(n, G, lambda g: top, top)


def divisor_points(n: int, max_N: int) -> list[QuasilatticePoint]:
    """All (g, N) with 1 <= g <= sqrt(n), g | N, n <= N <= max_N and
    N/g <= n, N pinned to n at g = 1: the grid swept by the expectation
    oracles when no query budget pins the window.  Empty when max_N < n."""
    return _grid(n, math.isqrt(max(n, 0)), lambda g: min(max_N, g * n))


# ---------------------------------------------------------------------------
# latent draws: one shape per family point
# ---------------------------------------------------------------------------


class _Shape(NamedTuple):
    """What the two input families differ in, at one point and length n.

    A draw picks S, a uniform s_size-subset of {1..universe}; then each
    register's range, S itself or (set comparison) a uniform sub-subset
    of S drawn per register; then each register's sequence, a uniform
    k-to-1 function from {1..length} onto its range.  The input keeps
    the first n entries of every sequence.
    """

    universe: int  # n, or 2n
    s_size: int  # N/g, or 2N/g
    registers: int  # 1 (x), or 2 (x and y)
    ranges: int  # registers whose range is drawn inside S: 0, or 2
    sub: int  # size of a drawn range: M/kappa(g)
    k: int  # g, or kappa(g)
    length: int  # N, or M


_POINT_TYPES = {2: QuasilatticePoint, 3: SuperQuasilatticePoint}


def _shape(point, n: int) -> _Shape:
    """Validate a family point, (g, N) or (g, N, M), for inputs of length
    n and return its shape; a plain sequence is read as the point type of
    its arity.  Every rejection is a ConfigError."""
    point_type = _POINT_TYPES.get(len(point))
    if point_type is None:
        raise ConfigError(f"a family point is (g, N) or (g, N, M), got {tuple(point)}")
    if type(point) is not point_type:
        point = point_type(*point)
    g, N = point.g, point.N
    if g < 1:
        raise ConfigError(f"invalid point {point} for n={n}: g must be >= 1")
    if point_type is QuasilatticePoint:
        shape = _Shape(n, N // g, 1, 0, N // g, g, N)
    else:
        k = kappa(g)
        shape = _Shape(2 * n, 2 * N // g, 2, 2, point.M // k, k, point.M)
    if (
        N % g
        or shape.length % shape.k
        or shape.s_size > shape.universe
        or shape.sub > shape.s_size
        or shape.length < n
    ):
        raise ConfigError(f"invalid point {point} for n={n}")
    return shape


def instance_from_latent(latent: Latent, n: int) -> Instance:
    """The input of a latent draw: the first n entries of each sequence."""
    kind = "setcomp" if latent.ranges else "collision"
    return Instance(kind, n, *(seq[:n] for seq in latent.seqs), latent=latent)


def _uniform_k_to_one(domain_size: int, values, k: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform k-to-1 sequence of the given length onto the given values.

    A uniform shuffle of the multiset (each value k times) hits every
    distinct k-to-1 function with equal probability.
    """
    pool = [v for v in values for _ in range(k)]
    if len(pool) != domain_size:
        raise ValueError(
            f"{len(pool)} values {k} times each cannot fill a domain of size {domain_size}"
        )
    rng.shuffle(pool)
    return tuple(pool)


def sample_input(point, n: int, rng: random.Random) -> Instance:
    """Draw one input from the family at point, (g, N) or (g, N, M).

    The rng draws S, then every drawn register range, then every
    register's sequence; the Instance keeps the latent draw.
    """
    shape = _shape(point, n)
    s = tuple(sorted(rng.sample(range(1, shape.universe + 1), shape.s_size)))
    ranges = tuple(tuple(sorted(rng.sample(s, shape.sub))) for _ in range(shape.ranges))
    seqs = tuple(_uniform_k_to_one(shape.length, r, shape.k, rng) for r in ranges or (s,))
    return instance_from_latent(Latent(s, ranges, seqs), n)


# Kept by name: perfbench/workloads.py imports it, and perfbench/tracer.py
# patches the name polymethod imports it under.
sample_collision_input = sample_input


def _random_order(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """A random permutation of range(shape[-1]) for every leading index:
    the argsort of uniform uint64 keys read from rng.randbytes (Knuth,
    TAOCP 2, 3.4.2)."""
    keys = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8").reshape(shape)
    return keys.argsort(axis=-1, kind="stable")


def sample_rows(point, n: int, draws: int, rng: random.Random) -> np.ndarray:
    """The input rows of `draws` independent draws from the family at
    point, (g, N) or (g, N, M), as one table in enumerate_rows' layout:
    draws x n of x, or draws x 2n of x then y.  Its dtype is the narrowest
    that holds n, or 2n, as in polymethod.draw_table.

    Each stage is drawn for all draws at once by _random_order: S is the
    first |S| positions of an order of the universe; a drawn range is the
    first `sub` positions of an order of S; a register's k-to-1 sequence
    is a uniform shuffle of its range with each value k times, of which
    the row keeps the first n entries.  So every latent draw is equally
    likely, as in sample_input, but no Instance is built.

    The orders are uniform unless two keys of a row tie: among w keys
    some two tie with probability below w^2 / 2^65 (w(w-1)/2 pairs, each
    equal with probability 2^-64), and a tie only keeps its two
    positions in index order.  The keys come from the caller's
    random.Random, so one seed gives one table, and numpy.random (about
    6 MB of resident memory) is never imported."""
    shape = _shape(point, n)
    s = _random_order(rng, (draws, 1, shape.universe))[..., :shape.s_size] + 1
    if shape.ranges:
        picks = _random_order(rng, (draws, shape.ranges, shape.s_size))[..., :shape.sub]
        s = np.take_along_axis(s, picks, axis=-1)
    # position j of a range's pool holds the range's (j // k)-th value
    slots = _random_order(rng, (draws, shape.registers, shape.length))[..., :n] // shape.k
    rows = np.take_along_axis(s, slots, axis=-1)
    return rows.reshape(draws, shape.registers * n).astype(np.min_scalar_type(shape.universe))


def _k_to_one_sequences(values, k: int) -> Iterator[tuple[int, ...]]:
    """Every sequence holding each of the sorted values exactly k times,
    in lexicographic order (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L).  At
    k = 1 these are the permutations of the values, in the same order."""
    if k == 1:
        yield from itertools.permutations(values)
        return
    a = [v for v in values for _ in range(k)]
    while True:
        yield tuple(a)
        # the rightmost j with a[j] < a[j + 1]; none means a is the last
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        # swap a[j] with the rightmost larger entry, then reverse the tail
        last = len(a) - 1
        while a[j] >= a[last]:
            last -= 1
        a[j], a[last] = a[last], a[j]
        a[j + 1:] = a[:j:-1]


def _sequence_count(shape: _Shape) -> int:
    """length! / (k!)^(length/k): the k-to-1 sequences onto one range."""
    return math.factorial(shape.length) // math.factorial(shape.k) ** (shape.length // shape.k)


def count_supports(point, n: int) -> int:
    """Number of latent draws at point, in closed form:
    C(universe, |S|) * C(|S|, sub)^ranges * (length! / (k!)^(length/k))^registers."""
    shape = _shape(point, n)
    return (
        math.comb(shape.universe, shape.s_size)
        * math.comb(shape.s_size, shape.sub) ** shape.ranges
        * _sequence_count(shape) ** shape.registers
    )


def check_enumerable(point, n: int, cap: int | None = None) -> None:
    """Raise EnumerationTooLarge if the latent draws at point, counted in
    closed form, exceed enumeration_cap(cap)."""
    total = count_supports(point, n)
    limit = enumeration_cap(cap)
    if total > limit:
        raise EnumerationTooLarge(
            f"enumeration too large: {total} latent draws exceed cap {limit}"
        )


def _relabelled_draws(point, n: int, cap: int | None) -> Iterator:
    """The one loop behind enumerate_supports and enumerate_rows: yield
    (S, ranges, tables) for every S and every choice of register ranges,
    in lexicographic order, where tables[i] is an array holding every
    k-to-1 sequence onto register i's range (S itself when no range is
    drawn), one per row, in lexicographic order.

    Every range has the same size, so its sequences are one k-to-1 index
    table over range(size), listed once per point by _k_to_one_sequences
    and relabelled by the range.  A sorted range maps indices to values
    monotonically, so the rows keep the index table's order.  Both
    tables take the smallest integer type that holds their entries.
    Raises EnumerationTooLarge if the closed-form count exceeds the cap.
    """
    shape = _shape(point, n)
    check_enumerable(point, n, cap)
    index = np.fromiter(
        itertools.chain.from_iterable(_k_to_one_sequences(range(shape.sub), shape.k)),
        dtype=np.min_scalar_type(shape.sub),
    ).reshape(_sequence_count(shape), shape.length)
    labels = np.min_scalar_type(shape.universe)
    for s in itertools.combinations(range(1, shape.universe + 1), shape.s_size):
        for ranges in itertools.product(itertools.combinations(s, shape.sub), repeat=shape.ranges):
            yield s, ranges, [np.array(r, dtype=labels)[index] for r in ranges or (s,)]


_ROW_CHUNK = 4096  # rows turned into lists at a time


def _listed(table: np.ndarray) -> Iterator[list[int]]:
    """The rows of a table as lists of ints, in order, a chunk at a time
    so that few of them are alive at once."""
    for start in range(0, len(table), _ROW_CHUNK):
        yield from table[start:start + _ROW_CHUNK].tolist()


def enumerate_supports(point, n: int, cap: int | None = None) -> Iterator:
    """Yield every latent draw at point exactly once, in lexicographic
    order on (S, xhat) or (S, S_X, S_Y, xhat, yhat).  Raises
    EnumerationTooLarge if the closed-form count exceeds the cap."""
    for s, ranges, tables in _relabelled_draws(point, n, cap):
        # the last register's sequences vary fastest
        *outer, last = tables
        for head in itertools.product(*(map(tuple, table.tolist()) for table in outer)):
            for tail in _listed(last):
                yield Latent(s, ranges, (*head, tuple(tail)))


def enumerate_rows(point, n: int, cap: int | None = None) -> Iterator[np.ndarray]:
    """The input row of every latent draw at point, in enumerate_supports'
    order: the first n entries of xhat, then (set comparison) of yhat,
    as one 1-D integer array of n or 2n entries.

    Each row is a view of a table that no later row writes to: for a
    (g, N) point the relabelled table of its S, for a (g, N, M) point a
    block that holds one x head beside every y tail.  So a row may be
    kept, and draw_table packs the rows without a Python list per row.
    Raises EnumerationTooLarge if the closed-form count exceeds the cap.
    """
    for _s, _ranges, tables in _relabelled_draws(point, n, cap):
        *outer, last = (table[:, :n] for table in tables)
        if not outer:
            yield from last
            continue
        (heads,) = outer
        for head in heads:
            block = np.empty((len(last), 2 * n), dtype=last.dtype)
            block[:, :n] = head
            block[:, n:] = last
            yield from block
