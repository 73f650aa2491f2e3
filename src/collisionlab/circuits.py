"""Layer builders and the built-in reference query algorithms.

Everything here stays inside Q(sqrt(2)): signed permutations, Hadamard
tensor powers (for power-of-two registers), Grover diffusion, and their
compositions, so the reference circuits run in exact mode.  digit_layer
puts a small operator on one register: on the basis-ordinal digit
(ordinal // stride) % m, stride 2 for the index register and stride
2 * index_size * 2^k for workspace bit k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .instances import KIND_REGISTERS, ConfigError
from .qsqrt2 import QSqrt2
from .simulator import BasisState, Layer, QueryAlgorithm, StateSpace


# ---------------------------------------------------------------------------
# small matrices
# ---------------------------------------------------------------------------


def hadamard_matrix(num_bits: int) -> list[list[QSqrt2]]:
    """Dense H^(x)num_bits over 2^num_bits values, entries +-2^(-k/2)."""
    size = 1 << num_bits
    mag = QSqrt2.inv_sqrt2_power(num_bits)
    rows = []
    for r in range(size):
        rows.append(
            [(-mag if (r & c).bit_count() % 2 else mag) for c in range(size)]
        )
    return rows


def diffusion_matrix(size: int) -> list[list[QSqrt2]]:
    """Inversion about the mean: 2J/size - I.  Orthogonal for any size."""
    off = QSqrt2(Fraction(2, size))
    diag = QSqrt2(Fraction(2, size) - 1)
    return [
        [diag if r == c else off for c in range(size)] for r in range(size)
    ]


# ---------------------------------------------------------------------------
# embedding small operators into full layers
# ---------------------------------------------------------------------------


def digit_layer(space: StateSpace, small: list[list[QSqrt2]], stride: int) -> Layer:
    """The m x m operator small on the ordinal digit (ordinal // stride) % m,
    the identity on every other digit.  An ordinal is (workspace *
    index_size + index - 1) * 2 + output - 1, so stride 2 with m =
    index_size is the index register, and stride 2 * index_size * 2^k
    with m = 2 is workspace bit k."""
    m = len(small)
    if any(len(row) != m for row in small):
        raise ValueError("operator must be square")
    if stride < 1 or m < 1 or space.dim % (stride * m):
        raise ValueError(f"stride {stride} times size {m} must divide dim {space.dim}")
    # column c's nonzero entries as (row - c) * stride and value, rows ascending
    shifts = [
        [((r - c) * stride, v) for r, row in enumerate(small) if not (v := row[c]).is_zero()]
        for c in range(m)
    ]
    return Layer(space.dim, [
        [(ordinal + d, v) for d, v in shifts[ordinal // stride % m]] for ordinal in range(space.dim)
    ])


def index_register_layer(space: StateSpace, small: list[list[QSqrt2]]) -> Layer:
    """small (index_size x index_size) acting on the index register alone."""
    if len(small) != space.index_size:
        raise ValueError("operator size must equal index_size")
    return digit_layer(space, small, 2)


def permutation_layer(space: StateSpace, mapping: Callable[[BasisState], BasisState]) -> Layer:
    """Layer sending |s> to |mapping(s)>; mapping must be a bijection."""
    one = QSqrt2(1)
    cols: list[list[tuple[int, QSqrt2]]] = [[] for _ in range(space.dim)]
    seen = set()
    for ordinal in range(space.dim):
        target = space.encode(mapping(space.decode(ordinal)))
        if target in seen:
            raise ValueError("mapping is not a bijection")
        seen.add(target)
        cols[ordinal] = [(target, one)]
    return Layer(space.dim, cols)


def flip_output_where(space: StateSpace, pred: Callable[[int, int], bool]) -> Layer:
    """Swap output 1 <-> 2 on basis states where pred(workspace, index)."""

    def mapping(s: BasisState) -> BasisState:
        if pred(s.workspace, s.index):
            return BasisState(s.workspace, s.index, 3 - s.output)
        return s

    return permutation_layer(space, mapping)


def phase_flip_where(space: StateSpace, pred: Callable[[int, int], bool]) -> Layer:
    """Diagonal layer: amplitude sign flips where pred(workspace, index)."""
    one = QSqrt2(1)
    neg = QSqrt2(-1)
    cols = []
    for ordinal in range(space.dim):
        s = space.decode(ordinal)
        cols.append([(ordinal, neg if pred(s.workspace, s.index) else one)])
    return Layer(space.dim, cols)


def compose(*layers: Layer) -> Layer:
    """compose(A, B, C) applies C first, then B, then A."""
    out = layers[0]
    for layer in layers[1:]:
        out = out.compose(layer)
    return out


# ---------------------------------------------------------------------------
# reference algorithms
# ---------------------------------------------------------------------------


def query_space(kind: str, n: int) -> StateSpace:
    """The standard-oracle space of a kind at length n: an index per query
    address and an answer field that holds the alphabet, both
    len(registers) * n, n for collision and 2n for set comparison."""
    size = len(KIND_REGISTERS[kind]) * n
    bits = size.bit_length()  # holds the values 1..size
    return StateSpace(index_size=size, workspace_bits=bits, answer_offset=0, answer_bits=bits)


def always_accept(n: int) -> QueryAlgorithm:
    """Zero queries, starts in output 2, identity layer: accepts always."""
    space = query_space("collision", n)
    return QueryAlgorithm(
        name=f"always_accept_{n}",
        kind="collision",
        n=n,
        T=0,
        oracle_kind="standard",
        space=space,
        layers=[Layer.identity(space.dim)],
        initial=BasisState(workspace=0, index=1, output=2),
    )


def accept_if_first_is(n: int, target: int = 1) -> QueryAlgorithm:
    """One query at position 1; accepts iff x_1 equals target."""
    if not 1 <= target <= n:
        raise ValueError(f"target {target} outside the alphabet 1..{n}")
    space = query_space("collision", n)
    u1 = flip_output_where(
        space, lambda w, i: (w >> space.answer_offset) & ((1 << space.answer_bits) - 1) == target
    )
    return QueryAlgorithm(
        name=f"accept_if_first_is_{target}_n{n}",
        kind="collision",
        n=n,
        T=1,
        oracle_kind="standard",
        space=space,
        layers=[Layer.identity(space.dim), u1],
    )


def coincidence_probe(n: int) -> QueryAlgorithm:
    """One-query interference circuit over all positions (n a power of two).

    Spreads the query index with a Hadamard power, queries, interferes
    back, and accepts on the fully symmetric index component.  Its
    acceptance probability is sum_v (count of v in X)^2 / n^2, so it
    separates one-to-one inputs (1/n) from two-to-one inputs (2/n).
    """
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    return _symmetric_probe("coincidence_probe", "collision", n)


def two_query_mixer(n: int) -> QueryAlgorithm:
    """Two-query circuit mixing index and workspace between queries.

    No particular decision semantics; exercises degree-4 acceptance
    polynomials with amplitudes that stay in Q(sqrt(2)).
    """
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    space = query_space("collision", n)
    h_idx = index_register_layer(space, hadamard_matrix(n.bit_length() - 1))
    h_bit = digit_layer(space, hadamard_matrix(1), 2 * space.index_size)  # workspace bit 0
    u2 = compose(flip_output_where(space, lambda w, i: w == 0), h_idx)
    return QueryAlgorithm(
        name=f"two_query_mixer_{n}",
        kind="collision",
        n=n,
        T=2,
        oracle_kind="standard",
        space=space,
        layers=[h_idx, compose(h_bit, h_idx), u2],
    )


def setcomp_probe(n: int) -> QueryAlgorithm:
    """One-query standard-oracle circuit on set-comparison pairs.

    Spreads the (b, i) query address over all 2n values (2n a power of
    two), queries, interferes back, and accepts on the symmetric
    component: acceptance is sum_v (count of v among X and Y)^2 / (2n)^2.
    """
    if (2 * n) & (2 * n - 1):
        raise ValueError("2n must be a power of two")
    return _symmetric_probe("setcomp_probe", "setcomp", n)


def _symmetric_probe(name: str, kind: str, n: int) -> QueryAlgorithm:
    """The one-query probe over a power-of-two number of query addresses:
    a Hadamard power spreads the address, one query, the same power
    interferes back, and address 1, the symmetric component, accepts."""
    space = query_space(kind, n)
    u0 = index_register_layer(space, hadamard_matrix(space.index_size.bit_length() - 1))
    u1 = compose(flip_output_where(space, lambda w, i: i == 1), u0)
    return QueryAlgorithm(
        name=f"{name}_{n}", kind=kind, n=n, T=1, oracle_kind="standard", space=space, layers=[u0, u1]
    )


REFERENCE_BUILDERS: dict[str, Callable[[], QueryAlgorithm]] = {
    "always-accept-4": lambda: always_accept(4),
    "first-is-1-n2": lambda: accept_if_first_is(2, 1),
    "first-is-1-n4": lambda: accept_if_first_is(4, 1),
    "coincidence-4": lambda: coincidence_probe(4),
    "two-query-4": lambda: two_query_mixer(4),
    "setcomp-probe-2": lambda: setcomp_probe(2),
    "setcomp-probe-8": lambda: setcomp_probe(8),
}


def reference_algorithm(name: str) -> QueryAlgorithm:
    try:
        return REFERENCE_BUILDERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown reference algorithm {name!r}; known: {sorted(REFERENCE_BUILDERS)}"
        ) from None
