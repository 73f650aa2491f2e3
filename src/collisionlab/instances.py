"""Oracle inputs and the structured distributions they are drawn from.

Collision inputs are sequences x_1..x_n over {1..n}; set-comparison
inputs are pairs (X, Y) of length-n sequences over {1..2n}.  The
structured families are indexed by lattice parameter points: (g, N) for
collision inputs (prefixes of g-to-1 functions), and (g, N, M) for
set-comparison inputs (prefixes of kappa(g)-to-1 functions into random
subsets).  Both are one construction: a point's arity names its family,
and one shape per point drives the sampler, the closed-form count and the
enumerator.  The sampler keeps its latent draw so tests can check the
construction white-box, and the enumerator streams every latent draw in
a deterministic order for brute-force expectations.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

ENUM_CAP_ENV = "COLLISIONLAB_ENUM_CAP"
DEFAULT_ENUM_CAP = 10_000_000


class EnumerationTooLarge(RuntimeError):
    """Raised when a brute-force enumeration exceeds the configured cap."""


class ConfigError(ValueError):
    """A well-formed request whose parameters are semantically invalid,
    such as an inadmissible lattice point or a malformed setting."""


def enumeration_cap(cap: int | None = None) -> int:
    """The cap itself, else COLLISIONLAB_ENUM_CAP, else the default.  A
    cap of 0 admits no enumeration; a negative one is a ConfigError."""
    source = "enumeration cap"
    if cap is None:
        source, raw = ENUM_CAP_ENV, os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ConfigError(f"{source} must be >= 0, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# instance data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionLatent:
    """Latent draw behind a collision input: range set S and full sequence."""

    s: tuple[int, ...]
    xhat: tuple[int, ...]


@dataclass(frozen=True)
class SetcompLatent:
    """Latent draw behind a set-comparison input."""

    s: tuple[int, ...]
    s_x: tuple[int, ...]
    s_y: tuple[int, ...]
    xhat: tuple[int, ...]
    yhat: tuple[int, ...]


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
    latent: object = None

    def __post_init__(self):
        if self.kind not in ("collision", "setcomp"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if len(self.x) != self.n:
            raise ValueError("x must have length n")
        top = self.n if self.kind == "collision" else 2 * self.n
        if any(not 1 <= v <= top for v in self.x):
            raise ValueError(f"x values must lie in 1..{top}")
        if self.kind == "setcomp":
            if self.y is None or len(self.y) != self.n:
                raise ValueError("setcomp instance needs y of length n")
            if any(not 1 <= v <= top for v in self.y):
                raise ValueError(f"y values must lie in 1..{top}")
        elif self.y is not None:
            raise ValueError("collision instance must not carry y")

    @property
    def alphabet_size(self) -> int:
        return self.n if self.kind == "collision" else 2 * self.n

    @property
    def num_query_indices(self) -> int:
        """Distinct query addresses: n positions, doubled for (b, i) pairs."""
        return self.n if self.kind == "collision" else 2 * self.n

    def y_sequence(self) -> tuple[int, ...]:
        """y of a set-comparison input; raises if there is none."""
        if self.y is None:
            raise ValueError(f"{self.kind} instance has no y sequence")
        return self.y

    def query_value(self, index: int) -> int:
        """Value returned for query address index (1-based).

        For set-comparison inputs, addresses 1..n read x and n+1..2n read y.
        """
        if not 1 <= index <= self.num_query_indices:
            raise ValueError(f"query index {index} out of range")
        if self.kind == "collision" or index <= self.n:
            return self.x[index - 1]
        return self.y_sequence()[index - self.n - 1]

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "n": self.n, "x": list(self.x)}
        if self.y is not None:
            doc["y"] = list(self.y)
        if isinstance(self.latent, CollisionLatent):
            doc["latent"] = {"S": list(self.latent.s), "xhat": list(self.latent.xhat)}
        elif isinstance(self.latent, SetcompLatent):
            doc["latent"] = {
                "S": list(self.latent.s),
                "S_X": list(self.latent.s_x),
                "S_Y": list(self.latent.s_y),
                "xhat": list(self.latent.xhat),
                "yhat": list(self.latent.yhat),
            }
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Instance":
        latent = None
        raw = doc.get("latent")
        if raw is not None:
            if "S_X" in raw:
                latent = SetcompLatent(
                    tuple(raw["S"]),
                    tuple(raw["S_X"]),
                    tuple(raw["S_Y"]),
                    tuple(raw["xhat"]),
                    tuple(raw["yhat"]),
                )
            else:
                latent = CollisionLatent(tuple(raw["S"]), tuple(raw["xhat"]))
        return Instance(
            kind=doc["kind"],
            n=int(doc["n"]),
            x=tuple(int(v) for v in doc["x"]),
            y=tuple(int(v) for v in doc["y"]) if "y" in doc else None,
            latent=latent,
        )

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            return Instance.from_json(json.load(fh))


def is_k_to_one(values, k: int) -> bool:
    """True iff every value that appears does so exactly k times."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return all(c == k for c in counts.values())


def validate_instance(inst: Instance, k: int) -> bool:
    """Check the k-to-one promise on the instance sequences."""
    if inst.kind == "collision":
        return is_k_to_one(inst.x, k)
    return is_k_to_one(inst.x, k) and is_k_to_one(inst.y_sequence(), k)


def set_union_size(inst: Instance) -> int:
    if inst.kind != "setcomp":
        raise ValueError("set_union_size needs a setcomp instance")
    return len(set(inst.x) | set(inst.y_sequence()))


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


class QuasilatticePoint(NamedTuple):
    g: int
    N: int


class SuperQuasilatticePoint(NamedTuple):
    g: int
    N: int
    M: int


def is_quasilattice_point(g: int, N: int, n: int, T: int, slack: int = 10) -> bool:
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
    g: int, N: int, M: int, n: int, T: int, slack: int = 100
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
        n_values = [n] if g == 1 else range(n + (-n) % g, n_top(g) + 1, g)
        if m_top is None:
            points += (QuasilatticePoint(g, N) for N in n_values)
            continue
        k = kappa(g)
        m_values = [n] if g == 2 else range(n + (-n) % k, m_top + 1, k)
        points += (SuperQuasilatticePoint(g, N, M) for N in n_values for M in m_values)
    return points


def quasilattice_points(n: int, T: int, G: int, slack: int = 10) -> list[QuasilatticePoint]:
    """All admissible (g, N) with g <= G, sorted by (g, N).

    slack is the denominator constant in the window width n/(slack*T);
    larger slack shrinks the window and tightens the prefactor bound.
    """
    if n % 2 != 0:
        raise ConfigError("n must be even")
    top = _window_top(n, T, G, slack, 2)
    return _grid(n, G, lambda g: top)


def super_quasilattice_points(
    n: int, T: int, G: int, slack: int = 100
) -> list[SuperQuasilatticePoint]:
    """All admissible (g, N, M) with g <= G, sorted by (g, N, M)."""
    top = _window_top(n, T, G, slack, 3)
    return _grid(n, G, lambda g: top, top)


def divisor_points(n: int, max_N: int) -> list[QuasilatticePoint]:
    """(1, n) and all (g, N) with 2 <= g <= sqrt(n), g | N, n <= N <= max_N
    and N/g <= n: the grid swept by the expectation oracles when no query
    budget pins the window."""
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

    latent: type  # CollisionLatent or SetcompLatent
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
        shape = _Shape(CollisionLatent, n, N // g, 1, 0, N // g, g, N)
    else:
        k = kappa(g)
        shape = _Shape(SetcompLatent, 2 * n, 2 * N // g, 2, 2, point.M // k, k, point.M)
    if (
        N % g
        or shape.length % shape.k
        or shape.s_size > shape.universe
        or shape.sub > shape.s_size
        or shape.length < n
    ):
        raise ConfigError(f"invalid point {point} for n={n}")
    return shape


def instance_from_latent(latent, n: int) -> Instance:
    """The input of a latent draw: the first n entries of each sequence."""
    if isinstance(latent, SetcompLatent):
        return Instance("setcomp", n, latent.xhat[:n], latent.yhat[:n], latent=latent)
    return Instance("collision", n, latent.xhat[:n], latent=latent)


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
    ranges = [tuple(sorted(rng.sample(s, shape.sub))) for _ in range(shape.ranges)]
    seqs = [_uniform_k_to_one(shape.length, r, shape.k, rng) for r in ranges or (s,)]
    return instance_from_latent(shape.latent(s, *ranges, *seqs), n)


# Kept by name: perfbench/workloads.py imports it, and polymethod's Monte
# Carlo calls it under a name that perfbench/tracer.py patches.
def sample_collision_input(point: QuasilatticePoint, n: int, rng: random.Random) -> Instance:
    return sample_input(QuasilatticePoint(*point), n, rng)


def _k_to_one_sequences(values, k: int) -> Iterator[tuple[int, ...]]:
    """Every sequence holding each of the sorted values exactly k times,
    in lexicographic order (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L)."""
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


def count_supports(point, n: int) -> int:
    """Number of latent draws at point, in closed form:
    C(universe, |S|) * C(|S|, sub)^ranges * (length! / (k!)^(length/k))^registers."""
    shape = _shape(point, n)
    sequences = math.factorial(shape.length) // math.factorial(shape.k) ** (shape.length // shape.k)
    return (
        math.comb(shape.universe, shape.s_size)
        * math.comb(shape.s_size, shape.sub) ** shape.ranges
        * sequences**shape.registers
    )


def enumerate_supports(point, n: int, cap: int | None = None) -> Iterator:
    """Yield every latent draw at point exactly once, in lexicographic
    order on (S, xhat) or (S, S_X, S_Y, xhat, yhat).  Raises
    EnumerationTooLarge if the closed-form count exceeds the cap."""
    shape = _shape(point, n)
    total = count_supports(point, n)
    limit = enumeration_cap(cap)
    if total > limit:
        raise EnumerationTooLarge(
            f"enumeration too large: {total} latent draws exceed cap {limit}"
        )
    latent, k = shape.latent, shape.k
    for s in itertools.combinations(range(1, shape.universe + 1), shape.s_size):
        for ranges in itertools.product(itertools.combinations(s, shape.sub), repeat=shape.ranges):
            # the last register's sequences stream; the others are replayed
            # once per sequence of a later register, so they are listed
            *outer, last = ranges or (s,)
            for head in itertools.product(*(tuple(_k_to_one_sequences(r, k)) for r in outer)):
                fixed = (s, *ranges, *head)
                for tail in _k_to_one_sequences(last, k):
                    yield latent(*fixed, tail)


def all_collision_sequences(n: int) -> Iterator[Instance]:
    """Every sequence in {1..n}^n, promise or not; n^n of them."""
    for x in itertools.product(range(1, n + 1), repeat=n):
        yield Instance(kind="collision", n=n, x=x)


def fraction_of_small_unions(
    n: int, samples: int, rng: random.Random, threshold: Fraction = Fraction(11, 10)
) -> float:
    """Monte Carlo check on the g=1 set-comparison family: fraction of
    draws whose union is smaller than threshold*n."""
    point = SuperQuasilatticePoint(1, n, n)
    cutoff = threshold * n
    small = 0
    for _ in range(samples):
        inst = sample_input(point, n, rng)
        if set_union_size(inst) < cutoff:
            small += 1
    return small / samples
