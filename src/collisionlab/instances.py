"""Oracle inputs and the structured distributions they are drawn from.

Collision inputs are sequences x_1..x_n over {1..n}; set-comparison
inputs are pairs (X, Y) of length-n sequences over {1..2n}.  The
structured families are indexed by lattice parameter points: (g, N) for
collision inputs (prefixes of g-to-1 functions), and (g, N, M) for
set-comparison inputs (prefixes of kappa(g)-to-1 functions into random
subsets).  Samplers keep their latent draws so tests can check the
construction white-box, and enumerators stream every latent draw in a
deterministic order for brute-force expectations.
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


def quasilattice_points(n: int, T: int, G: int, slack: int = 10) -> list[QuasilatticePoint]:
    """All admissible (g, N) with g <= G, sorted by (g, N).

    slack is the denominator constant in the window width n/(slack*T);
    larger slack shrinks the window and tightens the prefactor bound.
    """
    if n % 2 != 0:
        raise ConfigError("n must be even")
    if T < 1:
        raise ConfigError("T must be >= 1")
    if slack < 1:
        raise ConfigError(f"slack must be >= 1, got slack={slack}")
    if G < 1:
        raise ConfigError(f"G must be >= 1, got G={G}")
    if G * G > n:
        largest = math.isqrt(max(n, 0))
        raise ConfigError(
            f"g out of range: n={n} admits no G >= {largest + 1}; "
            f"the largest admissible G is {largest} (G <= sqrt(n))"
        )
    points = []
    n_max = n + n // (slack * T)  # floor: N is an integer
    for g in range(1, G + 1):
        if g == 1:
            points.append(QuasilatticePoint(1, n))
            continue
        start = n + (-n) % g  # first multiple of g at or above n
        for N in range(start, n_max + 1, g):
            if is_quasilattice_point(g, N, n, T, slack):
                points.append(QuasilatticePoint(g, N))
    return sorted(points)


def divisor_points(n: int, max_N: int) -> list[QuasilatticePoint]:
    """All (g, N) with 1 <= g <= sqrt(n), g | N, n <= N <= max_N, and
    N = n when g = 1: the grid swept by the expectation oracles when no
    query budget pins the window."""
    points = []
    for g in range(1, n + 1):
        if g * g > n:
            break
        if g == 1:
            points.append(QuasilatticePoint(1, n))
            continue
        for N in range(n + (-n) % g, max_N + 1, g):
            if N // g <= n:
                points.append(QuasilatticePoint(g, N))
    return sorted(points)


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


def super_quasilattice_points(
    n: int, T: int, G: int, slack: int = 100
) -> list[SuperQuasilatticePoint]:
    """All admissible (g, N, M) with g <= G, sorted by (g, N, M)."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    if slack < 1:
        raise ConfigError(f"slack must be >= 1, got slack={slack}")
    if G < 1:
        raise ConfigError(f"G must be >= 1, got G={G}")
    if G**3 > n:
        largest = round(max(n, 0) ** (1 / 3))
        largest -= largest**3 > max(n, 0)  # float cube roots can overshoot by one
        raise ConfigError(
            f"g out of range: n={n} admits no G >= {largest + 1}; "
            f"the largest admissible G is {largest} (G <= n^(1/3))"
        )
    top = n + n // (slack * T)
    points = []
    for g in range(1, G + 1):
        n_values = [n] if g == 1 else [
            N for N in range(n + (-n) % g, top + 1, g)
        ]
        k = kappa(g)
        m_values = [n] if g == 2 else [
            M for M in range(n + (-n) % k, top + 1, k)
        ]
        for N in n_values:
            for M in m_values:
                if is_super_quasilattice_point(g, N, M, n, T, slack):
                    points.append(SuperQuasilatticePoint(g, N, M))
    return sorted(points)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


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


def sample_collision_input(
    point: QuasilatticePoint, n: int, rng: random.Random
) -> Instance:
    """Draw a collision input: the first n entries of a uniform g-to-1
    function from {1..N} onto a uniform (N/g)-subset S of {1..n}."""
    g, N = point
    if g < 1 or N % g != 0 or N // g > n or N < n:
        raise ConfigError(f"invalid point {point} for n={n}")
    s = tuple(sorted(rng.sample(range(1, n + 1), N // g)))
    xhat = _uniform_k_to_one(N, s, g, rng)
    return Instance(
        kind="collision",
        n=n,
        x=xhat[:n],
        latent=CollisionLatent(s, xhat),
    )


def sample_setcomp_input(
    point: SuperQuasilatticePoint, n: int, rng: random.Random
) -> Instance:
    """Draw a set-comparison input pair from the (g, N, M) family.

    S is a uniform (2N/g)-subset of {1..2n}; S_X and S_Y are independent
    uniform (M/kappa(g))-subsets of S; X and Y are the first n entries of
    independent uniform kappa(g)-to-1 functions from {1..M} onto S_X and
    S_Y respectively.
    """
    g, N, M = point
    if g < 1:
        raise ConfigError(f"invalid point {point}: g must be >= 1")
    k = kappa(g)
    if N % g != 0 or M % k != 0:
        raise ConfigError(f"invalid point {point}")
    s_size = 2 * N // g
    sub_size = M // k
    if s_size > 2 * n or sub_size > s_size or M < n:
        raise ConfigError(f"invalid point {point} for n={n}")
    s = tuple(sorted(rng.sample(range(1, 2 * n + 1), s_size)))
    s_x = tuple(sorted(rng.sample(s, sub_size)))
    s_y = tuple(sorted(rng.sample(s, sub_size)))
    xhat = _uniform_k_to_one(M, s_x, k, rng)
    yhat = _uniform_k_to_one(M, s_y, k, rng)
    return Instance(
        kind="setcomp",
        n=n,
        x=xhat[:n],
        y=yhat[:n],
        latent=SetcompLatent(s, s_x, s_y, xhat, yhat),
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


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


def count_collision_supports(point: QuasilatticePoint, n: int) -> int:
    """C(n, N/g) * N! / (g!)^(N/g): number of latent (S, xhat) draws."""
    g, N = point
    if N % g != 0:
        raise ValueError("g must divide N")
    blocks = N // g
    return math.comb(n, blocks) * math.factorial(N) // math.factorial(g) ** blocks


def enumerate_collision_supports(
    point: QuasilatticePoint, n: int, cap: int | None = None
) -> Iterator[CollisionLatent]:
    """Yield every latent draw (S, xhat) exactly once.

    Order is deterministic: lexicographic on S, then on xhat as a
    sequence.  Raises EnumerationTooLarge if the closed-form count
    exceeds the cap.
    """
    g, N = point
    blocks = N // g
    if blocks > n or N < n:
        raise ConfigError(f"invalid point {point} for n={n}")
    total = count_collision_supports(point, n)
    limit = enumeration_cap(cap)
    if total > limit:
        raise EnumerationTooLarge(
            f"enumeration too large: {total} latent draws exceed cap {limit}"
        )
    for s in itertools.combinations(range(1, n + 1), blocks):
        for xhat in _k_to_one_sequences(s, g):
            yield CollisionLatent(s, xhat)


def count_setcomp_supports(point: SuperQuasilatticePoint, n: int) -> int:
    g, N, M = point
    k = kappa(g)
    s_size = 2 * N // g
    sub = M // k
    ways_functions = math.factorial(M) // math.factorial(k) ** sub
    return (
        math.comb(2 * n, s_size)
        * math.comb(s_size, sub) ** 2
        * ways_functions**2
    )


def enumerate_setcomp_supports(
    point: SuperQuasilatticePoint, n: int, cap: int | None = None
) -> Iterator[SetcompLatent]:
    """Yield every latent draw (S, S_X, S_Y, xhat, yhat) exactly once, in
    lexicographic order on (S, S_X, S_Y, xhat, yhat)."""
    g, N, M = point
    k = kappa(g)
    s_size = 2 * N // g
    sub = M // k
    if s_size > 2 * n or sub > s_size:
        raise ConfigError(f"invalid point {point} for n={n}")
    total = count_setcomp_supports(point, n)
    limit = enumeration_cap(cap)
    if total > limit:
        raise EnumerationTooLarge(
            f"enumeration too large: {total} latent draws exceed cap {limit}"
        )
    for s in itertools.combinations(range(1, 2 * n + 1), s_size):
        for s_x in itertools.combinations(s, sub):
            xhats = list(_k_to_one_sequences(s_x, k))
            for s_y in itertools.combinations(s, sub):
                yhats = list(_k_to_one_sequences(s_y, k))
                for xhat in xhats:
                    for yhat in yhats:
                        yield SetcompLatent(s, s_x, s_y, xhat, yhat)


def instance_from_collision_latent(latent: CollisionLatent, n: int) -> Instance:
    return Instance(kind="collision", n=n, x=latent.xhat[:n], latent=latent)


def instance_from_setcomp_latent(latent: SetcompLatent, n: int) -> Instance:
    return Instance(
        kind="setcomp", n=n, x=latent.xhat[:n], y=latent.yhat[:n], latent=latent
    )


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
        inst = sample_setcomp_input(point, n, rng)
        if set_union_size(inst) < cutoff:
            small += 1
    return small / samples
