"""Reference query algorithms over the simulated oracles.

The erasing-oracle set-comparison test decides equal-vs-far in one
erasing query; equal sets interfere to give first-register outcome 0
with certainty, far sets leave at least 1/10 of the weight unmatched and
outcome 1 shows with probability at least 1/20.  Collision finding runs
a classical sample followed by an amplitude-amplified search for a
partner of a sampled value; the classical birthday sampler is the
baseline.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .instances import ConfigError, Instance
from .qsqrt2 import ONE
from .simulator import (
    BasisState,
    StateVector,
    _first_past,
    apply_erasing_query,
    apply_unitary,
    erasing_space,
)
from .circuits import digit_layer, hadamard_matrix


# ---------------------------------------------------------------------------
# erasing-oracle set comparison
# ---------------------------------------------------------------------------


def erasing_setcomp_probability(inst: Instance) -> Fraction:
    """P(first register = 1) for the one-erasing-query comparison test.

    Prepares the uniform superposition over (b, i), applies one erasing
    query, interferes the pair bit, and reads the pair-bit-1 weight.  The
    state carries unnormalized unit amplitudes (total squared norm 2n) and
    divides at the end, staying in Q(sqrt(2)) for every n; the weight's
    sqrt(2) part is 0, so the answer is a Fraction.
    """
    if inst.kind != "setcomp":
        raise ValueError("set comparison needs a setcomp instance")
    n = inst.n
    two_n = 2 * n
    space = erasing_space(inst)
    entries = {}
    for b in (0, 1):
        for i in range(1, n + 1):
            entries[space.encode(BasisState(0, b * two_n + i, 1))] = ONE
    state = StateVector(space, entries)
    state = apply_erasing_query(state, inst)
    # H on the pair bit of the index (b, value): |b, v> -> (|0, v> + (-1)^b |1, v>) / sqrt 2
    state = apply_unitary(state, digit_layer(space, hadamard_matrix(1), 2 * two_n))
    weight = state.weight(lambda ordinal: ((ordinal >> 1) % space.index_size) // two_n == 1)
    return (weight / two_n).as_fraction()


def erasing_setcomp_decide(inst: Instance, shots: int, rng: random.Random) -> str:
    """Measure the pair bit `shots` times; "equal" iff every outcome is 0."""
    if shots < 1:
        raise ConfigError(f"shots mode needs a shot count >= 1, got shots={shots}")
    p = float(erasing_setcomp_probability(inst))
    for _ in range(shots):
        if rng.random() < p:
            return "far"
    return "equal"


# ---------------------------------------------------------------------------
# amplitude-amplified search
# ---------------------------------------------------------------------------


def _pad_to_power_of_two(m: int) -> int:
    """The search domain size: m rounded up to a power of two.  The
    padded size sets grover_iterations, so bench's tables depend on it."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1 << (m - 1).bit_length()


def grover_iterations(num_marked: int, size: int) -> int:
    """floor((pi/4) sqrt(size / marked)), at least one iteration."""
    return max(1, int(math.floor((math.pi / 4) * math.sqrt(size / num_marked))))


def grover_search(
    marked: Callable[[int], bool] | Iterable[int], m: int, iterations: int
) -> list[float]:
    """Measurement distribution after Grover iterations over {1..m} padded
    to the next power of two (padded items are never marked, but listed):
    each iteration flips the marked amplitudes and reflects about the mean."""
    marked_set = set(marked) if not callable(marked) else {
        i for i in range(1, m + 1) if marked(i)
    }
    if not all(1 <= v <= m for v in marked_set):
        raise ValueError("marked items must lie in 1..m")
    size = _pad_to_power_of_two(m)
    a = np.full(size, 1.0 / math.sqrt(size))
    flip = np.ones(size)
    for v in marked_set:
        flip[v - 1] = -1.0
    for _ in range(iterations):
        a = a * flip
        a = 2 * a.mean() - a
    return list(a * a)


def _sample_from_probs(probs: Sequence[float], rng: random.Random) -> int:
    """1-based index drawn from a (sub)probability vector: the first whose
    running sum exceeds a uniform draw, else the last."""
    return _first_past(list(itertools.accumulate(probs)), rng.random()) + 1


# ---------------------------------------------------------------------------
# collision finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmResult:
    decision: str  # "one-to-one" | "collision"
    collision: tuple[int, int] | None
    queries_used: int
    trials: int


def _verified(inst: Instance, i: int, j: int) -> tuple[int, int]:
    if i == j or inst.x[i - 1] != inst.x[j - 1]:
        raise AssertionError("collision result failed verification")
    return (i, j) if i < j else (j, i)


def bht_collision(inst: Instance, rng: random.Random) -> AlgorithmResult:
    """Sample-then-search collision finding, about n^(1/3) queries.

    Queries k = ceil(n^(1/3)) random positions classically; an internal
    repeat ends the run, otherwise an amplitude-amplified search looks
    for a position outside the sample whose value landed in the table
    (exactly k such positions exist on a two-to-one input).  One re-run
    on failure, then the run concludes one-to-one; so does a sample that
    covers every position (tiny n) without a repeat.
    """
    if inst.kind != "collision":
        raise ValueError("collision finding needs a collision instance")
    n = inst.n
    k = math.ceil(n ** (1 / 3))
    queries = 0
    seen_counts: dict[int, int] = {}

    def query(position: int) -> int:
        nonlocal queries
        queries += 1
        v = inst.x[position - 1]
        seen_counts[v] = seen_counts.get(v, 0) + 1
        if seen_counts[v] > 2:
            raise ValueError("not k-to-one: a value appeared three times")
        return v

    sample = rng.sample(range(1, n + 1), k)
    table: dict[int, int] = {}
    for i in sample:
        v = query(i)
        if v in table:
            return AlgorithmResult("collision", _verified(inst, table[v], i), queries, 1)
        table[v] = i

    in_sample = set(sample)
    rest = [i for i in range(1, n + 1) if i not in in_sample]
    if not rest:  # the sample read every position without a repeat
        return AlgorithmResult("one-to-one", None, queries, 1)
    size = _pad_to_power_of_two(len(rest))
    values = set(table)
    for trial in (1, 2):
        iterations = grover_iterations(k, size)

        def marked(pos: int) -> bool:
            return pos <= len(rest) and inst.x[rest[pos - 1] - 1] in values

        probs = grover_search(marked, len(rest), iterations)
        queries += iterations  # one oracle application per iteration
        drawn = _sample_from_probs(probs, rng)
        if drawn <= len(rest):
            j = rest[drawn - 1]
            v = query(j)
            if v in table and table[v] != j:
                return AlgorithmResult(
                    "collision", _verified(inst, table[v], j), queries, trial
                )
    return AlgorithmResult("one-to-one", None, queries, 2)


def classical_birthday(
    inst: Instance, rng: random.Random, budget: int
) -> AlgorithmResult:
    """Query uniformly random distinct positions until a value repeats
    or the budget runs out."""
    if inst.kind != "collision":
        raise ValueError("collision finding needs a collision instance")
    n = inst.n
    queries = 0
    seen: dict[int, int] = {}
    for i in rng.sample(range(1, n + 1), min(budget, n)):
        v = inst.x[i - 1]
        queries += 1
        if v in seen:
            return AlgorithmResult("collision", _verified(inst, seen[v], i), queries, 1)
        seen[v] = i
    return AlgorithmResult("one-to-one", None, queries, 1)


# ---------------------------------------------------------------------------
# benchmark tables
# ---------------------------------------------------------------------------


def two_to_one_instance(n: int, rng: random.Random) -> Instance:
    """Uniform two-to-one sequence: a random subset of values, each
    placed at two random positions.  Odd n cannot be exactly two-to-one;
    one leftover position gets its own fresh value."""
    paired = rng.sample(range(1, n + 1), (n + 1) // 2)
    pool = [v for v in paired[: n // 2] for _ in range(2)]
    if n % 2:
        pool.append(paired[-1])
    rng.shuffle(pool)
    return Instance(kind="collision", n=n, x=tuple(pool))


def collision_benchmark(
    algorithm: str, n: int, trials: int, seed: int, budget: int | None = None
) -> dict:
    """Seeded success-rate table row for bht or the birthday baseline on
    two-to-one inputs.  Each trial derives its own rng stream."""
    if trials < 1:
        raise ConfigError(f"need at least one trial, got trials={trials}")
    if algorithm not in ("bht", "birthday"):
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected bht or birthday")
    if n < 1:
        raise ConfigError(f"need n >= 1, got n={n}")
    if budget is not None and budget < 0:
        raise ConfigError(f"need budget >= 0, got budget={budget}")
    successes = 0
    total_queries = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{n}:{algorithm}:{trial}")
        inst = two_to_one_instance(n, rng)
        if algorithm == "bht":
            result = bht_collision(inst, rng)
        else:
            b = budget if budget is not None else int(3 * math.sqrt(n))
            result = classical_birthday(inst, rng, b)
        if result.decision == "collision":
            successes += 1
        total_queries += result.queries_used
    return {
        "algorithm": algorithm,
        "n": n,
        "trials": trials,
        "success_rate": successes / trials,
        "mean_queries": total_queries / trials,
    }
