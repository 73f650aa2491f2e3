"""The exact state carried in integer form from step to step.

Each kernel returns an exact state as ExactEntries: the integers (d, ints)
of qsqrt2's integer form.  These tests run every step beside the
reference kernels on dicts of QSqrt2 (tests/helpers.py), require the
carried integers to be the int_form of the reference amplitudes, and
check that the per-step norm comparison still catches a broken layer.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from collisionlab.algorithms import _pair_bit_hadamard, erasing_setcomp_probability, grover_search
from collisionlab.circuits import (
    REFERENCE_BUILDERS,
    coincidence_probe,
    diffusion_matrix,
    index_register_layer,
    phase_flip_where,
    random_orthogonal_layer,
    two_query_mixer,
)
from collisionlab.instances import (
    Instance,
    QuasilatticePoint,
    SuperQuasilatticePoint,
    sample_input,
)
from collisionlab.qsqrt2 import ONE, SQRT2, ZERO, QSqrt2, int_form
from collisionlab.simulator import (
    MODES,
    BasisState,
    ExactEntries,
    Layer,
    QueryAlgorithm,
    StateSpace,
    StateVector,
    acceptance_probability,
    apply_erasing_query,
    apply_standard_query,
    apply_unitary,
    erasing_space,
)
from helpers import (
    one_to_one_instance,
    reference_erasing_query,
    reference_exact_layer,
    reference_exact_square_sum,
    reference_exact_steps,
)


def exact_steps(alg: QueryAlgorithm, inst: Instance):
    """The exact state after each step of alg.run, through the kernels."""
    query = apply_standard_query if alg.oracle_kind == "standard" else apply_erasing_query
    state = apply_unitary(StateVector.from_basis_state(alg.space, alg.initial), alg.layers[0])
    yield state
    for layer in alg.layers[1:]:
        state = query(state, inst)
        yield state
        state = apply_unitary(state, layer)
        yield state


def assert_carries_the_reference(alg: QueryAlgorithm, inst: Instance):
    final = None
    for state, expected in itertools.zip_longest(exact_steps(alg, inst), reference_exact_steps(alg, inst)):
        entries = state.entries
        assert type(entries) is ExactEntries
        d, pairs = int_form(expected.values())
        assert (entries.d, list(entries.ints.items())) == (d, list(zip(expected, pairs)))
        assert state.squared_norm() == reference_exact_square_sum(expected.values())
        final = expected
    accepting = reference_exact_square_sum(v for k, v in final.items() if k & 1)
    assert acceptance_probability(alg, inst) == accepting


@functools.cache
def circuit(name: str) -> QueryAlgorithm:
    extra = {"two-query-8": lambda: two_query_mixer(8), "coincidence-8": lambda: coincidence_probe(8)}
    return {**REFERENCE_BUILDERS, **extra}[name]()


def family_points(alg: QueryAlgorithm):
    if alg.kind == "collision":
        return [QuasilatticePoint(g, alg.n) for g in (1, 2) if alg.n % g == 0]
    return [SuperQuasilatticePoint(g, alg.n, alg.n) for g in (1, 2) if alg.n % g == 0]


@pytest.mark.parametrize("name", [*REFERENCE_BUILDERS, "two-query-8", "coincidence-8"])
def test_every_step_carries_the_int_form_of_the_reference_state(name):
    alg = circuit(name)
    rng = random.Random(f"carry:{name}")
    for point in family_points(alg):
        for _ in range(4):
            assert_carries_the_reference(alg, sample_input(point, alg.n, rng))


def erasing_circuit(n: int, T: int, rng: random.Random) -> QueryAlgorithm:
    space = StateSpace(index_size=n, workspace_bits=1)
    return QueryAlgorithm(
        name="erasing", kind="collision", n=n, T=T, oracle_kind="erasing", space=space,
        layers=[random_orthogonal_layer(space, rng) for _ in range(T + 1)],
    )


def test_an_erasing_circuit_carries_the_int_form_of_the_reference_state():
    rng = random.Random(20)
    alg = erasing_circuit(4, 2, rng)
    for _ in range(6):
        assert_carries_the_reference(alg, one_to_one_instance(4, rng))


def test_a_hand_built_state_holds_the_int_form_of_its_dict():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    amps = {3: QSqrt2(Fraction(1, 2)), 0: QSqrt2(0, Fraction(-1, 6)), 5: QSqrt2(1, 1)}
    state = StateVector(space, "exact", dict(amps))
    converted = state.entries
    assert type(converted) is ExactEntries and converted == amps
    assert (converted.d, list(converted.ints.items())) == (6, [(3, (3, 0)), (0, (0, -1)), (5, (6, 6))])
    assert list(converted.items()) == list(amps.items())
    assert state.squared_norm() == sum((v * v for v in amps.values()), QSqrt2(0))
    out = apply_unitary(state, Layer.identity(space.dim))
    assert out.entries == amps and state.entries is converted


def test_kernel_entries_are_read_only():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    state = apply_unitary(StateVector.from_basis_state(space, BasisState(0, 1, 1)), Layer.identity(space.dim))
    with pytest.raises(TypeError):
        state.entries[0] = QSqrt2(1)
    with pytest.raises(TypeError):
        del state.entries[space.encode(BasisState(0, 1, 1))]


# -- the reference algorithms keep their outputs -----------------------------------


def reference_grover(marked: set, size: int, iterations: int) -> list[Fraction]:
    space = StateSpace(index_size=size)
    amp = QSqrt2.inv_sqrt2_power(size.bit_length() - 1)
    entries = {space.encode(BasisState(0, i, 1)): amp for i in range(1, size + 1)}
    oracle = phase_flip_where(space, lambda w, i: i in marked)
    diffusion = index_register_layer(space, diffusion_matrix(size))
    for _ in range(iterations):
        entries = reference_exact_layer(reference_exact_layer(entries, oracle), diffusion)
    probs = [Fraction(0)] * size
    for ordinal, a in entries.items():
        probs[(ordinal >> 1) % size] += (a * a).as_fraction()
    return probs


@pytest.mark.parametrize("marked, m, iterations", [
    ({3}, 4, 1), ({2}, 4, 0), (set(), 8, 5), ({1, 6}, 8, 2), ({5}, 7, 3), ({2, 9, 11}, 16, 2),
])
def test_exact_grover_matches_the_reference_kernels(marked, m, iterations):
    size = 1 << (m - 1).bit_length()
    assert grover_search(marked, m, iterations, mode="exact") == reference_grover(marked, size, iterations)


def reference_erasing_setcomp(inst: Instance) -> Fraction:
    two_n = 2 * inst.n
    space = erasing_space(inst)
    entries = {
        space.encode(BasisState(0, b * two_n + i, 1)): ONE for b in (0, 1) for i in range(1, inst.n + 1)
    }
    entries = reference_erasing_query(entries, space, inst)
    entries = reference_exact_layer(entries, _pair_bit_hadamard(space, two_n))
    weight = reference_exact_square_sum(
        a for k, a in entries.items() if ((k >> 1) % space.index_size) // two_n == 1
    )
    return (weight / two_n).as_fraction()


def test_erasing_setcomp_probability_matches_the_reference_kernels():
    rng = random.Random(7)
    for n in (2, 3, 5):
        for _ in range(4):
            x, y = rng.sample(range(1, 2 * n + 1), n), rng.sample(range(1, 2 * n + 1), n)
            inst = Instance(kind="setcomp", n=n, x=tuple(x), y=tuple(y))
            assert erasing_setcomp_probability(inst, "exact") == reference_erasing_setcomp(inst)


# -- the per-step norm check still catches a broken layer --------------------------


def scaled_by_sqrt2(layer: Layer) -> Layer:
    return Layer(layer.dim, [[(r, v * QSqrt2.sqrt2()) for r, v in col] for col in layer.cols])


def with_a_moved_entry(layer: Layer) -> Layer:
    """The first entry of the first column with two or more entries,
    moved to the first row that column does not use."""
    cols = [list(col) for col in layer.cols]
    c = next(c for c, col in enumerate(cols) if len(col) > 1)
    used = {r for r, _ in cols[c]}
    free = next(r for r in range(layer.dim) if r not in used)
    cols[c][0] = (free, cols[c][0][1])
    cols[c].sort(key=lambda entry: entry[0])
    return Layer(layer.dim, cols)


TAMPERED_INPUT = Instance(kind="collision", n=4, x=(1, 1, 3, 3))


@pytest.mark.parametrize("t, tamper", [(1, scaled_by_sqrt2), (2, scaled_by_sqrt2), (2, with_a_moved_entry)])
def test_a_layer_swapped_in_after_construction_fails_its_norm_check(t, tamper):
    alg = two_query_mixer(4)
    alg.layers[t] = tamper(alg.layers[t])
    done = []
    with pytest.raises(AssertionError, match="^unitary layer changed the squared norm from "):
        for state in exact_steps(alg, TAMPERED_INPUT):
            done.append(state)
    assert len(done) == 2 * t  # U_0 and (query, U_s) for s < t went through
    with pytest.raises(AssertionError, match="^unitary layer changed the squared norm from "):
        acceptance_probability(alg, TAMPERED_INPUT)


OPTIMIZED_SCRIPT = """
import sys
from collisionlab.circuits import two_query_mixer
from collisionlab.instances import Instance
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.simulator import Layer, acceptance_probability

assert False, "asserts are live"  # stripped under -O

def scaled(layer):
    return Layer(layer.dim, [[(r, v * QSqrt2.sqrt2()) for r, v in col] for col in layer.cols])

def moved(layer):
    cols = [list(col) for col in layer.cols]
    c = next(c for c, col in enumerate(cols) if len(col) > 1)
    used = {r for r, _ in cols[c]}
    free = next(r for r in range(layer.dim) if r not in used)
    cols[c][0] = (free, cols[c][0][1])
    cols[c].sort(key=lambda entry: entry[0])
    return Layer(layer.dim, cols)

caught = []
for t, tamper in ((1, scaled), (2, scaled), (2, moved)):
    alg = two_query_mixer(4)
    alg.layers[t] = tamper(alg.layers[t])
    try:
        acceptance_probability(alg, Instance(kind="collision", n=4, x=(1, 1, 3, 3)))
    except AssertionError as err:
        caught.append("changed the squared norm" in str(err))
print(sys.flags.optimize, caught)
"""


def test_swapped_layers_fail_their_norm_checks_under_optimized_mode():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import collisionlab

    src = str(Path(collisionlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 [True, True, True]"


# -- the checks compare the carried integers -----------------------------------


def random_sum(rng: random.Random) -> tuple[int, int, int]:
    """(A, B, D) with D > 0, often near 0 or 1, where the sign rule's
    cases (mixed signs, A^2 against 2 B^2) decide."""
    D = rng.randint(1, 12)
    B = rng.randint(-12, 12)
    A = rng.choice([0, D]) + rng.randint(-2, 2) - round(B * SQRT2) * rng.randint(0, 1)
    return A, B, D


def test_the_integer_norm_comparison_is_qsqrt2_equality():
    same = MODES["exact"].same
    rng = random.Random(41)
    for _ in range(2000):
        s, t = random_sum(rng), random_sum(rng)
        scale = rng.randint(1, 5)
        scaled = tuple(scale * v for v in s)  # the same number over another denominator
        assert same(s, scaled) and same(scaled, s)
        assert same(s, t) == (QSqrt2.over(*s) == QSqrt2.over(*t))


def test_the_integer_unit_interval_check_is_the_qsqrt2_clip():
    probability = MODES["exact"].probability
    rng = random.Random(42)
    inside = outside = 0
    for _ in range(2000):
        s = random_sum(rng)
        p = QSqrt2.over(*s)
        if min(max(p, ZERO), ONE) == p:
            assert probability(s) == p
            inside += 1
        else:
            with pytest.raises(AssertionError, match=r"outside \[0, 1\]$"):
                probability(s)
            outside += 1
    assert inside > 200 and outside > 200
