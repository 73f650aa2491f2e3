"""Core simulation semantics: layers, queries, acceptance, sampling."""

import functools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from collisionlab import simulator
from collisionlab.algorithms import erasing_setcomp_probability
from collisionlab.circuits import (
    REFERENCE_BUILDERS,
    accept_if_first_is,
    always_accept,
    coincidence_probe,
    flip_output_where,
    hadamard_matrix,
    index_register_layer,
    query_space,
    setcomp_probe,
    two_query_mixer,
)
from collisionlab.instances import Instance, QuasilatticePoint, SuperQuasilatticePoint, sample_input
from collisionlab.qsqrt2 import QSqrt2, ZERO, int_form
from collisionlab.simulator import (
    BasisState,
    Layer,
    QueryAlgorithm,
    StateSpace,
    StateVector,
    acceptance_probability,
    apply_erasing_query,
    apply_standard_query,
    apply_unitary,
    erasing_space,
    sample_measurement,
)
from helpers import (
    acceptance_weight,
    assert_same_int_arrays,
    dense_layer_json,
    random_orthogonal_layer,
    reference_compose,
    reference_gram_is_orthogonal,
    to_dense,
)


def inner_product(a: StateVector, b: StateVector) -> QSqrt2:
    total = ZERO
    for ordinal, amp in a.items():
        other = b.get(ordinal)
        if other is not None:
            total = total + amp * other
    return total


def test_identity_layer_is_noop():
    space = StateSpace(index_size=3, workspace_bits=2, answer_bits=2)
    state = StateVector.from_basis_state(space, BasisState(2, 3, 1))
    out = apply_unitary(state, Layer.identity(space.dim))
    assert dict(out) == dict(state)


def test_hadamard_on_single_bit():
    # H on amplitude (1, 0) gives (1/sqrt2, 1/sqrt2)
    space = StateSpace(index_size=2)
    layer = index_register_layer(space, hadamard_matrix(1))
    state = StateVector.from_basis_state(space, BasisState(0, 1, 1))
    out = apply_unitary(state, layer)
    amp = QSqrt2.inv_sqrt2()
    assert out.amplitude(BasisState(0, 1, 1)) == amp
    assert out.amplitude(BasisState(0, 2, 1)) == amp


def test_random_orthogonal_layers_preserve_norm_exactly():
    space = StateSpace(index_size=3, workspace_bits=2, answer_bits=2)
    rng = random.Random(2024)
    for _ in range(5):
        layer = random_orthogonal_layer(space, rng)
        assert layer.is_orthogonal()
        state = StateVector.from_basis_state(space, BasisState(1, 2, 1))
        state = apply_unitary(state, random_orthogonal_layer(space, rng))
        out = apply_unitary(state, layer)
        assert out.squared_norm() == QSqrt2(1)


def test_standard_query_xor_into_zero_field():
    space = StateSpace(index_size=4, workspace_bits=3, answer_bits=3)
    inst = Instance(kind="collision", n=4, x=(1, 3, 2, 4))
    state = StateVector.from_basis_state(space, BasisState(0, 2, 1))
    out = apply_standard_query(state, inst)
    assert out.amplitude(BasisState(3, 2, 1)) == QSqrt2(1)


def test_standard_query_is_involution():
    space = StateSpace(index_size=4, workspace_bits=3, answer_bits=3)
    inst = Instance(kind="collision", n=4, x=(2, 2, 4, 4))
    rng = random.Random(5)
    state = StateVector.from_basis_state(space, BasisState(0, 1, 1))
    state = apply_unitary(state, random_orthogonal_layer(space, rng))
    twice = apply_standard_query(apply_standard_query(state, inst), inst)
    assert dict(twice) == dict(state)


def test_uniform_superposition_query_hand_simulation():
    space = StateSpace(index_size=4, workspace_bits=3, answer_bits=3)
    inst = Instance(kind="collision", n=4, x=(2, 2, 4, 4))
    half = QSqrt2(Fraction(1, 2))
    entries = {
        space.encode(BasisState(0, i, 1)): half for i in range(1, 5)
    }
    state = StateVector(space, entries)
    out = apply_standard_query(state, inst)
    for i, v in enumerate(inst.x, start=1):
        assert out.amplitude(BasisState(v, i, 1)) == half
    assert out.squared_norm() == QSqrt2(1)


def test_field_overflow_error():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    inst = Instance(kind="collision", n=2, x=(2, 1))
    state = StateVector.from_basis_state(space, BasisState(0, 1, 1))
    with pytest.raises(ValueError, match="field overflow"):
        apply_standard_query(state, inst)


def test_erasing_query_definition():
    inst = Instance(kind="setcomp", n=4, x=(7, 5, 1, 3), y=(2, 4, 6, 8))
    space = erasing_space(inst)
    state = StateVector.from_basis_state(space, BasisState(0, 1, 1))  # (b=0, i=1)
    out = apply_erasing_query(state, inst)
    assert out.amplitude(BasisState(0, 7, 1)) == QSqrt2(1)


def test_erasing_amplitudes_pair_up_when_equal_sets():
    inst = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(4, 3, 2, 1))
    space = erasing_space(inst)
    one = QSqrt2(1)
    entries = {}
    for b in (0, 1):
        for i in range(1, 5):
            entries[space.encode(BasisState(0, b * 8 + i, 1))] = one
    out = apply_erasing_query(StateVector(space, entries), inst)
    for v in range(1, 5):
        assert out.amplitude(BasisState(0, v, 1)) == out.amplitude(BasisState(0, 8 + v, 1))


def test_erasing_rejects_non_injective():
    inst = Instance(kind="collision", n=4, x=(2, 2, 4, 4))
    space = erasing_space(inst)
    state = StateVector.from_basis_state(space, BasisState(0, 1, 1))
    with pytest.raises(ValueError, match="non-injective"):
        apply_erasing_query(state, inst)


def test_erasing_preserves_inner_products():
    inst = Instance(kind="collision", n=4, x=(3, 1, 4, 2))
    space = erasing_space(inst)
    rng = random.Random(11)
    layer = random_orthogonal_layer(space, rng)
    a = apply_unitary(StateVector.from_basis_state(space, BasisState(0, 1, 1)), layer)
    b = apply_unitary(StateVector.from_basis_state(space, BasisState(0, 3, 1)), layer)
    before = inner_product(a, b)
    after = inner_product(apply_erasing_query(a, inst), apply_erasing_query(b, inst))
    assert before == after


def test_erasing_moves_collision_basis_states_to_the_queried_value():
    inst = Instance(kind="collision", n=4, x=(3, 1, 4, 2))
    space = erasing_space(inst, workspace_bits=1)
    # ordinal = (workspace * 4 + index - 1) * 2 + output - 1
    before = {0: QSqrt2(1), 3: QSqrt2(2), 6: QSqrt2(3), 13: QSqrt2(4)}
    out = apply_erasing_query(StateVector(space, dict(before)), inst)
    # index 1 -> 3, 2 -> 1, 4 -> 2, 3 -> 4; workspace and output kept
    assert dict(out) == {4: QSqrt2(1), 1: QSqrt2(2), 2: QSqrt2(3), 15: QSqrt2(4)}


def test_erasing_moves_setcomp_basis_states_to_the_queried_value():
    inst = Instance(kind="setcomp", n=2, x=(3, 1), y=(2, 4))
    space = erasing_space(inst)
    assert space.index_size == 8
    # addresses b*4 + i: 1, 2 (x) and 5, 6 (y); ordinal = (index - 1) * 2 + output - 1
    before = {0: QSqrt2(1), 3: QSqrt2(2), 8: QSqrt2(3), 11: QSqrt2(4)}
    out = apply_erasing_query(StateVector(space, dict(before)), inst)
    # index 1 -> 3, 2 -> 1, 5 -> 4 + 2, 6 -> 4 + 4
    assert dict(out) == {4: QSqrt2(1), 1: QSqrt2(2), 10: QSqrt2(3), 15: QSqrt2(4)}


@pytest.mark.parametrize("index", [3, 4, 7, 8])
def test_erasing_rejects_a_setcomp_index_outside_the_query_domain(index):
    # index b*2n + v with v > n holds an answer, not a query address
    inst = Instance(kind="setcomp", n=2, x=(3, 1), y=(2, 4))
    space = erasing_space(inst)
    state = StateVector.from_basis_state(space, BasisState(0, index, 1))
    with pytest.raises(ValueError, match="outside the query domain"):
        apply_erasing_query(state, inst)


@pytest.mark.parametrize("inst, index_size", [
    (Instance(kind="collision", n=4, x=(3, 1, 4, 2)), 5),
    (Instance(kind="setcomp", n=2, x=(3, 1), y=(2, 4)), 4),
])
def test_erasing_rejects_a_space_of_the_wrong_size(inst, index_size):
    state = StateVector.from_basis_state(StateSpace(index_size=index_size), BasisState(0, 1, 1))
    with pytest.raises(ValueError, match="erasing-oracle layout"):
        apply_erasing_query(state, inst)


def test_a_state_keeps_qsqrt2_amplitudes_and_stores_no_zero():
    space = StateSpace(index_size=2)
    h = index_register_layer(space, hadamard_matrix(1))
    state = StateVector.from_basis_state(space, BasisState(0, 1, 2))
    once = apply_unitary(state, h)
    assert len(once.entries) == 2
    for value in (once.squared_norm(), acceptance_weight(once), once.amplitude(BasisState(0, 2, 2))):
        assert type(value) is QSqrt2
    # H.H = I: the index-2 amplitude cancels and must not be stored
    twice = apply_unitary(once, h)
    assert list(twice.entries) == [space.encode(BasisState(0, 1, 2))]
    assert twice.amplitude(BasisState(0, 1, 2)) == QSqrt2(1)


def test_acceptance_examples():
    assert acceptance_probability(always_accept(4), Instance(kind="collision", n=4, x=(1, 2, 3, 4))) == QSqrt2(1)
    alg = accept_if_first_is(2, 1)
    assert acceptance_probability(alg, Instance(kind="collision", n=2, x=(1, 2))) == QSqrt2(1)
    assert acceptance_probability(alg, Instance(kind="collision", n=2, x=(2, 1))) == QSqrt2(0)


def test_incompatible_instance_rejected():
    alg = accept_if_first_is(2, 1)
    with pytest.raises(ValueError, match="incompatible"):
        acceptance_probability(alg, Instance(kind="collision", n=4, x=(1, 2, 3, 4)))


def test_exact_and_float_modes_agree():
    cases = [
        (coincidence_probe(4), Instance(kind="collision", n=4, x=(2, 2, 4, 4))),
        (coincidence_probe(4), Instance(kind="collision", n=4, x=(1, 2, 3, 4))),
        (two_query_mixer(4), Instance(kind="collision", n=4, x=(1, 1, 2, 3))),
        (setcomp_probe(2), Instance(kind="setcomp", n=2, x=(1, 2), y=(2, 1))),
    ]
    for alg, inst in cases:
        exact = float(acceptance_probability(alg, inst, "exact"))
        approx = acceptance_probability(alg, inst, "float")
        assert abs(exact - approx) < 1e-9


def rounded_and_clipped(A: int, B: int, D: int) -> float:
    return min(max(QSqrt2.float_over(A, B, D), 0.0), 1.0)


def test_float_acceptance_is_float_over_of_the_exact_sum(tmp_path):
    """Every reference circuit and a dumped and reloaded two_query_mixer(8),
    on seeded draws from their families: the float acceptance has the bits
    of QSqrt2.float_over of the exact (A, B, D), clipped to [0.0, 1.0],
    whether the sum is read unreduced from the final state or reduced from
    the exact QSqrt2."""
    path = tmp_path / "two_query_mixer8.json"
    two_query_mixer(8).dump(path)
    algs = [build() for build in REFERENCE_BUILDERS.values()] + [QueryAlgorithm.load(path)]
    rng = random.Random(53)
    seen = set()
    for alg in algs:
        for g in (g for g in (1, 2) if alg.n % g == 0):
            if alg.kind == "collision":
                point = QuasilatticePoint(g, alg.n)
            else:
                point = SuperQuasilatticePoint(g, alg.n, alg.n)
            for _ in range(3):
                inst = sample_input(point, alg.n, rng)
                exact = acceptance_probability(alg, inst, "exact")
                approx = acceptance_probability(alg, inst, "float")
                carried = alg.run(inst).square_sum(lambda ordinal: ordinal & 1)
                D, [(A, B)] = int_form([exact])
                assert QSqrt2.over(*carried) == exact
                assert type(approx) is float
                assert approx.hex() == rounded_and_clipped(*carried).hex() == rounded_and_clipped(A, B, D).hex()
                seen.add(approx in (0.0, 1.0))
    assert seen == {True, False}
    for n in (2, 3, 5):
        for _ in range(4):
            x, y = rng.sample(range(1, 2 * n + 1), n), rng.sample(range(1, 2 * n + 1), n)
            inst = Instance(kind="setcomp", n=n, x=tuple(x), y=tuple(y))
            p = erasing_setcomp_probability(inst)
            # setcomp --mode float reports float(p): the same bits
            assert float(p).hex() == rounded_and_clipped(p.numerator, 0, p.denominator).hex()


@pytest.mark.parametrize("mode", ["shots", "Float", None])
def test_an_unknown_mode_raises(mode):
    alg = coincidence_probe(4)
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'float'$"):
        acceptance_probability(alg, Instance(kind="collision", n=4, x=(2, 2, 4, 4)), mode)


def test_non_orthogonal_layer_rejected_at_construction():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    bad = Layer(space.dim, [[(0, QSqrt2(1)), (1, QSqrt2(1))]] + [[(j, QSqrt2(1))] for j in range(1, space.dim)])
    with pytest.raises(ValueError, match="orthogonal"):
        QueryAlgorithm(
            name="bad", kind="collision", n=2, T=0, oracle_kind="standard",
            space=space, layers=[bad],
        )


def test_a_row_outside_the_layer_is_refused_at_construction():
    """Row 5 of a 2-dim layer read as orthogonal once, and a negative row
    died inside np.bincount; both now name their column and row."""
    with pytest.raises(ValueError, match="^column 0: row 5 out of range 0..1$"):
        Layer(2, [[(5, QSqrt2(1))], [(1, QSqrt2(1))]])
    with pytest.raises(ValueError, match="^column 1: row -1 out of range 0..1$"):
        Layer(2, [[(0, QSqrt2(1))], [(-1, QSqrt2(1))]])
    with pytest.raises(ValueError, match="^column 2: row 3 out of range 0..2$"):
        Layer(3, [[], [(0, QSqrt2(1)), (1, QSqrt2(1))], [(2, QSqrt2(1)), (3, QSqrt2(1))]])


def test_a_row_given_twice_in_a_column_is_refused_at_construction():
    """Column 0 below is the zero vector, (1) + (-1) in row 0, yet the
    orthogonality check read it as a unit column, since its Gram triangle
    counted x^2 + xy + y^2 where the entry gives (x + y)^2; the algorithm
    then died in run with a changed squared norm."""
    with pytest.raises(ValueError, match="^column 0: row 0 given twice$"):
        Layer(2, [[(0, QSqrt2(1)), (0, QSqrt2(-1))], [(1, QSqrt2(1))]])
    # the first repeated cell in column-major order is named, not the first seen
    with pytest.raises(ValueError, match="^column 1: row 0 given twice$"):
        Layer(3, [[(0, QSqrt2(1))], [(2, QSqrt2(1)), (0, QSqrt2(1)), (0, QSqrt2(1))],
                  [(1, QSqrt2(1)), (2, QSqrt2(1)), (1, QSqrt2(1))]])
    Layer(2, [[(1, QSqrt2(1)), (0, QSqrt2(1))], [(0, QSqrt2(1))]])  # rows out of order are fine


@pytest.mark.parametrize("target", [0, -1, 5, 9])
def test_accept_if_first_is_refuses_a_target_outside_the_alphabet(target):
    with pytest.raises(ValueError, match=f"target {target} outside the alphabet 1..4"):
        accept_if_first_is(4, target)


def test_layer_count_enforced():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    with pytest.raises(ValueError, match="T\\+1"):
        QueryAlgorithm(
            name="bad", kind="collision", n=2, T=1, oracle_kind="standard",
            space=space, layers=[Layer.identity(space.dim)],
        )


def test_sample_measurement_deterministic_state():
    space = StateSpace(index_size=2)
    state = StateVector.from_basis_state(space, BasisState(0, 2, 1))
    assert sample_measurement(state, random.Random(0)) == BasisState(0, 2, 1)


def test_sample_measurement_uniform_two_state():
    space = StateSpace(index_size=2)
    h = QSqrt2.inv_sqrt2()
    state = StateVector(space, {
        space.encode(BasisState(0, 1, 1)): h,
        space.encode(BasisState(0, 2, 1)): h,
    })
    rng = random.Random(123)
    draws = 100_000
    ones = sum(1 for _ in range(draws) if sample_measurement(state, rng).index == 1)
    assert abs(ones / draws - 0.5) < 0.01


def test_sample_measurement_tracks_acceptance_probability():
    alg = coincidence_probe(4)
    inst = Instance(kind="collision", n=4, x=(2, 2, 4, 4))
    p = float(acceptance_probability(alg, inst))
    final = alg.run(inst)
    rng = random.Random(99)
    draws = 20_000
    hits = sum(1 for _ in range(draws) if sample_measurement(final, rng).output == 2)
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) < 3 * sigma + 1e-12


def test_sample_measurement_weighs_the_carried_integers(monkeypatch):
    """Each weight is QSqrt2.float_over of an entry's exact square, read
    from its integers: sampling builds no QSqrt2."""
    final = coincidence_probe(4).run(Instance(kind="collision", n=4, x=(2, 2, 4, 4)))
    states = {final.space.decode(ordinal) for ordinal in final}
    monkeypatch.setattr(QSqrt2, "over", None)
    rng = random.Random(3)
    assert {sample_measurement(final, rng) for _ in range(200)} <= states


def test_sample_measurement_weighs_each_amplitude_once(monkeypatch):
    """A state's weights are built on its first shot and kept with it: 1,000
    shots call QSqrt2.float_over once per stored amplitude, and each shot
    is the first index whose running sum exceeds its draw, as a linear
    scan over the same weights finds it."""
    final = setcomp_probe(8).run(Instance(kind="setcomp", n=8, x=(1, 1, 3, 3, 5, 5, 7, 7),
                                          y=(2, 2, 4, 4, 6, 6, 9, 9)))
    assert len(final.entries) > 1
    float_over, calls = QSqrt2.float_over, []
    monkeypatch.setattr(QSqrt2, "float_over", staticmethod(lambda *a: calls.append(a) or float_over(*a)))
    shots = [sample_measurement(final, random.Random(seed)) for seed in range(1000)]
    assert len(calls) == len(final.entries)

    weights = [float_over(*a) for a in calls]

    def scan(r):
        acc = 0.0
        for ordinal, w in zip(final.entries, weights):
            acc += w
            if r < acc:
                return final.space.decode(ordinal)
        return final.space.decode(list(final.entries)[-1])

    assert shots == [scan(random.Random(seed).random() * sum(weights)) for seed in range(1000)]


def test_sample_measurement_rejects_unnormalized():
    space = StateSpace(index_size=2)
    state = StateVector(space, {0: QSqrt2(Fraction(1, 2)), 2: QSqrt2(Fraction(1, 2))})
    with pytest.raises(ValueError, match="not normalized"):
        sample_measurement(state, random.Random(0))


def test_sample_measurement_checks_the_norm_exactly():
    """A squared norm of (1 + 2^-61)^2 rounds to the double 1.0, so only
    the exact comparison of the carried integers rejects it."""
    space = StateSpace(index_size=2)
    state = StateVector(space, {0: QSqrt2(1 + Fraction(1, 2**61))})
    assert QSqrt2.float_over(*state.square_sum()) == 1.0
    with pytest.raises(ValueError, match="^state is not normalized"):
        sample_measurement(state, random.Random(0))


def test_algorithm_json_round_trip(tmp_path):
    alg = coincidence_probe(4)
    path = tmp_path / "alg.json"
    alg.dump(path)
    loaded = QueryAlgorithm.load(path)
    inst = Instance(kind="collision", n=4, x=(3, 1, 3, 2))
    assert acceptance_probability(loaded, inst) == acceptance_probability(alg, inst)
    assert loaded.T == alg.T and loaded.space.dim == alg.space.dim


# -- integer Gram check, sparse loader, compose ----------------------------------


def reference_gram(layer: Layer) -> list[list[QSqrt2]]:
    """U^T U entry by entry in QSqrt2 arithmetic, from the dense matrix."""
    dense = to_dense(layer)
    dim = layer.dim
    return [
        [sum((dense[r][i] * dense[r][j] for r in range(dim)), ZERO) for j in range(dim)]
        for i in range(dim)
    ]


def reference_is_orthogonal(layer: Layer) -> bool:
    gram = reference_gram(layer)
    return all(
        gram[i][j] == (QSqrt2(1) if i == j else ZERO)
        for i in range(layer.dim)
        for j in range(layer.dim)
    )


def identity_except(dim: int, first_cols: list) -> Layer:
    """Identity layer whose leading columns are replaced."""
    one = QSqrt2(1)
    return Layer(dim, first_cols + [[(j, one)] for j in range(len(first_cols), dim)])


def test_gram_check_rejects_norm_off_in_sqrt2_part():
    # (1/3 + (2/3) sqrt2)^2 = 1 + (4/9) sqrt2: rational part exactly 1.
    v = QSqrt2(Fraction(1, 3), Fraction(2, 3))
    layer = identity_except(4, [[(0, v)]])
    assert (v * v).a == 1 and (v * v).b != 0
    assert not layer.is_orthogonal()
    assert not reference_is_orthogonal(layer)


def test_gram_check_rejects_columns_orthogonal_only_in_rational_part():
    # Both columns are unit vectors; their dot product is sqrt2/2.
    h = QSqrt2.inv_sqrt2()
    layer = identity_except(4, [[(0, h), (1, h)], [(0, QSqrt2(1))]])
    gram = reference_gram(layer)
    assert gram[0][0] == QSqrt2(1) and gram[1][1] == QSqrt2(1)
    assert gram[0][1].a == 0 and gram[0][1].b != 0
    assert not layer.is_orthogonal()


def test_gram_check_rejects_all_zero_column():
    layer = identity_except(4, [[]])
    assert not layer.is_orthogonal()
    assert not reference_is_orthogonal(layer)


def test_gram_check_agrees_with_reference_on_random_layers():
    space = StateSpace(index_size=3, workspace_bits=1, answer_bits=1)
    rng = random.Random(5)
    for _ in range(6):
        layer = random_orthogonal_layer(space, rng)
        assert layer.is_orthogonal() and reference_is_orthogonal(layer)
        # Scale one entry by a factor of absolute value != 1: the column
        # norm changes, so both checks must reject the result.
        cols = [list(col) for col in layer.cols]
        c = rng.randrange(space.dim)
        k = rng.randrange(len(cols[c]))
        row, v = cols[c][k]
        cols[c][k] = (row, v * rng.choice([QSqrt2(2), QSqrt2(1, 1), QSqrt2.sqrt2()]))
        broken = Layer(space.dim, cols)
        assert not broken.is_orthogonal() and not reference_is_orthogonal(broken)


def test_every_reference_circuit_layer_is_orthogonal():
    for build in REFERENCE_BUILDERS.values():
        for layer in build().layers:
            assert layer.is_orthogonal()


def dense_product(outer: Layer, inner: Layer) -> list[list[QSqrt2]]:
    """outer @ inner entry by entry in QSqrt2 arithmetic."""
    a, b = to_dense(outer), to_dense(inner)
    dim = outer.dim
    return [
        [sum((a[r][m] * b[m][c] for m in range(dim)), ZERO) for c in range(dim)]
        for r in range(dim)
    ]


def test_compose_matches_dense_product():
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    rng = random.Random(17)
    outer = random_orthogonal_layer(space, rng)
    inner = random_orthogonal_layer(space, rng)
    product = outer.compose(inner)
    assert to_dense(product) == dense_product(outer, inner)
    assert all(v != ZERO for col in product.cols for _, v in col)
    assert all(col == sorted(col, key=lambda rv: rv[0]) for col in product.cols)



def test_composed_layers_carry_the_integer_form_of_their_entries(monkeypatch):
    composed = []
    compose = Layer.compose

    def recording(self, inner):
        composed.append(compose(self, inner))
        assert composed[-1]._int_arrays is not None  # compose keeps the product's form
        return composed[-1]

    monkeypatch.setattr(Layer, "compose", recording)
    setcomp_probe(8)
    two_query_mixer(8)
    assert composed
    for layer in composed:
        D, int_cols = layer.int_cols()
        assert [[row for row, _, _ in col] for col in int_cols] == [
            [row for row, _ in col] for col in layer.cols
        ]
        assert all(
            QSqrt2.over(A, B, D) == v
            for icol, col in zip(int_cols, layer.cols)
            for (_, A, B), (_, v) in zip(icol, col)
        )
        rebuilt = Layer(layer.dim, layer.cols)
        assert rebuilt.int_cols() == (D, int_cols)
        assert rebuilt.is_orthogonal() == layer.is_orthogonal()


def test_every_list_form_is_read_from_the_stored_integer_arrays(tmp_path):
    """Every layer of every reference circuit and of a dumped and reloaded
    two_query_mixer(8), plus layers whose integers or D reach 2^53."""
    path = tmp_path / "two_query_mixer8.json"
    two_query_mixer(8).dump(path)
    algs = [build() for build in REFERENCE_BUILDERS.values()] + [QueryAlgorithm.load(path)]
    wide = [
        pythagorean_rotations(0),
        pythagorean_rotations(0).compose(pythagorean_rotations(1)),
        Layer(2, [[(0, QSqrt2(Fraction(7919 * k, 3**37), Fraction(k, 3**37)))] for k in (19, 23)]),
    ]
    for layer in [layer for alg in algs for layer in alg.layers] + wide:
        assert_same_int_arrays(Layer(layer.dim, layer.cols), layer)


def test_compose_builds_no_qsqrt2(monkeypatch):
    space = query_space("setcomp", 8)
    u0 = index_register_layer(space, hadamard_matrix(4))  # setcomp_probe(8)'s U_0
    flip = flip_output_where(space, lambda w, i: i == 1)

    def no_qsqrt2(self, *args):
        raise AssertionError("compose built a QSqrt2")

    monkeypatch.setattr(QSqrt2, "__init__", no_qsqrt2)
    product = flip.compose(u0)
    monkeypatch.undo()
    assert product.cols == setcomp_probe(8).layers[1].cols


# -- array layer kernels against the dict references -----------------------------

KERNEL_BUILDERS = {
    **REFERENCE_BUILDERS,
    "two-query-8": lambda: two_query_mixer(8),
    "coincidence-8": lambda: coincidence_probe(8),
}


@functools.lru_cache(maxsize=None)
def built_circuits():
    """(every layer of the KERNEL_BUILDERS circuits, every (outer, inner,
    product) that compose made while building them)."""
    composed = []
    compose = Layer.compose

    def recording(self, inner):
        composed.append((self, inner, compose(self, inner)))
        return composed[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Layer, "compose", recording)
        layers = [layer for build in KERNEL_BUILDERS.values() for layer in build().layers]
    return layers, composed


def perturbed(layer: Layer, rng: random.Random) -> Layer:
    """layer with one entry changed: its sign flipped, scaled by 2 or by
    sqrt 2, or moved to a row that its column does not use."""
    cols = [list(col) for col in layer.cols]
    c = rng.choice([j for j, col in enumerate(cols) if col])
    k = rng.randrange(len(cols[c]))
    row, v = cols[c][k]
    kinds = ["sign", "double", "sqrt2"] + (["move"] if len(cols[c]) < layer.dim else [])
    kind = rng.choice(kinds)
    if kind == "move":
        used = {r for r, _ in cols[c]}
        row = rng.choice([r for r in range(layer.dim) if r not in used])
    else:
        v = {"sign": -v, "double": v * QSqrt2(2), "sqrt2": v * QSqrt2.sqrt2()}[kind]
    cols[c][k] = (row, v)
    return Layer(layer.dim, cols)


@functools.lru_cache(maxsize=None)
def circuit_layer_verdicts() -> list[tuple[Layer, bool]]:
    """Each circuit layer and 20 seeded one-entry perturbations of it,
    with the dict reference's verdict."""
    rng = random.Random(41)
    layers, _ = built_circuits()
    cases = [variant for layer in layers
             for variant in [layer, *(perturbed(layer, rng) for _ in range(20))]]
    return [(layer, reference_gram_is_orthogonal(layer)) for layer in cases]


def test_gram_check_agrees_with_the_dict_reference_on_circuits_and_perturbations():
    verdicts = circuit_layer_verdicts()
    assert {expected for _, expected in verdicts} == {True, False}
    for layer, expected in verdicts:
        assert layer.is_orthogonal() == expected
    for layer in built_circuits()[0]:
        assert layer.is_orthogonal()


@pytest.mark.parametrize("chunk", [1, 7])
def test_gram_verdicts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(simulator, "_GRAM_CHUNK", chunk)
    test_gram_check_agrees_with_reference_on_random_layers()
    for layer, expected in circuit_layer_verdicts():
        assert layer.is_orthogonal() == expected


def haar_layer(levels: int) -> Layer:
    """The orthonormal Haar basis of 2^levels values, one basis vector per
    row: the scaling row and the coarsest wavelet row are dense, each
    finer level has twice the rows at half the length."""
    size = 1 << levels
    rows = [[QSqrt2.inv_sqrt2_power(levels)] * size]
    for j in range(levels):
        width, mag = size >> j, QSqrt2.inv_sqrt2_power(levels - j)
        for k in range(1 << j):
            row = [ZERO] * size
            for t in range(width):
                row[k * width + t] = mag if t < width // 2 else -mag
            rows.append(row)
    return Layer(size, [
        [(r, row[c]) for r, row in enumerate(rows) if not row[c].is_zero()] for c in range(size)
    ])


def test_gram_check_moves_past_a_row_longer_than_a_chunk():
    layer = haar_layer(8)
    longest = max(Counter(r for col in layer.cols for r, _ in col).values())
    assert longest * (longest + 1) // 2 > simulator._GRAM_CHUNK
    assert layer.is_orthogonal() and reference_gram_is_orthogonal(layer)
    rng = random.Random(8)
    verdicts = []
    for _ in range(6):
        broken = perturbed(layer, rng)
        verdicts.append(broken.is_orthogonal())
        assert verdicts[-1] == reference_gram_is_orthogonal(broken)
    assert not all(verdicts)


def test_compose_agrees_with_the_dict_reference():
    _, composed = built_circuits()
    space = StateSpace(index_size=3, workspace_bits=2, answer_bits=2)
    rng = random.Random(23)
    pairs = [(random_orthogonal_layer(space, rng), random_orthogonal_layer(space, rng))
             for _ in range(4)]
    cases = composed + [(outer, inner, outer.compose(inner)) for outer, inner in pairs]
    assert len(cases) > len(pairs)
    for outer, inner, product in cases:
        expected = reference_compose(outer, inner)
        assert product.cols == expected.cols
        assert product.int_cols() == expected.int_cols()
        for col in product.int_cols()[1]:
            rows = [r for r, _, _ in col]
            assert rows == sorted(set(rows))
            assert all(A or B for _, A, B in col)


def pythagorean_rotations(at: int, dp: int = 0) -> Layer:
    """Identity of dimension 4 but for the rotation [[p/c, -q/c], [q/c, p/c]]
    on rows and columns at, at + 1, with p, q, c the Pythagorean triple of
    m = 2^33 + 1, n = 2^32; c exceeds 2^63.  dp is added to the top-left p."""
    m, n = 2**33 + 1, 2**32
    p, q, c = m * m - n * n, 2 * m * n, m * m + n * n
    cols = [[(j, QSqrt2(1))] for j in range(4)]
    cols[at] = [(at, QSqrt2(Fraction(p + dp, c))), (at + 1, QSqrt2(Fraction(q, c)))]
    cols[at + 1] = [(at, QSqrt2(Fraction(-q, c))), (at + 1, QSqrt2(Fraction(p, c)))]
    return Layer(4, cols)


def test_layers_past_int64_run_on_python_ints(monkeypatch):
    chosen = []
    choose = simulator._int64_or_object

    def recording(bound):
        chosen.append(choose(bound))
        return chosen[-1]

    monkeypatch.setattr(simulator, "_int64_or_object", recording)
    outer, inner = pythagorean_rotations(0), pythagorean_rotations(1)
    assert outer.int_cols()[0] > 2**63
    assert outer.is_orthogonal() and inner.is_orthogonal()
    assert not pythagorean_rotations(0, dp=1).is_orthogonal()
    assert not reference_gram_is_orthogonal(pythagorean_rotations(0, dp=1))
    product = outer.compose(inner)
    assert to_dense(product) == dense_product(outer, inner)
    assert product.int_cols() == reference_compose(outer, inner).int_cols()
    assert product.is_orthogonal()
    assert chosen and set(chosen) == {object}


def test_degenerate_layers_keep_their_verdicts():
    assert Layer(0, []).is_orthogonal()
    assert Layer.identity(1).is_orthogonal()
    assert not Layer(3, [[], [], []]).is_orthogonal()
    for outer, inner in [
        (Layer(0, []), Layer(0, [])),
        (Layer(2, [[], []]), Layer.identity(2)),
        (Layer.identity(2), Layer(2, [[(1, QSqrt2(Fraction(1, 3)))], []])),
        (Layer.identity(1), Layer.identity(1)),
    ]:
        product = outer.compose(inner)
        expected = reference_compose(outer, inner)
        assert product.cols == expected.cols
        assert product.int_cols() == expected.int_cols()
        assert product.is_orthogonal() == reference_gram_is_orthogonal(expected)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Layer.identity(2).compose(Layer.identity(3))


def test_layer_json_round_trip():
    space = StateSpace(index_size=3, workspace_bits=1, answer_bits=1)
    layer = random_orthogonal_layer(space, random.Random(3))
    loaded = Layer.from_json(dense_layer_json(layer))
    assert loaded.dim == layer.dim
    assert loaded.cols == layer.cols
    # A zero written in another form is parsed and dropped like "0/1".
    doc = dense_layer_json(Layer.identity(2))
    doc[0][1] = ["0/5", "-0/3"]
    assert Layer.from_json(doc).cols == Layer.identity(2).cols
    # The sparse form that to_json writes reads back to the same columns,
    # and drops a zero written out the same way.
    assert Layer.from_json(layer.to_json()).cols == layer.cols
    doc = Layer.identity(2).to_json()
    doc["cols"][0].append([1, "0/5", "-0/3"])
    assert Layer.from_json(doc).cols == Layer.identity(2).cols


def test_layer_from_json_rejects_malformed_input():
    doc = dense_layer_json(Layer.identity(3))
    with pytest.raises(ValueError, match="square"):
        Layer.from_json([row[:2] for row in doc])
    with pytest.raises(ValueError, match="square"):
        Layer.from_json(doc[:2])
    bad_arity = [list(row) for row in doc]
    bad_arity[1][2] = ["1/1", "0/1", "0/1"]
    with pytest.raises(ValueError, match="expected \\[a, b\\]"):
        Layer.from_json(bad_arity)
    bad_number = [list(row) for row in doc]
    bad_number[2][0] = ["one", "0/1"]
    with pytest.raises(ValueError):
        Layer.from_json(bad_number)


# -- integer layer kernel against the QSqrt2 reference ---------------------------


def reference_apply_unitary(state: StateVector, layer: Layer) -> StateVector:
    """The layer product as one QSqrt2 multiply-add per nonzero, in entry
    order, zero sums dropped: the loop the integer kernel replaced."""
    cols = layer.cols
    out = {}
    for ordinal, amp in state.items():
        for row, v in cols[ordinal]:
            cur = out.get(row)
            out[row] = v * amp if cur is None else cur + v * amp
    return StateVector(state.space, {k: v for k, v in out.items() if v})


def random_qsqrt2(rng: random.Random) -> QSqrt2:
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16]))

    v = QSqrt2(part(), part())
    return v if v else QSqrt2(Fraction(1, rng.choice([3, 5, 7])))


def random_states(space: StateSpace, layer: Layer, rng: random.Random):
    """Unnormalized states with mixed denominators.  A combination of rows
    of the layer maps onto those rows' basis states, so every other output
    row cancels to zero."""
    dense = to_dense(layer)
    for _ in range(4):
        ordinals = rng.sample(range(space.dim), rng.randint(1, space.dim))
        yield StateVector(space, {k: random_qsqrt2(rng) for k in ordinals})
    for size in (1, 2, 3):
        entries: dict = {}
        for r in rng.sample(range(space.dim), size):
            c = random_qsqrt2(rng)
            for j, v in enumerate(dense[r]):
                if v:
                    entries[j] = entries.get(j, ZERO) + c * v
        yield StateVector(space, {k: v for k, v in entries.items() if v})


def test_integer_kernel_matches_the_qsqrt2_reference():
    rng = random.Random(31)
    cancelled = 0
    for space in (StateSpace(index_size=3, workspace_bits=2, answer_bits=2),
                  StateSpace(index_size=4, workspace_bits=1, answer_bits=1)):
        for _ in range(4):
            layer = random_orthogonal_layer(space, rng)
            for state in random_states(space, layer, rng):
                out = apply_unitary(state, layer)
                expected = reference_apply_unitary(state, layer)
                assert list(out.items()) == list(expected.items())
                assert all(type(v) is QSqrt2 for v in out.values())
                cancelled += len(out) < len(state)
    assert cancelled


def exact_acceptance_digest(per_point: int = 6) -> str:
    """sha256 over the exact acceptances of seeded (1, 8) and (2, 8) draws."""
    import hashlib

    from collisionlab.instances import QuasilatticePoint, sample_collision_input

    rng = random.Random(8)
    lines = []
    for name, alg in (("coincidence", coincidence_probe(8)), ("mixer", two_query_mixer(8))):
        for g in (1, 2):
            for _ in range(per_point):
                inst = sample_collision_input(QuasilatticePoint(g, 8), 8, rng)
                p = acceptance_probability(alg, inst)
                lines.append(f"{name} {g} {inst.x} {p.a} {p.b}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_exact_acceptances_of_a_seeded_batch_are_pinned():
    # Taken from the QSqrt2 multiply-add kernel that the integer one replaced.
    assert exact_acceptance_digest() == (
        "fd3e65633e81d510e6e0d5c2346c78889ee973ab6b5b6cf5497fb2d3aeda273e"
    )


# -- the per-layer norm check ------------------------------------------------------


@pytest.mark.parametrize("amps, first_cols, before, after", [
    # only the rational part changes: the norm has a sqrt(2) part that stays
    ({0: QSqrt2(1, 1), 1: QSqrt2(1)}, [[(0, QSqrt2(1))], [(1, QSqrt2(1)), (2, QSqrt2(1))]],
     "QSqrt2(4 + 2*sqrt2)", "QSqrt2(5 + 2*sqrt2)"),
    ({0: QSqrt2(Fraction(1, 2))}, [[(0, QSqrt2(2))]], "QSqrt2(1/4)", "QSqrt2(1)"),
    # only the sqrt(2) part changes: (1/3 + (2/3) sqrt2)^2 = 1 + (4/9) sqrt2
    ({0: QSqrt2(2), 1: QSqrt2(1)}, [[(0, QSqrt2(Fraction(1, 3), Fraction(2, 3)))]],
     "QSqrt2(5)", "QSqrt2(5 + 16/9*sqrt2)"),
    # unit columns whose dot product is sqrt2/2
    ({0: QSqrt2(1), 1: QSqrt2(1)}, [[(0, QSqrt2.inv_sqrt2()), (1, QSqrt2.inv_sqrt2())], [(0, QSqrt2(1))]],
     "QSqrt2(2)", "QSqrt2(2 + 1*sqrt2)"),
])
def test_non_orthogonal_layer_breaks_the_exact_norm_check(amps, first_cols, before, after):
    space = StateSpace(index_size=2, workspace_bits=1, answer_bits=1)
    layer = identity_except(space.dim, first_cols)
    message = f"unitary layer changed the squared norm from {before} to {after}"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        apply_unitary(StateVector(space, dict(amps)), layer)


# -- runtime checks survive python -O --------------------------------------------

OPTIMIZED_SCRIPT = """
import random, sys
from fractions import Fraction
from collisionlab import simulator
from collisionlab.qsqrt2 import QSqrt2
from collisionlab.circuits import coincidence_probe
from collisionlab.instances import Instance, _uniform_k_to_one

assert False, "asserts are live"  # stripped under -O
failures = []
try:
    _uniform_k_to_one(5, (1, 2), 2, random.Random(0))
    failures.append("pool size check")
except ValueError:
    pass

space = simulator.StateSpace(index_size=2)
skew = simulator.Layer(space.dim, [[(0, QSqrt2(Fraction(1, 3), Fraction(2, 3)))]]
                       + [[(j, QSqrt2(1))] for j in range(1, space.dim)])
try:
    simulator.apply_unitary(simulator.StateVector.from_basis_state(
        space, simulator.BasisState(0, 1, 1)), skew)
    failures.append("layer norm check")
except AssertionError:
    pass

alg = coincidence_probe(4)
real = simulator.apply_unitary
def unnormalized(state, layer):
    out = real(state, layer)
    return simulator.StateVector(out.space, {k: v * 2 for k, v in out.items()})
simulator.apply_unitary = unnormalized
simulator._check_norm_preserved = lambda *args: None
try:
    alg.run(Instance(kind="collision", n=4, x=(1, 2, 3, 4)))
    failures.append("final norm check")
except AssertionError:
    pass
print(sys.flags.optimize, failures)
"""


def test_runtime_checks_survive_optimized_mode():
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
    assert proc.stdout.strip() == "1 []"
