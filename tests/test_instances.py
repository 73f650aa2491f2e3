"""Instance construction, parameter grids, samplers and enumerators."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisionlab.instances import (
    ConfigError,
    EnumerationTooLarge,
    Instance,
    Latent,
    QuasilatticePoint,
    SuperQuasilatticePoint,
    _iroot,
    _k_to_one_sequences,
    count_supports,
    divisor_points,
    enumerate_rows,
    enumerate_supports,
    enumerate_table,
    instance_from_latent,
    is_k_to_one,
    kappa,
    quasilattice_points,
    sample_input,
    sample_rows,
    set_union_size,
    super_quasilattice_points,
    validate_instance,
)
from helpers import fraction_of_small_unions, is_quasilattice_point, is_super_quasilattice_point


def test_kappa_values():
    assert kappa(1) == 1
    assert kappa(2) == 1
    assert kappa(3) == 9
    assert kappa(4) == 25
    with pytest.raises(ValueError):
        kappa(0)


def test_quasilattice_examples():
    assert quasilattice_points(100, 3, 2) == [(1, 100), (2, 100), (2, 102)]
    assert quasilattice_points(100, 3, 3) == [(1, 100), (2, 100), (2, 102), (3, 102)]
    # g = 1 contributes exactly (1, n) at any size
    for n in (4, 10, 50):
        pts = [p for p in quasilattice_points(n, 2, 2) if p.g == 1]
        assert pts == [(1, n)]


def test_quasilattice_recheck_conditions():
    for n, T, G in [(100, 3, 3), (36, 2, 6), (10**4, 33, 30)]:
        for g, N in quasilattice_points(n, T, G):
            assert is_quasilattice_point(g, N, n, T)
            assert N % g == 0 and 1 <= g * g <= n
            assert n <= N and (N - n) * 10 * T <= n
            assert g != 1 or N == n


def test_quasilattice_g_out_of_range():
    with pytest.raises(ValueError, match="g out of range"):
        quasilattice_points(100, 3, 11)


def test_super_quasilattice_examples():
    assert super_quasilattice_points(100, 2, 4) == [
        (1, 100, 100),
        (2, 100, 100),
        (4, 100, 100),
    ]
    # g = 3 excluded at n = 100 since 3 does not divide 100
    assert all(p.g != 3 for p in super_quasilattice_points(100, 2, 3))
    # g = 2 always pins M = n
    for p in super_quasilattice_points(1000, 1, 2):
        if p.g == 2:
            assert p.M == 1000
    with pytest.raises(ValueError, match="g out of range"):
        super_quasilattice_points(100, 2, 5)
    # an integer cube root: a float one puts this bound at 9999999999999980
    with pytest.raises(ConfigError, match=r"the largest admissible G is 10000000000000000 "):
        super_quasilattice_points((10**16 + 1) ** 3 - 1, 1, 10**17)


def test_super_quasilattice_recheck():
    for p in super_quasilattice_points(1000, 1, 10):
        assert is_super_quasilattice_point(p.g, p.N, p.M, 1000, 1)
        assert p.N % p.g == 0 and p.M % kappa(p.g) == 0


def test_sample_permutation_at_g1():
    rng = random.Random(0)
    inst = sample_input(QuasilatticePoint(1, 8), 8, rng)
    assert sorted(inst.x) == list(range(1, 9))
    assert validate_instance(inst, 1)


def test_sample_two_to_one_at_g2():
    rng = random.Random(1)
    inst = sample_input(QuasilatticePoint(2, 8), 8, rng)
    assert validate_instance(inst, 2)
    assert set(inst.x) == set(inst.latent.s)


def test_sample_truncation_keeps_latent_exact():
    rng = random.Random(2)
    inst = sample_input(QuasilatticePoint(2, 10), 8, rng)
    latent = inst.latent
    assert isinstance(latent, Latent) and latent.ranges == ()
    assert len(latent.seqs[0]) == 10
    assert is_k_to_one(latent.seqs[0], 2)  # the untruncated draw is exactly 2-to-1
    assert inst.x == latent.seqs[0][:8]
    assert len(latent.s) == 5


def test_enumeration_counts_match_closed_form():
    cases = [
        (QuasilatticePoint(2, 4), 4, 36),
        (QuasilatticePoint(1, 2), 2, 2),
        (QuasilatticePoint(3, 6), 6, 300),
    ]
    for point, n, expected in cases:
        assert count_supports(point, n) == expected
        assert sum(1 for _ in enumerate_supports(point, n)) == expected


def test_enumeration_is_deterministic_and_unique():
    seen = list(enumerate_supports(QuasilatticePoint(2, 4), 4))
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen, key=lambda lat: (lat.s, lat.seqs[0]))


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_supports(QuasilatticePoint(1, 12), 12, cap=1000))


def test_sampling_frequencies_uniform_over_latents():
    rng = random.Random(20240809)
    draws = 100_000
    counts: dict[Latent, int] = {}
    for _ in range(draws):
        inst = sample_input(QuasilatticePoint(2, 4), 4, rng)
        counts[inst.latent] = counts.get(inst.latent, 0) + 1
    assert len(counts) == 36
    expected = draws / 36
    sigma = math.sqrt(draws * (1 / 36) * (35 / 36))
    for latent, c in counts.items():
        assert abs(c - expected) <= 4 * sigma, (latent, c)


def test_setcomp_sampler_structure():
    rng = random.Random(3)
    # kappa(1) = 1: independent injections into a size-2n range set
    inst = sample_input(SuperQuasilatticePoint(1, 8, 8), 8, rng)
    assert validate_instance(inst, 1)
    assert len(inst.latent.s) == 16 and len(inst.latent.ranges[0]) == 8
    # kappa(2) = 1 but |S| = n: ranges overlap inside one small set
    inst2 = sample_input(SuperQuasilatticePoint(2, 8, 8), 8, rng)
    assert validate_instance(inst2, 1)
    assert len(inst2.latent.s) == 8
    assert set(inst2.x) <= set(inst2.latent.s) and set(inst2.y) <= set(inst2.latent.s)
    # kappa(3) = 9: latent draw is 9-to-1
    inst3 = sample_input(SuperQuasilatticePoint(3, 99, 99), 99, rng)
    assert is_k_to_one(inst3.latent.seqs[0], 9)
    assert len(inst3.latent.ranges[0]) == 11


def test_set_union_size():
    eq = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(4, 3, 2, 1))
    assert set_union_size(eq) == 4
    dis = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(5, 6, 7, 8))
    assert set_union_size(dis) == 8
    x = tuple(range(1, 21))
    y = tuple(range(3, 21)) + (21, 22)
    assert set_union_size(Instance(kind="setcomp", n=20, x=x, y=y)) == 22
    with pytest.raises(ValueError):
        set_union_size(Instance(kind="collision", n=4, x=(1, 2, 3, 4)))


def test_fraction_of_small_unions_needs_a_draw():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="no draws were asked for"):
            fraction_of_small_unions(8, samples, random.Random(1))


def test_validate_instance_examples():
    assert validate_instance(Instance(kind="collision", n=4, x=(1, 2, 3, 4)), 1)
    assert validate_instance(Instance(kind="collision", n=4, x=(1, 1, 3, 3)), 2)
    assert not validate_instance(Instance(kind="collision", n=4, x=(1, 1, 2, 3)), 2)


def test_instance_validation_errors():
    with pytest.raises(ValueError):
        Instance(kind="collision", n=4, x=(1, 2, 3, 5))  # value out of range
    with pytest.raises(ValueError):
        Instance(kind="setcomp", n=4, x=(1, 2, 3, 4))  # missing y
    with pytest.raises(ValueError):
        Instance(kind="nonsense", n=4, x=(1, 2, 3, 4))


def test_instance_json_round_trip(tmp_path):
    # both families, in one test so that it keeps its name
    for point in (QuasilatticePoint(2, 10), SuperQuasilatticePoint(2, 8, 8)):
        rng = random.Random(4)
        inst = sample_input(point, 8, rng)
        path = tmp_path / "inst.json"
        inst.dump(path)
        loaded = Instance.load(path)
        assert loaded.x == inst.x and loaded.y == inst.y
        assert loaded.latent == inst.latent


def test_setcomp_enumeration_count():
    point = SuperQuasilatticePoint(1, 2, 2)
    assert count_supports(point, 2) == 144
    latents = list(enumerate_supports(point, 2))
    assert len(latents) == 144
    assert len(set(latents)) == 144


def test_setcomp_enumeration_is_lexicographic():
    latents = list(enumerate_supports(SuperQuasilatticePoint(1, 2, 2), 2))
    assert latents == sorted(
        latents, key=lambda lat: (lat.s, *lat.ranges, *lat.seqs)
    )


@pytest.mark.parametrize(
    "k, width", [(k, w) for k in (1, 2, 3) for w in range(5) if k * w <= 9]
)
def test_k_to_one_sequences_are_the_distinct_permutations_in_order(k, width):
    rng = random.Random(10 * k + width)
    values = tuple(sorted(rng.sample(range(1, 10), width)))
    pool = [v for v in values for _ in range(k)]
    seqs = list(_k_to_one_sequences(values, k))
    assert seqs == sorted(set(itertools.permutations(pool)))
    assert len(seqs) == math.factorial(k * width) // math.factorial(k) ** width


def test_divisor_points():
    assert divisor_points(4, 8) == [(1, 4), (2, 4), (2, 6), (2, 8)]
    assert divisor_points(6, 8) == [(1, 6), (2, 6), (2, 8)]


@settings(max_examples=100, deadline=None)
@given(
    half_n=st.integers(1, 60),
    T=st.integers(1, 5),
    slack=st.integers(1, 12),
    max_N=st.integers(0, 450),
    data=st.data(),
)
def test_grids_are_the_brute_force_filter_of_their_predicates(half_n, T, slack, max_N, data):
    n = 2 * half_n
    window = range(n - 1, n + n // (slack * T) + 2)  # one past each end
    G = data.draw(st.integers(1, math.isqrt(n)))
    assert quasilattice_points(n, T, G, slack) == [
        (g, N) for g in range(1, G + 1) for N in window if is_quasilattice_point(g, N, n, T, slack)
    ]
    G = data.draw(st.integers(1, _iroot(n, 3)))
    assert super_quasilattice_points(n, T, G, slack) == [
        (g, N, M)
        for g in range(1, G + 1)
        for N in window
        for M in window
        if is_super_quasilattice_point(g, N, M, n, T, slack)
    ]
    assert divisor_points(n, max_N) == [
        (g, N)
        for g in range(1, n + 1)
        for N in range(n - 1, max(max_N, n) + 2)
        if g * g <= n and N % g == 0 and n <= N <= max_N and N // g <= n and (g > 1 or N == n)
    ]


def test_integer_root():
    for n in (0, 1, 7, 8, 9, 26, 27, 28, 10**6, (10**16 + 1) ** 3 - 1, 10**300):
        for k in (2, 3):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k


@pytest.mark.parametrize(
    "point, n, message",
    [
        ((0, 4), 4, "invalid point QuasilatticePoint(g=0, N=4) for n=4: g must be >= 1"),
        ((3, 4), 4, "invalid point QuasilatticePoint(g=3, N=4) for n=4"),
        ((2, 10), 4, "invalid point QuasilatticePoint(g=2, N=10) for n=4"),
        ((1, 2), 4, "invalid point QuasilatticePoint(g=1, N=2) for n=4"),
        ((0, 2, 2), 2, "invalid point SuperQuasilatticePoint(g=0, N=2, M=2) for n=2: g must be >= 1"),
        ((1, 2, 1), 2, "invalid point SuperQuasilatticePoint(g=1, N=2, M=1) for n=2"),
        ((3, 3, 3), 2, "invalid point SuperQuasilatticePoint(g=3, N=3, M=3) for n=2"),
        ((1, 3, 3), 2, "invalid point SuperQuasilatticePoint(g=1, N=3, M=3) for n=2"),
        ((2, 2, 4), 2, "invalid point SuperQuasilatticePoint(g=2, N=2, M=4) for n=2"),
        ((1,), 4, "a family point is (g, N) or (g, N, M), got (1,)"),
    ],
)
def test_sampler_count_and_enumerator_reject_a_point_alike(point, n, message):
    draws = [
        lambda: sample_input(point, n, random.Random(0)),
        lambda: sample_rows(point, n, 1, random.Random(0)),
        lambda: count_supports(point, n),
        lambda: list(enumerate_supports(point, n)),
        lambda: list(enumerate_rows(point, n)),
    ]
    for draw in draws:
        with pytest.raises(ConfigError) as exc:
            draw()
        assert str(exc.value) == message


def _enumerable_points():
    """Every valid point with g <= 4 and at most 10^4 latent draws: (g, N)
    at n = 4, (g, N, M) at n = 2.  The boxes hold all of them, since |S|
    caps N, and past M = 25 every count exceeds 10^4."""
    boxes = [
        (4, itertools.product(range(1, 5), range(1, 17))),
        (2, itertools.product(range(1, 5), range(1, 9), range(1, 26))),
    ]
    for n, points in boxes:
        for point in points:
            try:
                total = count_supports(point, n)
            except ConfigError:
                continue
            if total <= 10**4:
                yield point, n, total


ENUMERABLE_POINTS = list(_enumerable_points())


@pytest.mark.parametrize("point, n, total", ENUMERABLE_POINTS)
def test_count_enumeration_and_sampler_agree(point, n, total):
    latents = list(enumerate_supports(point, n))
    assert len(latents) == total == len(set(latents))
    rng = random.Random(sum(point))
    for _ in range(200):
        inst = sample_input(point, n, rng)
        assert inst.latent in latents


@pytest.mark.parametrize("point, n, total", ENUMERABLE_POINTS)
def test_latents_are_lexicographic_and_rows_are_their_inputs(point, n, total):
    latents = list(enumerate_supports(point, n))
    assert latents == sorted(latents, key=lambda lat: tuple(vars(lat).values()))
    rows = list(enumerate_rows(point, n))
    inputs = [instance_from_latent(latent, n) for latent in latents]
    assert [row.tolist() for row in rows] == [list(inst.x + (inst.y or ())) for inst in inputs]
    assert len(rows) == total == count_supports(point, n)


@pytest.mark.parametrize("point, n, total", ENUMERABLE_POINTS)
def test_from_row_inverts_row_and_the_width_sets_the_kind(point, n, total):
    """Instance.from_row reads back every enumerated row, and Instance.row
    is the row of the latent draw's input: x, then y."""
    kind_of_width = {n: "collision", 2 * n: "setcomp"}
    rows = enumerate_rows(point, n)
    for latent, row in zip(enumerate_supports(point, n), rows, strict=True):
        inst = Instance.from_row(row, n)
        assert inst.row == tuple(row.tolist()) == instance_from_latent(latent, n).row
        assert inst.kind == kind_of_width[len(row)]
        assert inst.registers == ((inst.x,) if inst.kind == "collision" else (inst.x, inst.y))


@pytest.mark.parametrize("width", [0, 1, 3, 5, 7, 9, 12])
def test_from_row_rejects_a_row_of_any_other_width(width):
    with pytest.raises(ValueError, match=f"a row of {width} values is no input of length n=4"):
        Instance.from_row(list(range(1, width + 1)), 4)


@pytest.mark.parametrize("point, n, total", ENUMERABLE_POINTS)
def test_rows_are_one_dimensional_and_pack_into_the_table_of_their_inputs(point, n, total):
    width = n * (len(point) - 1)
    rows = list(enumerate_rows(point, n))
    assert all(row.shape == (width,) for row in rows)
    table = enumerate_table(point, n)
    empty = table[:0]
    assert empty.shape == (0, width)
    inputs = [instance_from_latent(latent, n) for latent in enumerate_supports(point, n)]
    want = np.array([inst.x + (inst.y or ()) for inst in inputs], dtype=empty.dtype)
    assert np.stack(rows).dtype == empty.dtype
    assert table.shape == (total, width)
    assert np.array_equal(table, want)
    # kept rows still hold their draws once the stream has moved on
    assert np.array_equal(np.array(rows), want)
    assert np.array_equal(np.array(list(enumerate_rows(point, n))), want)


TABLE_POINTS = [(point, n) for point, n, _ in ENUMERABLE_POINTS] + [
    (point, n) for n in range(1, 9) for point in divisor_points(n, 8)
]


@pytest.mark.parametrize("point, n", TABLE_POINTS)
def test_the_table_holds_the_input_of_every_latent_draw_in_order(point, n):
    table = enumerate_table(point, n)
    universe = n * (len(point) - 1)
    assert table.shape == (count_supports(point, n), universe)
    assert table.dtype == np.min_scalar_type(universe)
    inputs = (instance_from_latent(latent, n).row for latent in enumerate_supports(point, n))
    assert list(map(tuple, table.tolist())) == list(inputs)


def test_rows_past_the_cap_raise_on_the_first_draw():
    rows = enumerate_rows(QuasilatticePoint(1, 12), 12, cap=1000)
    with pytest.raises(EnumerationTooLarge):
        next(rows)
    with pytest.raises(EnumerationTooLarge):
        enumerate_table((1, 12), 12, cap=1000)
