"""Reference algorithms: erasing comparison, Grover, collision finding."""

import random
from fractions import Fraction

import pytest

from collisionlab.algorithms import (
    bht_collision,
    classical_birthday,
    collision_benchmark,
    erasing_setcomp_decide,
    erasing_setcomp_probability,
    grover_iterations,
    grover_search,
    two_to_one_instance,
)
from collisionlab.instances import ConfigError, Instance, set_union_size
from helpers import erasing_setcomp_reference, grover_success_probability, one_to_one_instance


def equal_sets_instance(n: int) -> Instance:
    return Instance(
        kind="setcomp", n=n, x=tuple(range(1, n + 1)), y=tuple(reversed(range(1, n + 1)))
    )


def boundary_instance() -> Instance:
    x = tuple(range(1, 21))
    y = tuple(range(3, 21)) + (21, 22)
    return Instance(kind="setcomp", n=20, x=x, y=y)


# -- erasing set comparison ------------------------------------------------------


def test_equal_sets_give_zero():
    inst = equal_sets_instance(4)
    assert erasing_setcomp_probability(inst) == 0


def test_disjoint_sets_give_half():
    inst = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(5, 6, 7, 8))
    assert erasing_setcomp_probability(inst) == Fraction(1, 2)


def test_boundary_union_gives_at_least_one_twentieth():
    inst = boundary_instance()
    assert set_union_size(inst) == 22
    p = erasing_setcomp_probability(inst)
    assert p >= Fraction(1, 20)


def test_simulated_probability_matches_set_arithmetic():
    rng = random.Random(17)
    for _ in range(10):
        x = tuple(rng.sample(range(1, 17), 8))
        y = tuple(rng.sample(range(1, 17), 8))
        inst = Instance(kind="setcomp", n=8, x=x, y=y)
        assert erasing_setcomp_probability(inst) == erasing_setcomp_reference(inst)


@pytest.mark.parametrize("inst, exact, approx", [
    (equal_sets_instance(4), Fraction(0), 0.0),
    (boundary_instance(), Fraction(1, 20), 0.05),
    (Instance(kind="setcomp", n=6, x=(9, 7, 5, 6, 10, 2), y=(12, 9, 5, 2, 1, 11)),
     Fraction(1, 4), 0.25),
    (Instance(kind="setcomp", n=6, x=(7, 12, 5, 9, 6, 8), y=(11, 7, 3, 9, 1, 2)),
     Fraction(1, 3), 0.3333333333333333),
])
def test_erasing_probability_keeps_its_types_and_bits(inst, exact, approx):
    # Float values are pinned bit for bit: the exact Fraction rounded once,
    # as setcomp --mode float reports it.  The float run on 1/sqrt(2n)
    # amplitudes that this replaced read 0.05000000000000001,
    # 0.25000000000000006 and 0.3333333333333334.
    p = erasing_setcomp_probability(inst)
    assert type(p) is Fraction and p == exact
    assert float(p).hex() == approx.hex()


def test_erasing_decide_shots():
    rng = random.Random(5)
    assert erasing_setcomp_decide(equal_sets_instance(4), 25, rng) == "equal"
    dis = Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(5, 6, 7, 8))
    assert erasing_setcomp_decide(dis, 25, rng) == "far"


def test_erasing_decide_rejects_non_injective():
    inst = Instance(kind="setcomp", n=4, x=(1, 1, 3, 4), y=(5, 6, 7, 8))
    with pytest.raises(ConfigError, match="non-injective"):
        erasing_setcomp_decide(inst, 1, random.Random(0))


# -- Grover ----------------------------------------------------------------------


def close(probs, want) -> bool:
    return len(probs) == len(want) and all(abs(p - w) <= 1e-12 for p, w in zip(probs, want))


def test_grover_single_marked_m4_is_certain():
    assert close(grover_search([3], 4, 1), [0, 0, 1, 0])


def test_grover_zero_iterations_uniform():
    assert close(grover_search([2], 4, 0), [1 / 4] * 4)


def test_grover_no_marked_stays_uniform():
    assert close(grover_search([], 8, 5), [1 / 8] * 8)


def test_grover_matches_closed_form():
    for m, marked, t in [(8, [5], 2), (16, [1, 9], 3), (16, [4], 1)]:
        probs = grover_search(marked, m, t)
        weight = sum(probs[v - 1] for v in marked)
        assert abs(weight - grover_success_probability(len(marked), m, t)) < 1e-12


@pytest.mark.parametrize("marked, m, iterations, hot, cold", [
    ([2, 9, 11], 16, 2, "0x1.a480000000000p-3", "0x1.e400000000000p-6"),
    ([5], 7, 3, "0x1.5200000000000p-2", "0x1.87ffffffffffep-4"),  # padded to 8
])
def test_grover_search_keeps_its_bits(marked, m, iterations, hot, cold):
    # Pinned before the exact Grover branch was removed: the numpy
    # iteration that bht_collision runs, read over the padded domain.
    probs = grover_search(marked, m, iterations)
    assert [p.hex() for p in probs] == [
        hot if i in marked else cold for i in range(1, len(probs) + 1)
    ]
    assert len(probs) == 1 << (m - 1).bit_length()


def test_grover_iterations_choice():
    assert grover_iterations(1, 4) == 1
    assert grover_iterations(4, 64) >= 3


# -- collision finding ------------------------------------------------------------


def test_bht_never_errs_on_injective():
    for trial in range(50):
        rng = random.Random(trial)
        inst = one_to_one_instance(27, rng)
        result = bht_collision(inst, rng)
        assert result.decision == "one-to-one"


@pytest.mark.parametrize("x", [(1,), (1, 2), (2, 1)])
def test_bht_on_a_fully_sampled_one_to_one_input(x):
    # n <= 2: the classical sample covers every position, so no Grover step
    inst = Instance("collision", len(x), x)
    for seed in range(5):
        result = bht_collision(inst, random.Random(seed))
        assert result.decision == "one-to-one"
        assert result.collision is None
        assert result.queries_used == len(x)


def test_bht_finds_collisions():
    for n in (27, 64):
        row = collision_benchmark("bht", n, 200, seed=99)
        assert row["success_rate"] >= 2 / 3
        # constant in front of n^(1/3) is reported, not asserted
        assert row["mean_queries"] < 10 * n ** (1 / 3)


def test_bht_collision_verified():
    rng = random.Random(12)
    inst = two_to_one_instance(64, rng)
    result = bht_collision(inst, rng)
    if result.decision == "collision":
        i, j = result.collision
        assert i != j and inst.x[i - 1] == inst.x[j - 1]


def test_birthday_baseline():
    rng = random.Random(0)
    inst = one_to_one_instance(64, rng)
    assert classical_birthday(inst, rng, 24).decision == "one-to-one"
    row = collision_benchmark("birthday", 64, 300, seed=11)
    assert row["success_rate"] >= 0.9


def test_birthday_pair_is_verified():
    rng = random.Random(8)
    for _ in range(20):
        inst = two_to_one_instance(16, rng)
        result = classical_birthday(inst, rng, 16)
        if result.decision == "collision":
            i, j = result.collision
            assert inst.x[i - 1] == inst.x[j - 1] and i < j


def test_trials_deterministic_under_seed():
    a = collision_benchmark("bht", 27, 50, seed=123)
    b = collision_benchmark("bht", 27, 50, seed=123)
    assert a == b
