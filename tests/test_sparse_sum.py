"""The one exact per-key sum (simulator._summed) and its budgeted fold
(simulator._folded) against a dict of Python ints: one entry per key
whose sums are not both zero, keys ascending, whatever the key type and
however the rows are cut into blocks."""

import random

import numpy as np
import pytest

from collisionlab import simulator
from collisionlab.simulator import _folded, _summed


def reference_sums(keys, a, b) -> list[tuple[int, int, int]]:
    """(key, sum of a, sum of b) per key with a nonzero sum, ascending."""
    sums: dict[int, list[int]] = {}
    for k, x, y in zip(keys, a, b):
        pair = sums.setdefault(int(k), [0, 0])
        pair[0] += int(x)
        pair[1] += int(y)
    return [(k, x, y) for k, (x, y) in sorted(sums.items()) if x or y]


def as_triples(keys, a, b) -> list[tuple[int, int, int]]:
    return list(zip(map(int, keys), map(int, a), map(int, b)))


def test_summed_drops_cancelled_keys_and_sorts_int64_keys():
    keys = np.array([5, 1, 5, 3, 1, 3, 9], dtype=np.int64)
    a = np.array([1, 2, -1, 4, 0, -4, 0], dtype=np.int64)
    b = np.array([2, 3, 0, 1, -3, -1, 0], dtype=np.int64)
    got = _summed(keys, a, b)
    # key 1 keeps its a, key 5 its b; keys 3 and 9 sum to zero in both
    assert as_triples(*got) == [(1, 2, 0), (5, 0, 2)] == reference_sums(keys, a, b)
    assert [x.dtype for x in got] == [np.dtype(np.int64)] * 3


def test_summed_reads_python_int_keys_and_sums():
    big = 2**70
    keys = np.array([3 * big, big, 3 * big, 2 * big, big], dtype=object)
    a = np.array([big, 1, -big, 7, -1], dtype=object)
    b = np.array([0, big, 1, -7, -big], dtype=object)
    got = _summed(keys, a, b)
    assert as_triples(*got) == [(2 * big, 7, -7), (3 * big, 0, 1)] == reference_sums(keys, a, b)
    assert [x.dtype for x in got] == [np.dtype(object)] * 3


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_summed_of_nothing_is_empty(dtype):
    empty = np.zeros(0, dtype=dtype)
    got = _summed(empty, empty, empty)
    assert [len(x) for x in got] == [0, 0, 0]
    assert [x.dtype for x in got] == [np.dtype(dtype)] * 3


def random_blocks(seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of 0 to 12 rows over 20 keys with values in -2..2, so keys
    repeat within and across blocks and many sums cancel."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(rng.randint(1, 15)):
        size = rng.randint(0, 12)
        blocks.append(tuple(
            np.array([rng.randrange(lo, hi) for _ in range(size)], dtype=np.int64)
            for lo, hi in ((0, 20), (-2, 3), (-2, 3))
        ))
    return blocks


@pytest.fixture
def summed_calls(monkeypatch) -> list[int]:
    """The row count of every _summed call that _folded makes."""
    calls = []
    summed = simulator._summed

    def counting(keys, a, b):
        calls.append(len(keys))
        return summed(keys, a, b)

    monkeypatch.setattr(simulator, "_summed", counting)
    return calls


@pytest.mark.parametrize("budget", [1, 7, 1 << 20])
@pytest.mark.parametrize("seed", range(12))
def test_folded_equals_one_sum_of_the_concatenated_blocks(seed, budget):
    blocks = random_blocks(seed)
    whole = [np.concatenate(part) for part in zip(*blocks)]
    want = _summed(*whole)
    got = _folded(iter(blocks), budget)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert as_triples(*got) == reference_sums(*whole)


def test_folded_folds_block_sums_past_a_small_budget(summed_calls):
    ones, zeros = np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    blocks = [(np.arange(k, k + 4, dtype=np.int64), ones, zeros) for k in range(0, 40, 4)]
    keys, a, b = _folded(iter(blocks), 1)
    assert keys.tolist() == list(range(40))
    # one sum per block, and some sums of the block sums before the last
    assert len(summed_calls) > len(blocks) + 1


def test_folded_returns_a_single_block_sum_as_it_is(summed_calls):
    block = (np.array([4, 2, 4], dtype=np.int64), np.array([1, 1, 1], dtype=np.int64),
             np.array([0, 0, 0], dtype=np.int64))
    keys, a, b = _folded(iter([block]), 1)
    assert summed_calls == [3]
    assert as_triples(keys, a, b) == [(2, 1, 0), (4, 2, 0)]


def test_folded_of_no_blocks_is_empty():
    got = _folded(iter([]), 7)
    assert [len(x) for x in got] == [0, 0, 0]
    assert [x.dtype for x in got] == [np.dtype(np.int64)] * 3
