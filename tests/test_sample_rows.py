"""Trust checks for instances.sample_rows, the one-table Monte Carlo
sampler: its rows follow enumerate_rows' distribution, every row is a
member of its family, a seed fixes the table, and drawing it never
imports numpy.random."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import collisionlab
from collisionlab.circuits import coincidence_probe
from collisionlab.instances import (
    QuasilatticePoint,
    SuperQuasilatticePoint,
    _shape,
    enumerate_rows,
    sample_rows,
)
from collisionlab.polymethod import expected_acceptance_mc, extract_polynomial
from collisionlab.setcomp_poly import expected_acceptance3_mc


@pytest.mark.parametrize("point, n", [
    (QuasilatticePoint(2, 4), 4),
    (QuasilatticePoint(2, 6), 4),
    (SuperQuasilatticePoint(1, 2, 2), 2),
    (SuperQuasilatticePoint(2, 2, 2), 2),
])
def test_row_frequencies_follow_the_enumerated_multiplicities(point, n):
    draws = 100_000
    multiplicity = Counter(map(tuple, enumerate_rows(point, n)))
    total = sum(multiplicity.values())
    counts = Counter(map(tuple, sample_rows(point, n, draws, random.Random(20240809)).tolist()))
    assert set(counts) <= set(multiplicity)
    for row, m in multiplicity.items():
        p = m / total
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[row] - draws * p) <= 4 * sigma, (row, counts[row], draws * p)


@pytest.mark.parametrize("point, n", [
    (QuasilatticePoint(1, 8), 8),
    (QuasilatticePoint(2, 8), 8),
    (QuasilatticePoint(2, 10), 8),
    (QuasilatticePoint(4, 16), 16),
    (SuperQuasilatticePoint(1, 8, 8), 8),
    (SuperQuasilatticePoint(2, 8, 8), 8),
    (SuperQuasilatticePoint(1, 8, 9), 8),
    (SuperQuasilatticePoint(3, 99, 99), 99),
])
def test_every_row_is_a_member_of_its_family(point, n):
    shape = _shape(point, n)
    table = sample_rows(point, n, 300, random.Random(sum(point)))
    assert table.shape == (300, shape.registers * n)
    assert table.min() >= 1 and table.max() <= shape.universe
    for row in table.tolist():
        registers = [row[i * n:(i + 1) * n] for i in range(shape.registers)]
        for values in registers:
            counts = Counter(values)
            assert len(counts) <= shape.sub  # inside its range
            if shape.length == n:  # the whole k-to-1 sequence
                assert set(counts.values()) == {shape.k}
            else:
                assert max(counts.values()) <= shape.k
        assert len(set(row)) <= shape.s_size  # every range inside S


@pytest.mark.parametrize("point, n", [
    (QuasilatticePoint(2, 8), 8),
    (SuperQuasilatticePoint(1, 8, 8), 8),
    (SuperQuasilatticePoint(1, 200, 200), 200),
])
def test_one_seed_gives_one_table_in_draw_tables_dtype(point, n):
    table = sample_rows(point, n, 64, random.Random(7))
    assert np.array_equal(table, sample_rows(point, n, 64, random.Random(7)))
    assert not np.array_equal(table, sample_rows(point, n, 64, random.Random(8)))
    assert table.dtype == np.min_scalar_type(n * (len(point) - 1))


def test_no_draws_is_an_empty_table_and_an_empty_batch():
    assert sample_rows(QuasilatticePoint(1, 4), 4, 0, random.Random(0)).shape == (0, 4)
    assert sample_rows(SuperQuasilatticePoint(1, 4, 4), 4, 0, random.Random(0)).shape == (0, 8)
    poly = extract_polynomial(coincidence_probe(4))
    with pytest.raises(ValueError, match="empty batch"):
        expected_acceptance_mc(poly, QuasilatticePoint(1, 4), 4, 0, random.Random(0))
    with pytest.raises(ValueError, match="empty batch"):
        expected_acceptance3_mc(poly, SuperQuasilatticePoint(1, 4, 4), 4, 0, random.Random(0))


CHAIN_SCRIPT = """
import sys
from collisionlab import cli
codes = [
    cli.main(["chain", "--algorithm", name, "--G", "2", "--mc-samples", "50",
              "--enum-cap", "0", "--output", sys.argv[1]])
    for name in ("coincidence-4", "setcomp-probe-8")
]
print(*codes, "numpy.random" in sys.modules)
"""


def test_a_monte_carlo_chain_never_imports_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of resident memory once imported; the
    # sampler reads its keys from the caller's random.Random instead.
    src = str(Path(collisionlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHAIN_SCRIPT, str(tmp_path / "chain.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "0", "False"]
