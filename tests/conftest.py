"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from collisionlab.circuits import setcomp_probe, two_query_mixer
from collisionlab.lattice import LatticePoly
from collisionlab.polymethod import assemble_q, extract_polynomial
from collisionlab.setcomp_poly import assemble_q3
from collisionlab.simulator import QueryAlgorithm


@pytest.fixture(scope="session")
def dumped_mixer8(tmp_path_factory):
    """(algorithm, extracted polynomial) for a dumped and reloaded
    two_query_mixer(8); extraction takes seconds, so once per session."""
    path = tmp_path_factory.mktemp("mixer") / "two_query_mixer8.json"
    two_query_mixer(8).dump(path)
    alg = QueryAlgorithm.load(path)
    return alg, extract_polynomial(alg)


@pytest.fixture(scope="session")
def assembled(dumped_mixer8):
    """name -> (algorithm, assembled q, chain variant) for setcomp-probe-8
    and a dumped two_query_mixer(8)."""
    setcomp8 = setcomp_probe(8)
    mixer8, mixer8_poly = dumped_mixer8
    return {
        "setcomp_probe(8)": (
            setcomp8, assemble_q3(extract_polynomial(setcomp8), setcomp8.n, setcomp8.T), "setcomp"
        ),
        "dumped two_query_mixer(8)": (
            mixer8, assemble_q(mixer8_poly, mixer8.n, mixer8.T), "collision"
        ),
    }


@pytest.fixture
def evaluation_sizes(monkeypatch):
    """The point count of every LatticePoly.evaluate_float call the test
    makes, in call order."""
    sizes = []
    evaluate_float = LatticePoly.evaluate_float

    def recording(self, *grids):
        sizes.append(np.broadcast(*grids).size)
        return evaluate_float(self, *grids)

    monkeypatch.setattr(LatticePoly, "evaluate_float", recording)
    return sizes
