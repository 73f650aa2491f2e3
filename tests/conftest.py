"""Fixtures shared by several test modules."""

import pytest

from collisionlab.circuits import setcomp_probe, two_query_mixer
from collisionlab.polymethod import assemble_q, extract_polynomial
from collisionlab.setcomp_poly import assemble_q3
from collisionlab.simulator import QueryAlgorithm


@pytest.fixture(scope="session")
def assembled(tmp_path_factory):
    """name -> (algorithm, assembled q, chain variant) for setcomp-probe-8
    and a dumped two_query_mixer(8); extraction takes seconds, so once."""
    path = tmp_path_factory.mktemp("mixer") / "two_query_mixer8.json"
    two_query_mixer(8).dump(path)
    out = {}
    for name, alg, assemble, variant in [
        ("setcomp_probe(8)", setcomp_probe(8), assemble_q3, "setcomp"),
        ("dumped two_query_mixer(8)", QueryAlgorithm.load(path), assemble_q, "collision"),
    ]:
        out[name] = (alg, assemble(extract_polynomial(alg), alg.n, alg.T), variant)
    return out
