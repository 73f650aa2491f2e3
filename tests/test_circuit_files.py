"""Circuit files: the sparse form that dump writes and the dense form of
older files load to the same layers and give the same reports."""

import contextlib
import io
import json

import pytest

from collisionlab import cli
from collisionlab.circuits import two_query_mixer
from collisionlab.simulator import QueryAlgorithm
from helpers import dense_algorithm_json

# Nonzero entries of two_query_mixer(8)'s layers U_0, U_1, U_2.
MIXER8_NNZ = [2048, 4096, 2048]


@pytest.fixture(scope="module")
def mixer8_files(tmp_path_factory):
    """(algorithm, dense file, sparse file) for two_query_mixer(8); both
    files are named alike, in two directories, so a report that echoes
    the --algorithm argument reads the same for both."""
    alg = two_query_mixer(8)
    dense = tmp_path_factory.mktemp("dense") / "mixer8.json"
    dense.write_text(json.dumps(dense_algorithm_json(alg)), encoding="utf-8")
    sparse = tmp_path_factory.mktemp("sparse") / "mixer8.json"
    alg.dump(sparse)
    return alg, dense, sparse


def test_dense_and_sparse_files_load_to_the_same_layers(mixer8_files):
    alg, dense, sparse = mixer8_files
    from_dense = QueryAlgorithm.load(dense)
    from_sparse = QueryAlgorithm.load(sparse)
    assert [layer.cols for layer in from_dense.layers] == [layer.cols for layer in alg.layers]
    assert [layer.cols for layer in from_sparse.layers] == [layer.cols for layer in alg.layers]


def test_dense_and_sparse_files_give_the_same_chain_report(mixer8_files, monkeypatch):
    _, dense, sparse = mixer8_files
    reports = []
    for path in (dense, sparse):
        monkeypatch.chdir(path.parent)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["chain", "--algorithm", "@mixer8.json", "--G", "2",
                             "--mc-samples", "2000", "--seed", "3", "--output", "report.json"])
        assert code == 0
        reports.append((path.parent / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_dump_is_a_fixed_point_and_lists_only_nonzeros(mixer8_files, tmp_path):
    _, _, sparse = mixer8_files
    again = tmp_path / "again.json"
    QueryAlgorithm.load(sparse).dump(again)
    assert again.read_bytes() == sparse.read_bytes()
    layers = json.loads(sparse.read_text(encoding="utf-8"))["layers"]
    assert [layer["dim"] for layer in layers] == [256] * 3
    assert [sum(len(col) for col in layer["cols"]) for layer in layers] == MIXER8_NNZ
    zero = ["0/1", "0/1"]
    assert not any(entry[1:] == zero for layer in layers for col in layer["cols"] for entry in col)


def test_dump_writes_one_unindented_line(mixer8_files):
    _, _, sparse = mixer8_files
    text = sparse.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert len(text.encode("utf-8")) == 174_068
