"""CLI subcommands: determinism, formats, exit codes."""

import csv
import hashlib
import json
import io
from fractions import Fraction

import pytest

from collisionlab import cli, degreebound
from collisionlab.circuits import REFERENCE_BUILDERS, coincidence_probe, setcomp_probe, two_query_mixer
from collisionlab.cli import main
from collisionlab.instances import Instance, count_supports, divisor_points
from collisionlab.polymethod import all_monomials, extract_polynomial, gamma_closed, prefactor
from collisionlab.setcomp_poly import assemble_q3
from collisionlab.reports import jsonable, render_csv, render_json
from collisionlab.simulator import QueryAlgorithm


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_matches_enumeration(tmp_path, capsys):
    out = tmp_path / "points.json"
    code, _, _ = run(
        ["lattice", "--n", "100", "--T", "3", "--G", "2", "--output", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"] == [
        {"g": 1, "N": 100},
        {"g": 2, "N": 100},
        {"g": 2, "N": 102},
    ]
    assert doc["config"]["seed"] == 0
    assert doc["config"]["subcommand"] == "lattice"
    assert "enum_cap" not in doc["config"]


def test_json_and_csv_numeric_content_identical(tmp_path, capsys):
    jpath = tmp_path / "points.json"
    cpath = tmp_path / "points.csv"
    args = ["lattice", "--n", "100", "--T", "3", "--G", "3"]
    assert run(args + ["--output", str(jpath)], capsys)[0] == 0
    assert run(args + ["--format", "csv", "--output", str(cpath)], capsys)[0] == 0
    jrows = json.loads(jpath.read_text())["results"]
    lines = [l for l in cpath.read_text().splitlines() if not l.startswith("#")]
    crows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert len(jrows) == len(crows)
    for jr, cr in zip(jrows, crows):
        assert jr["g"] == int(cr["g"]) and jr["N"] == int(cr["N"])


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["chain", "--algorithm", "coincidence-4", "--G", "2", "--seed", "7"]
    assert run(args + ["--output", str(a)], capsys)[0] == 0
    assert run(args + ["--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_setcomp_equal_exact_zero(tmp_path, capsys):
    out = tmp_path / "sc.json"
    code, stdout, _ = run(
        ["setcomp", "--equal", "--n", "4", "--mode", "exact", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert "P(1) = 0/1" in stdout
    doc = json.loads(out.read_text())
    assert doc["results"]["outcome1_probability"] == "0/1"


def test_setcomp_boundary(tmp_path, capsys):
    out = tmp_path / "sc.json"
    code, _, _ = run(
        ["setcomp", "--boundary", "--n", "20", "--output", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["union_size"] == 22
    num, den = doc["results"]["outcome1_probability"].split("/")
    assert int(num) * 20 >= int(den)  # P(1) >= 1/20


def test_verify_gamma_summary(capsys):
    code, stdout, stderr = run(
        ["verify-gamma", "--n", "4", "--max-degree", "2", "--max-N", "6"], capsys
    )
    assert code == 0
    assert "all equal: true" in stderr
    assert json.loads(stdout)["results"]["summary"]["all_equal"] is True


def test_chain_stdout_without_output_is_one_json_document(capsys):
    code, stdout, stderr = run(
        ["chain", "--algorithm", "coincidence-4", "--mc-samples", "50", "--seed", "7"], capsys
    )
    assert code == 0
    assert json.loads(stdout)["results"]["consistent"] is True
    assert stderr.startswith("chain[coincidence_probe_4] ")


def test_verify_identity(tmp_path, capsys):
    out = tmp_path / "ident.json"
    code, stdout, _ = run(
        ["verify-identity", "--algorithm", "coincidence-4", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert "identity exact: true" in stdout
    doc = json.loads(out.read_text())
    assert doc["results"]["identity_exact"] is True


# sha256 of the verify-identity report files for coincidence-4 at G=2,
# taken from the collision-only sweep that the shared identity loop replaced.
VERIFY_IDENTITY_SHA256 = {
    "json": "9f4c1b8fd6f2e9159d7f01e07f9ff8452353acb93a84ccd50ef28b937cd6066c",
    "csv": "cc19aadc274afcd78c12bc0db41d8346285a6647a2e4795c9abd38956831bf07",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_IDENTITY_SHA256))
def test_verify_identity_report_is_pinned(fmt, tmp_path, capsys):
    out = tmp_path / f"ident.{fmt}"
    code, _, _ = run(
        ["verify-identity", "--algorithm", "coincidence-4", "--G", "2",
         "--format", fmt, "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_IDENTITY_SHA256[fmt]


# sha256 of the verify-gamma report files for n = 4, 6, r <= 2, N <= 8,
# taken before the brute-force sweep shared evaluate_batch's hit masks.
VERIFY_GAMMA_SHA256 = {
    "json": "35613dc0aa4438d2a2f07d554d2ee4345670ee0e2fe532848af0f0c77978b117",
    "csv": "19ca42793541512424194c62e788b6dce4c22784b905bac7a345cb14a08201a0",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_GAMMA_SHA256))
def test_verify_gamma_report_is_pinned(fmt, tmp_path, capsys):
    out = tmp_path / f"gamma.{fmt}"
    code, _, _ = run(
        ["verify-gamma", "--n", "4", "6", "--max-degree", "2", "--max-N", "8",
         "--format", fmt, "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_GAMMA_SHA256[fmt]


def test_verify_gamma_rows_hold_each_monomials_own_closed_form(tmp_path, capsys):
    # verify-gamma computes one closed form per monomial shape and point;
    # degree 3 reaches shapes that the pinned degree-2 report does not.
    out = tmp_path / "gamma.json"
    code, _, _ = run(
        ["verify-gamma", "--n", "4", "6", "--max-degree", "3", "--max-N", "8",
         "--output", str(out)],
        capsys,
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["summary"]["all_equal"] is True
    monomials = {n: {cli.monomial_label(m): m for m in all_monomials(n, 3)} for n in (4, 6)}
    assert len(results["rows"]) == results["summary"]["cases"] == sum(
        len(monomials[n]) * len(divisor_points(n, 8)) for n in (4, 6)
    )
    for row in results["rows"]:
        want = gamma_closed(monomials[row["n"]][row["monomial"]], (row["g"], row["N"]), row["n"])
        assert Fraction(row["closed"]) == want


def test_verify_identity_past_the_cap_exits_before_extraction(monkeypatch, capsys):
    args = ["verify-identity", "--algorithm", "setcomp-probe-8", "--G", "2"]
    code, _, err = run(args, capsys)
    assert code == 3
    assert "enumeration too large" in err

    def no_extraction(alg):
        raise AssertionError("extraction ran although a point exceeds the cap")

    monkeypatch.setattr(cli, "extract_polynomial", no_extraction)
    assert run(args, capsys) == (3, "", err)


def test_verify_identity_on_a_setcomp_circuit(tmp_path, capsys):
    out = tmp_path / "ident.json"
    code, stdout, _ = run(
        ["verify-identity", "--algorithm", "setcomp-probe-2", "--G", "1", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert "identity exact: true (1 points)" in stdout
    (row,) = json.loads(out.read_text())["results"]["points"]
    assert (row["g"], row["N"], row["M"], row["P"]) == (1, 2, 2, "3/8")
    q3 = assemble_q3(extract_polynomial(setcomp_probe(2)), 2, 1)
    assert Fraction(row["P"]) == prefactor(2, 1, (1, 2, 2)) * q3.evaluate((1, 2, 2))
    assert row["exact_match"] is True


def test_extract_and_simulate(tmp_path, capsys):
    out = tmp_path / "poly.json"
    code, _, _ = run(
        ["extract", "--algorithm", "first-is-1-n2", "--output", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["degree"] == 1
    code, stdout, _ = run(
        ["simulate", "--algorithm", "coincidence-4", "--point", "2,4", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert '"acceptance_probability": "1/2"' in stdout


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        ["bench", "--algorithms", "bht", "--sizes", "27", "--trials", "20",
         "--format", "csv", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "algorithm,n,trials,success_rate,mean_queries"
    assert lines[2].startswith("bht,27,20,")


def test_bench_bht_on_tiny_sizes(capsys):
    code, stdout, _ = run(["bench", "--algorithms", "bht", "--sizes", "1,2", "--trials", "5"],
                          capsys)
    assert code == 0
    assert [row["n"] for row in json.loads(stdout)["results"]] == [1, 2]


def test_invalid_config_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--n", "100"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["lattice", "--n", "7", "--T", "1", "--G", "2"], "n must be even"),
        (["simulate", "--algorithm", "coincidence-4", "--point", "3,4"], "invalid point"),
        (["simulate", "--algorithm", "coincidence-4", "--point", "3"], "needs g,N"),
        (["simulate", "--algorithm", "setcomp-probe-2", "--point", "1,2"], "needs g,N,M"),
        (["simulate", "--algorithm", "coincidence-4", "--point", "2,4", "--shots", "-3"],
         "--shots must be >= 0"),
        (["bench", "--trials", "0"], "need at least one trial"),
        (["lattice", "--n", "100", "--T", "3", "--G", "2", "--slack", "0"], "slack must be >= 1"),
        (["lattice", "--n", "100", "--T", "3", "--G", "2", "--slack", "-5"], "slack must be >= 1"),
        (["lattice", "--super", "--n", "1000", "--T", "1", "--G", "2", "--slack", "0"],
         "slack must be >= 1"),
        (["chain", "--negative-control", "--control-G", "1"], "need G >= 2"),
        (["chain", "--negative-control", "--control-T", "0"], "need T >= 1"),
        (["setcomp", "--mode", "shots", "--shots", "0", "--equal", "--n", "4"],
         "shots mode needs a shot count >= 1"),
        (["setcomp", "--equal", "--n", "0"], "--n must be >= 1"),
        (["bench", "--algorithms", "foo"], "unknown algorithm 'foo'"),
        (["bench", "--sizes", "0"], "need n >= 1"),
        (["lattice", "--n", "16", "--T", "1", "--G", "0"], "G must be >= 1"),
        (["lattice", "--n", "16", "--T", "1", "--G", "-3"], "G must be >= 1"),
        (["lattice", "--super", "--n", "1000", "--T", "1", "--G", "0"], "G must be >= 1"),
        (["simulate", "--algorithm", "coincidence-4", "--point", "2,4,99"], "needs g,N"),
        (["verify-gamma", "--n", "0"], "--n must be >= 1"),
        (["verify-gamma", "--n", "4", "-2"], "--n must be >= 1"),
        (["simulate", "--algorithm", "coincidence-4", "--point", "0,4"],
         "invalid point QuasilatticePoint(g=0, N=4)"),
        (["simulate", "--algorithm", "setcomp-probe-2", "--point", "0,2,2"],
         "g must be >= 1"),
        (["chain", "--negative-control", "--control-n", "0"], "need n >= 1"),
        (["chain", "--negative-control", "--control-n", "-5"], "got n=-5"),
        (["verify-gamma", "--max-degree", "-1"], "--max-degree must be >= 0, got -1"),
        (["verify-gamma", "--n", "4", "--max-degree", "1", "--enum-cap", "-5"],
         "enumeration cap must be >= 0, got -5"),
        (["chain", "--algorithm", "coincidence-4", "--enum-cap", "-1"],
         "enumeration cap must be >= 0, got -1"),
        (["verify-gamma", "--n", "4", "--max-N", "2", "--max-degree", "1"],
         "--n 4 exceeds --max-N 2"),
        (["bench", "--budget", "-1"], "need budget >= 0, got budget=-1"),
        (["bench", "--sizes", "27,x"], "--sizes entry 'x' is not an integer"),
        (["chain", "--algorithm", "@{mixer2}", "--G", "2"], "need n >= 2T, got n=2 and T=2"),
        (["verify-identity", "--algorithm", "@{mixer2}", "--G", "1"],
         "need n >= 2T, got n=2 and T=2"),
        (["chain", "--algorithm", "coincidence-4", "--G", "3"], "g out of range"),
        (["verify-identity", "--algorithm", "coincidence-4", "--G", "3"], "g out of range"),
        (["chain", "--negative-control", "--steepness", str(10**400)],
         "--steepness must fit a finite float"),
        (["chain", "--negative-control", "--control-n", str(10**400)], "past the float range"),
        (["chain", "--negative-control", "--control-T", str(10**400)], "past the float range"),
        (["chain", "--negative-control", "--control-G", str(10**400)], "past the float range"),
        (["chain", "--negative-control", "--algorithm", "coincidence-4", "--G", "3"],
         "chain takes --algorithm or --negative-control, not both"),
        (["lattice", "--n", "0", "--T", "1", "--G", "1"], "n must be >= 1, got n=0"),
        (["lattice", "--super", "--n", "-8", "--T", "1", "--G", "1"], "n must be >= 1, got n=-8"),
    ],
)
def test_semantic_config_errors_exit_2(args, message, tmp_path, monkeypatch, capsys):
    mixer2 = tmp_path / "two_query_mixer2.json"  # n = 2 < 2T = 4
    two_query_mixer(2).dump(mixer2)

    def no_extraction(alg):
        raise AssertionError("extraction ran for an invalid configuration")

    monkeypatch.setattr(cli, "extract_polynomial", no_extraction)
    monkeypatch.setattr(degreebound, "extract_polynomial", no_extraction)
    code, _, err = run([a.replace("{mixer2}", str(mixer2)) for a in args], capsys)
    assert code == 2
    assert message in err


def test_an_answer_field_narrower_than_the_alphabet_exits_1_at_every_seed(tmp_path, capsys):
    # first-is-1-n4 queries the values 1..4, and 4 needs a third answer
    # bit: simulating once depended on whether a draw held a 4.
    doc = REFERENCE_BUILDERS["first-is-1-n4"]().to_json()
    doc["answer_bits"] = 2
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(doc))
    for seed in range(1, 7):
        code, _, err = run(
            ["simulate", "--algorithm", f"@{path}", "--point", "2,4", "--seed", str(seed)], capsys
        )
        assert code == 1
        assert err.startswith("error: answer_bits = 2 cannot hold the alphabet 1..4")
    # A circuit that never queries writes no answer.
    doc = REFERENCE_BUILDERS["always-accept-4"]().to_json()
    doc["answer_bits"] = 0
    assert QueryAlgorithm.from_json(doc).space.answer_bits == 0


@pytest.mark.parametrize("args", [
    ["extract"], ["chain", "--G", "2"], ["verify-identity", "--G", "2"],
])
def test_extracting_an_erasing_circuit_exits_2(args, tmp_path, capsys):
    doc = coincidence_probe(4).to_json()
    doc["oracle_kind"] = "erasing"
    path = tmp_path / "erasing.json"
    path.write_text(json.dumps(doc))
    code, _, err = run([args[0], "--algorithm", f"@{path}", *args[1:]], capsys)
    assert code == 2
    assert "error: polynomial extraction is defined for standard-oracle algorithms" in err


@pytest.mark.parametrize(
    "args,inst,message",
    [
        (["simulate", "--algorithm", "coincidence-4"],
         Instance(kind="setcomp", n=4, x=(1, 2, 3, 4), y=(5, 6, 7, 8)),
         "error: instance incompatible with algorithm"),
        (["simulate", "--algorithm", "coincidence-4"],
         Instance(kind="collision", n=2, x=(1, 2)),
         "error: instance incompatible with algorithm"),
        (["setcomp"],
         Instance(kind="collision", n=4, x=(1, 2, 3, 4)),
         "error: set_union_size needs a setcomp instance"),
        (["setcomp"],
         Instance(kind="setcomp", n=4, x=(1, 1, 3, 4), y=(5, 6, 7, 8)),
         "error: erasing oracle undefined for non-injective input"),
    ],
)
def test_an_instance_that_does_not_fit_exits_2(args, inst, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    inst.dump(path)
    code, _, err = run(args + ["--instance", str(path)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("args, flags", [
    (["setcomp", "--equal", "--boundary", "--n", "20"], ("--boundary", "--equal")),
    (["setcomp", "--disjoint", "--equal"], ("--equal", "--disjoint")),
    (["setcomp", "--instance", "F", "--disjoint"], ("--disjoint", "--instance")),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "F", "--point", "2,4"],
     ("--point", "--instance")),
])
def test_input_flags_are_exclusive(args, flags, capsys):
    """One input per run: a second input flag is an argparse error (exit 2),
    not a flag that the first one silently wins over."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    second, first = flags
    assert f"argument {second}: not allowed with argument {first}" in capsys.readouterr().err


@pytest.mark.parametrize("n,union", [(4, 5), (20, 22)])
def test_boundary_union_is_n_plus_a_tenth_of_n_at_least_one(n, union, capsys):
    code, out, _ = run(["setcomp", "--boundary", "--n", str(n)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["union_size"] == union


def test_negative_enum_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "identity.json"
    code, _, err = run(
        ["verify-identity", "--algorithm", "coincidence-4", "--G", "2", "--enum-cap", "-1",
         "--output", str(out)],
        capsys,
    )
    assert code == 2
    assert "enumeration cap must be >= 0, got -1" in err
    assert not out.exists()


def test_the_environment_does_not_change_a_chain_report(tmp_path, monkeypatch, capsys):
    # --enum-cap is the one way to set the cap, so a report follows from
    # its config echo and seed; a cap in the environment is not read.
    out = tmp_path / "chain.json"
    argv = ["chain", "--algorithm", "coincidence-4", "--G", "2", "--mc-samples", "50",
            "--output", str(out)]
    assert run(argv, capsys)[0] == 0
    report = out.read_bytes()
    assert all(p["exact"] is True for p in json.loads(report)["results"]["points"])
    monkeypatch.setenv("COLLISIONLAB_ENUM_CAP", "0")
    assert run(argv, capsys)[0] == 0
    assert out.read_bytes() == report


def circuit_with_layer(layer) -> dict:
    """A one-layer circuit file whose only layer is `layer`.  The layer
    need not fit the state space: a malformed layer fails to parse first."""
    return {"index_size": 4, "workspace_bits": 2, "answer_offset": 0, "answer_bits": 2,
            "kind": "collision", "n": 4, "T": 0, "oracle_kind": "standard", "layers": [layer]}


ROW0, ROW1 = [0, "1/1", "0/1"], [1, "1/1", "0/1"]


@pytest.mark.parametrize("args, doc, message", [
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"], {}, "missing field 'index_size'"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     {"index_size": 4, "workspace_bits": 2, "answer_offset": 0, "answer_bits": 2,
      "kind": "collision", "n": 4, "T": 0, "oracle_kind": "standard", "layers": 5},
     "field 'layers'"),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 2}, "missing field 'x'"),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 2, "x": 5}, "field 'x'"),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 4, "x": [1, 2.5, 3, 4]}, "field 'x': expected an integer, got 2.5"),
    (["setcomp", "--instance", "{path}"], {"kind": "collision", "n": 2}, "missing field 'x'"),
    # Malformed sparse layers.
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW0], [[2, "1/1", "0/1"]]]}),
     "field 'layers': column 1: row 2 out of range 0..1"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW0, ROW0], [ROW1]]}),
     "field 'layers': column 0: row 0 does not follow row 0"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW1, ROW0], [ROW1]]}),
     "field 'layers': column 0: row 0 does not follow row 1"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[[True, "1/1", "0/1"]], [ROW1]]}),
     "field 'layers': column 0: row must be an integer, got True"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW0], [[2.0, "1/1", "0/1"]]]}),
     "field 'layers': column 1: row must be an integer, got 2.0"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW0]]}),
     "field 'layers': expected 2 columns, got 1"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     circuit_with_layer({"dim": 2, "cols": [[ROW0 + ["0/1"]], [ROW1]]}),
     "field 'layers': expected [a, b] entry, got ['1/1', '0/1', '0/1']"),
    # A latent draw that does not fit its input.
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 4, "x": [1, 2, 3, 4],
      "latent": {"S": [1, 2, 3, 4], "S_X": [1, 2], "S_Y": [3, 4],
                 "xhat": [1, 2, 3, 4], "yhat": [3, 4, 1, 2]}},
     "latent does not fit a collision input: it has 2 ranges and 2 sequences"),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 4, "x": [1, 2, 3, 4],
      "latent": {"S": [1, 2, 3, 4], "xhat": [2, 1, 3, 4]}},
     "latent sequences must begin with the input's x"),
    # A latent draw that its family cannot draw.
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 4, "x": [1, 1, 2, 2],
      "latent": {"S": [3], "xhat": [1, 1, 2, 2, 4, 4]}},
     "latent xhat takes the value 1, which is not in S"),
    (["simulate", "--algorithm", "coincidence-4", "--instance", "{path}"],
     {"kind": "collision", "n": 4, "x": [1, 1, 2, 3],
      "latent": {"S": [1, 2, 3], "xhat": [1, 1, 2, 3, 3, 2, 1]}},
     "latent xhat must hold each value of S equally often"),
    (["setcomp", "--instance", "{path}"],
     {"kind": "setcomp", "n": 2, "x": [1, 2], "y": [3, 4],
      "latent": {"S": [1, 2, 3, 4], "S_X": [1, 2], "S_Y": [3, 5],
                 "xhat": [1, 2], "yhat": [3, 4]}},
     "latent S_Y must lie in S"),
    (["setcomp", "--instance", "{path}"],
     {"kind": "setcomp", "n": 2, "x": [1, 2], "y": [3, 4],
      "latent": {"S": [1, 2, 3, 4], "S_X": [1, 2], "S_Y": [3, 4],
                 "xhat": [1, 2], "yhat": [3, 4, 1, 2]}},
     "latent yhat takes the value 1, which is not in S_Y"),
    (["simulate", "--algorithm", "@{path}", "--point", "2,4"],
     {**circuit_with_layer({"dim": 2, "cols": [[ROW0], [ROW1]]}), "name": {"evil": [1, 2]}},
     "field 'name': expected a string, got {'evil': [1, 2]}"),
])
def test_malformed_input_file_exits_1_naming_the_field(args, doc, message, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import collisionlab

    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    src = str(Path(collisionlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "collisionlab.cli", *(a.format(path=path) for a in args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 1
    assert message in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cap_exceeded_exits_3(capsys):
    code, _, err = run(
        ["verify-gamma", "--n", "6", "--max-degree", "1", "--max-N", "8",
         "--enum-cap", "10"],
        capsys,
    )
    assert code == 3
    assert "enumeration too large" in err


def test_verify_gamma_past_the_cap_exits_before_any_monomial(monkeypatch, capsys):
    # Every swept point's closed-form count is checked, in sweep order,
    # before the first monomial list is built; the first point over the
    # cap names the error, as it did when the sweep reached it.
    cap = 10**7
    args = ["verify-gamma", "--n", "4", "30", "--max-degree", "2", "--max-N", "30",
            "--enum-cap", str(cap)]
    over = [(p, n) for n in (4, 30) for p in divisor_points(n, 30) if count_supports(p, n) > cap]
    point, n = over[0]
    assert (point, n) == ((1, 30), 30)

    def no_monomials(n, max_degree):
        raise AssertionError("a monomial was built although a swept point exceeds the cap")

    monkeypatch.setattr(cli, "all_monomials", no_monomials)
    assert run(args, capsys) == (
        3, "", f"error: enumeration too large: {count_supports(point, n)} latent draws exceed cap {cap}\n"
    )


def test_unknown_algorithm_exits_2(capsys):
    code, _, err = run(["chain", "--algorithm", "nope"], capsys)
    assert code == 2
    assert "unknown reference algorithm" in err


def test_missing_algorithm_file_exits_1(tmp_path, capsys):
    code, _, err = run(["chain", "--algorithm", f"@{tmp_path / 'absent.json'}"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_negative_control_csv_has_the_header_row(tmp_path, capsys):
    out = tmp_path / "control.csv"
    code, _, _ = run(["chain", "--negative-control", "--format", "csv", "--output", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[1:] == ["g,N,P,q,prefactor,abs_dev"]


def test_chain_summary_names_the_degree_cap_of_the_family(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, stdout, _ = run(
        ["chain", "--algorithm", "setcomp-probe-8", "--mc-samples", "50", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert " cap=8 " in stdout
    results = json.loads(out.read_text())["results"]
    assert (results["degree_cap"], results["two_T"]) == (8, 2)


def test_empty_csv_has_header_only():
    text = render_csv({"subcommand": "x"}, [], header=["a", "b"])
    lines = text.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "a,b"
    assert len(lines) == 2


def test_csv_header_must_match_the_row_keys():
    rows = [{"a": 1, "b": 2}]
    assert render_csv({}, rows, header=["a", "b"]) == render_csv({}, rows)
    with pytest.raises(ValueError, match="does not match the row keys"):
        render_csv({}, rows, header=["b", "a"])
    with pytest.raises(ValueError, match="does not match the row keys"):
        render_csv({}, rows, header=["a"])


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_json_reports_are_strict(tmp_path, capsys):
    doc = {"a": float("nan"), "b": [float("inf"), -float("inf")], "c": 0.5}
    assert jsonable(doc) == {"a": None, "b": [None, None], "c": 0.5}
    text = render_json(doc)
    assert text == json.dumps(jsonable(doc), indent=2, allow_nan=False) + "\n"
    assert json.loads(text, parse_constant=reject_constant) == jsonable(doc)
    out = tmp_path / "control.json"
    assert run(["chain", "--negative-control", "--output", str(out)], capsys)[0] == 0
    report = out.read_text()
    assert json.loads(report, parse_constant=reject_constant)["results"]["endpoint_low"] is None
    assert '"endpoint_low": null' in report


@pytest.mark.parametrize("extra", [["--shots", "10"], ["--mode", "float", "--shots", "3"]])
def test_simulate_runs_the_circuit_once(extra, monkeypatch, capsys):
    calls = []
    run_circuit = QueryAlgorithm.run

    def counted(self, inst):
        calls.append(inst)
        return run_circuit(self, inst)

    monkeypatch.setattr(QueryAlgorithm, "run", counted)
    code, _, _ = run(["simulate", "--algorithm", "coincidence-4", "--point", "2,4", *extra], capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("algorithm, root", [
    ("first-is-1-n2", "G <= sqrt(n)"),
    ("setcomp-probe-2", "G <= n^(1/3)"),
])
def test_chain_default_G_error_names_n_and_largest_G(algorithm, root, capsys):
    code, _, err = run(["chain", "--algorithm", algorithm], capsys)
    assert code == 2
    assert "n=2 admits no G >= 2" in err
    assert "the largest admissible G is 1" in err
    assert root in err


def forbid_extraction(monkeypatch):
    from collisionlab import degreebound

    def extract(alg):
        raise AssertionError("the chain extracted a polynomial before checking its settings")

    monkeypatch.setattr(degreebound, "extract_polynomial", extract)


@pytest.mark.parametrize("algorithm", ["first-is-1-n2", "setcomp-probe-2"])
def test_chain_G_below_2_exits_2_before_extraction(algorithm, monkeypatch, capsys):
    forbid_extraction(monkeypatch)
    code, _, err = run(["chain", "--algorithm", algorithm, "--G", "1"], capsys)
    assert code == 2
    assert "need G >= 2" in err


@pytest.mark.parametrize("algorithm", ["coincidence-4", "setcomp-probe-8"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_chain_mc_samples_below_1_exits_2_before_extraction(algorithm, samples, monkeypatch, capsys):
    forbid_extraction(monkeypatch)
    code, _, err = run(
        ["chain", "--algorithm", algorithm, "--G", "2", "--mc-samples", samples, "--enum-cap", "0"],
        capsys,
    )
    assert code == 2
    assert "mc_samples" in err


@pytest.mark.parametrize("args", [
    ["lattice", "--n", "100", "--T", "3", "--G", "2"],
    ["simulate", "--algorithm", "coincidence-4", "--point", "2,4"],
    ["extract", "--algorithm", "coincidence-4"],
    ["setcomp", "--equal", "--n", "4"],
    ["bench", "--algorithms", "birthday", "--sizes", "27", "--trials", "10"],
])
def test_enum_cap_is_rejected_where_nothing_is_enumerated(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--enum-cap", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enum-cap 0" in capsys.readouterr().err


def test_chain_enum_cap_option_sends_every_point_to_monte_carlo(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, _, _ = run(
        ["chain", "--algorithm", "coincidence-4", "--G", "2", "--mc-samples", "200",
         "--enum-cap", "0", "--output", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["enum_cap"] == 0
    points = doc["results"]["points"]
    assert points and all(p["exact"] is False for p in points)
    for p in points:
        assert f"P at ({p['g']}, {p['N']}) estimated from 200 samples" in doc["results"]["notes"]


def test_importing_the_cli_loads_no_sympy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import collisionlab

    src = str(Path(collisionlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, collisionlab.cli; "
        "print(sorted(m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_collisionlab_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import collisionlab

    src = str(Path(collisionlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "collisionlab", "verify-gamma", "--n", "2", "--max-degree", "1",
         "--max-N", "2", "--output", str(tmp_path / "gamma.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "gamma.json").read_text())["results"]["summary"]["all_equal"] is True


@pytest.mark.parametrize("flags, message", [
    (["--instance", "{path}", "--n", "50"], "--n sizes a built instance; --instance brings its own n"),
    (["--equal", "--n", "4", "--shots", "0"], "--shots is read only with --mode shots"),
    (["--equal", "--mode", "float", "--shots", "5"], "--shots is read only with --mode shots"),
    (["--instance", "{path}"], None),
    (["--equal"], None),
])
def test_setcomp_config_echo_is_what_ran(flags, message, tmp_path, capsys):
    """A flag the run does not read exits 2; the echoed n is the n that
    ran (the instance's own with --instance, 4 by default), and shots
    echoes its default 20."""
    path = tmp_path / "instance.json"
    Instance(kind="setcomp", n=2, x=(1, 2), y=(3, 4)).dump(path)
    code, out, err = run(["setcomp", *(f.format(path=path) for f in flags)], capsys)
    if message:
        assert (code, out) == (2, "")
        assert f"error: {message}" in err
    else:
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == doc["results"]["n"] == (2 if "--instance" in flags else 4)
        assert doc["config"]["shots"] == 20
