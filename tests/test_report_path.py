"""One report path in the CLI.

Every subcommand's report file, stdout and summary line are pinned byte
for byte, in JSON and CSV, with and without --output; and cli.py
renders, writes and prints a report in one place (report()), and maps
errors to exit codes in one except arm of main.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from collisionlab import cli
from collisionlab.cli import main

RUNS = {
    "lattice": ["lattice", "--n", "100", "--T", "3", "--G", "2"],
    "lattice-super": ["lattice", "--super", "--n", "1000", "--T", "1", "--G", "2"],
    "simulate-exact-shots": ["simulate", "--algorithm", "coincidence-4", "--point", "2,4",
                             "--seed", "3", "--shots", "10"],
    "simulate-float-setcomp": ["simulate", "--algorithm", "setcomp-probe-2", "--point", "1,2,2",
                               "--mode", "float", "--seed", "2"],
    "extract": ["extract", "--algorithm", "coincidence-4"],
    "verify-gamma": ["verify-gamma", "--n", "4", "--max-degree", "1", "--max-N", "6"],
    "verify-identity": ["verify-identity", "--algorithm", "coincidence-4", "--G", "2"],
    "chain-mc": ["chain", "--algorithm", "coincidence-4", "--mc-samples", "50", "--seed", "7"],
    "chain-control": ["chain", "--negative-control"],
    "setcomp-exact": ["setcomp", "--equal", "--n", "4"],
    "setcomp-float": ["setcomp", "--boundary", "--n", "20", "--mode", "float"],
    "setcomp-shots": ["setcomp", "--boundary", "--n", "20", "--mode", "shots", "--shots", "5",
                      "--seed", "1"],
    "bench": ["bench", "--algorithms", "bht,birthday", "--sizes", "27", "--trials", "20"],
}

# sha256 of each run's report file, taken before the subcommands shared
# report().  One pin moved since: the negative-control CSV gained its
# header row (it was 7ba9da2d...968879 with the config line alone).  The
# setcomp-float pins were taken while algorithms.py still rounded the
# probability itself (its float mode), before cmd_setcomp did.
REPORT_SHA256 = {
    ("lattice", "json"): "fff2d77a39985c86af8831178d4f63a2e77a0c7bea88adb5bff531b5b3fcbb65",
    ("lattice", "csv"): "c92c1f3293c880167f2e4785605395fe2b3374fd379e080795fc84b21cc3b217",
    ("lattice-super", "json"): "226ce68932d792a5bc5336e8b17a2e74de6bf41ff9df66597bacf9a001ed7a83",
    ("lattice-super", "csv"): "b65c354337d5623921c1c379da3f20795eb887835e07faa3e0800678f5791eb6",
    ("simulate-exact-shots", "json"):
        "379bbf868022f0b1e8ef5d04f02f3b6d35e57105e726ad96cf2e5be4c8d464be",
    ("simulate-exact-shots", "csv"):
        "d0ae8e641ebf66a356524873d2c6b048737ca902a76644f2284a0291cfce135d",
    ("simulate-float-setcomp", "json"):
        "cc504bf0bede7efe6836f9fa8368a44e227724eba4d5733f264937fb715cd361",
    ("simulate-float-setcomp", "csv"):
        "f4fc7f8abd7b1070ad89877dc53875be9fc3c652aa4acd1c2e2b28a05ad2fea0",
    ("extract", "json"): "8c04b11b48587df52d1454afdee0e89aaa6c12cde8c4557bf5fee72e967862da",
    ("extract", "csv"): "f2e2c61737134667d09c9371341989bd20bd85d49d19d792666661dcda756ae7",
    ("verify-gamma", "json"): "ab6c730ccecc9fdb766431a64ad042ef9e081c5c1fa191de46612cc334c751cf",
    ("verify-gamma", "csv"): "f328886ce5e7e5b4e40c1476b40e6b931139d1a4ea3dc1ba5242e293bc0c0c28",
    ("verify-identity", "json"): "9f4c1b8fd6f2e9159d7f01e07f9ff8452353acb93a84ccd50ef28b937cd6066c",
    ("verify-identity", "csv"): "cc19aadc274afcd78c12bc0db41d8346285a6647a2e4795c9abd38956831bf07",
    ("chain-mc", "json"): "c592179cc033f6f81ac973bf82aa11970e0ded4fc5b3220e926c43c7a8cacb1c",
    ("chain-mc", "csv"): "54d8cf56d503e678d10b71aaedac6fe16fac0c5c1aa83ea19fc1435ae807c693",
    ("chain-control", "json"): "712e1def135a45a553d9776801d3e78bfd301c30c38d43ca3bc598c4cf11bcfc",
    ("chain-control", "csv"): "6cfd2486d43be5b4f5cea69220cddd3ba33901c5bb1301fd5831a49564ca8390",
    ("setcomp-exact", "json"): "56a82d059cd163f1c18d82cad1b9d58fbb8a0969a5101453130c2f1cfc00cf01",
    ("setcomp-exact", "csv"): "c21aa6ba463088b12fdc75ad364b088b636ae476b4dfd09b2569aea350d7b35c",
    ("setcomp-float", "json"): "2e01b8fcdfbe346b72449715027c3d5ebac6a679270b6503e18c5f141d4c2f11",
    ("setcomp-float", "csv"): "40e68980a15a4ad89014992703ac4f7ca762451b273938716f0d7cb7e00bdb3b",
    ("setcomp-shots", "json"): "d788da6312ccfbd45efd4798ff65c652eb6fc3394d74d51daac335688f5d7a33",
    ("setcomp-shots", "csv"): "73c838ed342cce5d1a12c3ce94e865e21dca8fa592def024468b4e3b6f81baa1",
    ("bench", "json"): "ad97a45c55377fa597b077605034aab3d23915d064d579e3f32d0e6b68d8d335",
    ("bench", "csv"): "c78e2a14cf58db85a50c8ed1235a9d5f15ed6a4f171523678525a97e4e63cbad",
}

# Each run's stdout with --output; {out} stands for the report path.  The
# chain lines name the degree cap the verdict compares against (they read
# "2T=2" before, the cap of the collision family alone).
SUMMARY = {
    "lattice": "wrote 3 points to {out}\n",
    "lattice-super": "wrote 17 points to {out}\n",
    "simulate-exact-shots": "acceptance_probability = 1/2\n",
    "simulate-float-setcomp": "acceptance_probability = 0.5\n",
    "extract": "degree 2, 40 terms -> {out}\n",
    "verify-gamma": "all equal: true (51 cases)\n",
    "verify-identity": "identity exact: true (2 points)\n",
    "chain-mc": "chain[coincidence_probe_4] d=0.275 bound=0.242821 cap=2 consistent=true\n",
    "chain-control":
        "chain[negative-control-steep-poly] d=10 bound=49.1674 cap=2 consistent=false\n",
    "setcomp-exact": "P(1) = 0/1\n",
    "setcomp-float": "P(1) = 0.050000000000000003\n",
    "setcomp-shots": "decision = equal\n",
    "bench": "wrote 2 benchmark rows to {out}\n",
}

# Without --output, stdout is the bare report and the summary goes to
# stderr, except for these subcommands, whose summary names the written
# file or value: they print no summary at all.
NO_SUMMARY = {"lattice", "lattice-super", "simulate-exact-shots", "simulate-float-setcomp",
              "extract", "bench"}


@pytest.mark.parametrize("name, fmt", sorted(REPORT_SHA256))
def test_report_file_and_stdout_are_pinned(name, fmt, tmp_path, capsys):
    out = tmp_path / f"report.{fmt}"
    args = RUNS[name] + ["--format", fmt]
    assert main(args + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == SUMMARY[name].replace("{out}", str(out))
    report = out.read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[(name, fmt)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == report.decode()
    assert captured.err == ("" if name in NO_SUMMARY else SUMMARY[name])


def _cli_tree() -> ast.Module:
    return ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))


def _called(node: ast.AST) -> list[str]:
    return [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_cli_renders_writes_and_prints_a_report_in_one_place():
    tree = _cli_tree()
    assert _called(tree).count("emit_report") == 1
    assert _called(tree).count("sys.stdout.write") == 1
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 8
    assert {f.name: _called(f).count("report") for f in commands} == {f.name: 1 for f in commands}


def test_main_maps_errors_to_exit_codes_in_one_except_arm():
    (main_def,) = [f for f in _cli_tree().body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    assert len([n for n in ast.walk(main_def) if isinstance(n, ast.ExceptHandler)]) == 1
