"""The benchmark workloads: set-up from the seed, one job, and the check
of one job's output.

Each job goes through a public entry point of the program (`cli.main`
or `simulator.acceptance_probability`), so a change behind it shows.
The seed only shapes the inputs; the program sees nothing else of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from collisionlab import circuits, cli, simulator
from collisionlab.instances import QuasilatticePoint, sample_collision_input
from collisionlab.qsqrt2 import QSqrt2

MC_SAMPLES = 2000
FLOAT_TOL = 1e-9
GAMMA_CASES = 5897  # n = 4, 6, 8; degree <= 2; every divisor point with N <= 8


def run_cli(argv: list[str]) -> int:
    """cli.main with its console output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """One workload.  setup() builds the inputs, job() does one unit of
    work and returns its output, check() lists what is wrong with it."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        pass

    def job(self):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError


class _ReportJob(Workload):
    """A CLI command writing one JSON report; its output is the report bytes."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def job(self):
        report = self.workdir / "report.json"
        code = run_cli(self.argv() + ["--output", str(report)])
        return code, report.read_bytes()


class ChainWorkload(_ReportJob):
    algorithm = ""

    def argv(self):
        return ["chain", "--algorithm", self.algorithm, "--G", "2",
                "--mc-samples", str(MC_SAMPLES), "--seed", str(self.seed)]

    def check(self, output):
        code, report = output
        if code != 0:
            return [f"chain exited with {code}"]
        res = json.loads(report)["results"]
        problems = []
        if res["consistent"] is not True:
            problems.append("chain report is not consistent")
        if not res["extracted_degree"] <= res["two_T"]:
            problems.append(f"extracted degree {res['extracted_degree']} exceeds 2T = {res['two_T']}")
        if not res["points"]:
            problems.append("chain report has no points")
        for point in res["points"]:
            where = tuple(point[k] for k in ("g", "N", "M") if k in point)
            note = f"P at {where} estimated from {MC_SAMPLES} samples"
            if point["exact"] is not False or note not in res["notes"]:
                problems.append(f"point {where} is not marked Monte Carlo with its note")
        return problems


class SetcompChain(ChainWorkload):
    """chain on the builtin setcomp-probe-8, built inside each job."""

    algorithm = "setcomp-probe-8"


class MixerChain(ChainWorkload):
    """chain on two_query_mixer(8), dumped once to a circuit file."""

    def setup(self):
        path = self.workdir / "two_query_mixer_8.json"
        circuits.two_query_mixer(8).dump(path)
        self.algorithm = "@" + str(path)


class ExactSim(Workload):
    """Exact and float acceptance of a seeded batch of draws from the
    (1, 8) and (2, 8) collision families, on two prebuilt circuits."""

    DRAWS = {"coincidence": 50, "mixer": 40}  # per family point

    def setup(self):
        rng = random.Random(self.seed)
        self.cases = []
        for key, alg in (("coincidence", circuits.coincidence_probe(8)),
                         ("mixer", circuits.two_query_mixer(8))):
            for g in (1, 2):
                for _ in range(self.DRAWS[key]):
                    inst = sample_collision_input(QuasilatticePoint(g, 8), 8, rng)
                    self.cases.append((key, alg, inst))

    def job(self):
        ap = simulator.acceptance_probability
        return [(ap(alg, inst, "exact"), ap(alg, inst, "float"))
                for _key, alg, inst in self.cases]

    def check(self, output):
        problems = []
        zero, one = QSqrt2(0), QSqrt2(1)
        for (key, _alg, inst), (exact, approx) in zip(self.cases, output, strict=True):
            if not zero <= exact <= one:
                problems.append(f"{key} {inst.x}: exact value {exact!r} outside [0, 1]")
            if abs(float(exact) - approx) > FLOAT_TOL:
                problems.append(f"{key} {inst.x}: float {approx!r} != exact {exact!r}")
            if key == "coincidence":
                closed = Fraction(sum(c * c for c in Counter(inst.x).values()), 64)
                if exact != QSqrt2(closed):
                    problems.append(f"coincidence {inst.x}: {exact!r} != closed form {closed}")
        return problems


class GammaSweep(_ReportJob):
    """verify-gamma over every divisor point for n = 4, 6, 8.  The work is
    exhaustive, so the seed only orders the n values and is echoed."""

    def setup(self):
        self.ns = [str(n) for n in random.Random(self.seed).sample([4, 6, 8], 3)]

    def argv(self):
        return ["verify-gamma", "--n", *self.ns, "--max-degree", "2",
                "--max-N", "8", "--seed", str(self.seed)]

    def check(self, output):
        code, report = output
        summary = json.loads(report)["results"]["summary"]
        problems = []
        if code != 0 or summary["all_equal"] is not True:
            problems.append(f"verify-gamma exited with {code}, all_equal {summary['all_equal']}")
        if summary["cases"] != GAMMA_CASES:
            problems.append(f"verify-gamma ran {summary['cases']} cases, not {GAMMA_CASES}")
        return problems


WORKLOADS = {
    "setcomp-chain": SetcompChain,
    "mixer-chain": MixerChain,
    "exact-sim": ExactSim,
    "gamma-sweep": GammaSweep,
}
