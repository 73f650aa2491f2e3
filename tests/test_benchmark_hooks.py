"""The benchmark tracer wraps collisionlab functions by module attribute
name; these tests fail when a refactor removes or rebinds one of them."""

import importlib.util
from pathlib import Path

from collisionlab import cli, polymethod, simulator
from collisionlab.circuits import coincidence_probe, setcomp_probe
from collisionlab.instances import (
    Instance, count_supports, divisor_points, enumerate_supports, enumerate_table,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(timing=False):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(timing=timing)


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_restores_every_hook():
    tracer = load_tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert current(owner, attr) is original, attr


def test_the_tracer_counts_the_stored_amplitudes_into_each_layer():
    # coincidence_probe(4) applies U_0 to its one initial basis state and
    # U_1 to the four amplitudes of the queried uniform superposition.
    tracer = load_tracer()
    tracer.install()
    try:
        tracer.job = "sim"
        simulator.acceptance_probability(coincidence_probe(4), Instance(kind="collision", n=4, x=(2, 2, 4, 4)))
    finally:
        tracer.uninstall()
    assert tracer.counts["sim"]["simulator.apply_unitary_calls"] == 2
    assert tracer.counts["sim"]["simulator.amplitudes_in"] == 5


def test_chain_calls_reach_the_traced_names():
    # A cap of 0 sends every point to Monte Carlo, so both families'
    # assembly and Monte Carlo hooks run, one Monte Carlo span per point.
    tracer = load_tracer(timing=True)
    tracer.install()
    try:
        for job, alg in (("collision", coincidence_probe(4)), ("setcomp", setcomp_probe(8))):
            tracer.job = job
            report = cli.verify_inequality_chain(alg, G=2, mc_samples=10, cap=0)
            assert len(report.points) == 2
    finally:
        tracer.uninstall()
    for job, mc in (("collision", "polymethod.mc"), ("setcomp", "setcomp_poly.mc")):
        counts = tracer.counts[job]
        assert counts["degreebound.points"] == 2
        assert counts["degreebound.exact_points"] == 0
        assert sum(1 for span in tracer.spans if span[0] == mc and span[4] == job) == 2
        assert counts["lattice.q_terms"] > 0
        assert counts["polymethod.extract_terms"] > 0



def test_verify_gamma_sweeps_one_table_of_every_latent_draw(tmp_path, monkeypatch):
    # A traced sweep reads one enumerate_table per swept point, and each
    # table holds the input of every latent draw, in enumerate_supports'
    # order.
    tables = []

    def recorded(point, n, cap=None):
        table = enumerate_table(point, n, cap)
        tables.append((tuple(point), n, table))
        return table

    monkeypatch.setattr(polymethod, "enumerate_table", recorded)
    tracer = load_tracer()
    tracer.install()
    try:
        tracer.job = "gamma"
        code = cli.main(["verify-gamma", "--n", "4", "6", "--max-degree", "1",
                         "--max-N", "8", "--output", str(tmp_path / "gamma.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    swept = [(tuple(point), n) for n in (4, 6) for point in divisor_points(n, 8)]
    assert [(point, n) for point, n, _ in tables] == swept
    for point, n, table in tables:
        assert table.shape == (count_supports(point, n), n)
        want = [latent.seqs[0][:n] for latent in enumerate_supports(point, n)]
        assert table.tolist() == [list(row) for row in want]


def test_chain_on_a_circuit_file_loads_through_the_traced_name(tmp_path):
    # One simulator.load span per run, holding the orthogonality check of
    # every layer it reads, keeps the cost of reading a circuit file
    # visible per layer in a traced run.
    alg = coincidence_probe(4)
    path = tmp_path / "coincidence4.json"
    alg.dump(path)
    tracer = load_tracer(timing=True)
    tracer.install()
    try:
        tracer.job = "file"
        code = cli.main(["chain", "--algorithm", f"@{path}", "--G", "2", "--mc-samples", "10",
                         "--output", str(tmp_path / "chain.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    loads = [sid for sid, span in enumerate(tracer.spans) if span[0] == "simulator.load"]
    assert len(loads) == 1
    checks = [span for span in tracer.spans if span[0] == "simulator.is_orthogonal"]
    assert sum(1 for span in checks if span[3] == loads[0]) == alg.T + 1


def test_the_names_the_tracer_patches_are_aliases_of_one_implementation():
    # Each per-family name the tracer reaches is the shared function
    # itself, so a second body cannot grow back behind it.
    from collisionlab import instances, polymethod, setcomp_poly

    assert instances.sample_collision_input is instances.sample_input
    assert setcomp_poly.sample_setcomp_input is instances.sample_input
    assert setcomp_poly.expected_acceptance3_mc is polymethod.expected_acceptance_mc
    assert polymethod.enumerate_collision_supports is instances.enumerate_rows
