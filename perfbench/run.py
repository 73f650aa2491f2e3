"""collisionlab benchmark.

    python3 perfbench/run.py --workload setcomp-chain --seed 1
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload exact-sim --seed 1 --trace 1

Run from the root of a checkout.  The program is imported from src/ of
that checkout; nothing is installed.  Each workload runs as a closed loop
with one caller in one single-threaded worker process: each job starts
when the previous one ends, until the next job would end after --seconds
(at least one job).  Every job's output is checked.  Set-up (importing
collisionlab and building the workload's inputs) is timed in that
process and in SETUP_SAMPLES - 1 more fresh processes, and the median is
reported.  Times are reported in reference seconds, corrected for the
host's speed while they were taken (hostspeed.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (self times per job, counts, tracing overhead).
The metric names are those of BENCHMARK.json.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from hostspeed import REF_S

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("setcomp-chain", "mixer-chain", "exact-sim", "gamma-sweep")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Layer whose self time should dominate each workload's jobs.
EXPECTED_LARGEST = {
    "setcomp-chain": ("simulator.is_orthogonal_s",),
    "mixer-chain": ("polymethod.extract_s", "multilinear.square_s"),
    "exact-sim": ("simulator.apply_unitary_s",),
    "gamma-sweep": ("instances.enumerate_s", "polymethod.gamma_sweep_s"),
}


class RunError(Exception):
    pass


def run_worker(workload, seed, seconds, mode, workdir, deadline, spans=None) -> dict:
    result = workdir / f"result-{mode}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--workdir", str(workdir), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        # run() kills the worker on timeout and waits for it to end.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, seed, seconds, workdir, deadline) -> tuple[dict, dict]:
    setups = [run_worker(workload, seed, seconds, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(workload, seed, seconds, "jobs", workdir, deadline)
    setups.append(res["setup_s"])
    jobs = res["job_s"]
    q1, q3 = quartiles(jobs)
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "job_s": {"value": statistics.median(jobs), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "success_rate": {"value": 1 - failed / attempted, "unit": "ratio"},
    }
    walls = res["job_wall_s"]
    wq1, wq3 = quartiles(walls)
    probes = res["probe_s"]
    pq1, pq3 = quartiles(probes)
    print(f"[{workload}] seed {seed}: closed loop, 1 caller, {attempted} jobs in one process; "
          "times in reference seconds")
    print(f"  job_s        {metrics['job_s']['value']:.4f} s   median of {len(jobs)} jobs; "
          f"quartiles {q1:.4f} .. {q3:.4f}, range {min(jobs):.4f} .. {max(jobs):.4f}")
    print(f"               wall time median {statistics.median(walls):.4f} s; quartiles "
          f"{wq1:.4f} .. {wq3:.4f}")
    print(f"  host probe   median {statistics.median(probes) * 1e3:.4f} ms over {len(probes)} "
          f"samples; quartiles {pq1 * 1e3:.4f} .. {pq3 * 1e3:.4f} ms (REF_S {REF_S * 1e3} ms)")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setups)} set-ups "
          f"({', '.join(f'{s:.4f}' for s in setups)}); wall time of the last "
          f"{res['setup_wall_s']:.4f} s")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {failed / attempted:.4f} ratio   ({failed} failed / {attempted} attempted)")
    return metrics, res


def per_layer(workload, seed, seconds, workdir, deadline, names) -> tuple[dict, dict]:
    spans = ROOT / "perfbench" / "out" / f"trace-{workload}-seed{seed}.jsonl"
    res = run_worker(workload, seed, seconds, "trace", workdir, deadline, spans)
    traced = res["job_s"]
    jobs = len(traced)
    counts = res["counts"]
    job_self: dict[str, float] = {}
    for job in range(jobs):
        for name, s in res["self_s"].get(str(job), {}).items():
            job_self[name] = job_self.get(name, 0.0) + s / jobs
    setup_self = res["self_s"].get("setup", {})
    overhead = statistics.median(traced) - res["untraced_job_s"]
    points = counts.get("degreebound.points", 0)

    metrics = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = overhead
        elif name == "degreebound.exact_point_ratio":
            value = counts.get("degreebound.exact_points", 0) / points if points else 0.0
        elif name.startswith("setup.") and unit == "s":
            value = setup_self.get(name[len("setup."):-len("_s")], 0.0)
        elif name.startswith("setup."):
            value = res["setup_counts"].get(name[len("setup."):], 0)
        elif unit == "s":
            value = job_self.get(name[: -len("_s")], 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}

    print(f"[{workload}] seed {seed}: traced run, {jobs} traced jobs + 1 untraced; spans in "
          f"{spans.relative_to(ROOT)}")
    print(f"  traced job_s {statistics.median(traced):.4f} s, untraced {res['untraced_job_s']:.4f} s, "
          f"tracing overhead {overhead:+.4f} s")
    by_layer: dict[str, float] = {}
    for name, s in job_self.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    print("  self time per job, by layer: " + ", ".join(
        f"{layer} {s:.4f} s" for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    for name, m in metrics.items():
        print(f"    {name:38s} {m['value']:>12.6g} {m['unit']}")
    timed = {n: m["value"] for n, m in metrics.items()
             if m["unit"] == "s" and not n.startswith(("setup.", "trace."))}
    largest = max(timed, key=timed.get)
    verdict = "as expected" if largest in EXPECTED_LARGEST[workload] else (
        "MISMATCH, expected " + " or ".join(EXPECTED_LARGEST[workload]))
    print(f"  largest self time: {largest} ({verdict})")
    return metrics, res


def run_one(workload, seed, seconds, trace, names) -> int:
    deadline = monotonic() + RUN_LIMIT_S
    out = ROOT / "perfbench" / "out"
    workdir = out / f"run-{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, res = per_layer(workload, seed, seconds, workdir, deadline, names)
        else:
            metrics, res = end_to_end(workload, seed, seconds, workdir, deadline)
    except RunError as exc:
        print(f"error: [{workload}] {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in res["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "collisionlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no collisionlab checkout (src/collisionlab, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_one(workload, args.seed, args.seconds, args.trace, names))
    return status


if __name__ == "__main__":
    sys.exit(main())
