"""One benchmark process: import collisionlab, set up one workload, then
run its jobs back to back (a closed loop with one caller) and write the
measurements as JSON to --result.

Every job and the set-up are timed twice: as wall time, and in reference
seconds, corrected for the host's speed by the probe of hostspeed.py that
runs throughout.

Modes:
  setup  set up only; reports the set-up time
  jobs   set up, then run jobs untraced until the next job would end
         after --seconds (at least one job)
  trace  as jobs, with every layer wrapped by the tracer; then one
         untraced job, whose output must equal the traced one
  count  one job with counting wrappers only (no clock, no spans)

Started by run.py, with the checkout root as working directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def timed_jobs(wl, seconds: float, probe, before_job=None) -> dict:
    """Run jobs until the next one would end after `seconds` (at least
    one); check each."""
    times: list[float] = []
    walls: list[float] = []
    problems: list[str] = []
    failed = 0
    first = None
    loop_start = perf_counter()
    while True:
        index = len(times)
        if before_job is not None:
            before_job(index)
        mark = probe.mark()
        try:
            output = wl.job()
            error = None
        except Exception as exc:  # a job that raises counts as failed
            output, error = None, f"job {index} raised {exc!r}"
        ref, wall = probe.since(mark)
        times.append(ref)
        walls.append(wall)
        job_problems = [error] if error else wl.check(output)
        if not error:
            if first is None:
                first = output
            elif output != first:
                job_problems.append(f"job {index} output differs from job 0")
        if job_problems:
            failed += 1
            problems.extend(job_problems[:5])
        if perf_counter() - loop_start + statistics.median(walls) > seconds:
            break
    return {"job_s": times, "job_wall_s": walls, "failed": failed, "problems": problems,
            "first": first}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "jobs", "trace", "count"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    probe = SpeedProbe()
    probe.start()
    mark = probe.mark()
    import collisionlab

    if not Path(collisionlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported collisionlab from {collisionlab.__file__}, not this checkout")
    from workloads import WORKLOADS

    tracer = None
    if args.mode in ("trace", "count"):
        from tracer import Tracer

        tracer = Tracer(timing=args.mode == "trace")
        tracer.install()
        tracer.job = "setup"
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    result: dict = dict(zip(("setup_s", "setup_wall_s"), probe.since(mark)))

    if args.mode != "setup":
        seconds = 0.0 if args.mode == "count" else args.seconds
        before = None
        if tracer is not None:
            def before(index):
                tracer.job = index
        run = timed_jobs(wl, seconds, probe, before)
        first = run.pop("first")
        result.update(run)
        result["attempted"] = len(run["job_s"])
        if tracer is not None:
            tracer.uninstall()
            jobs = range(result["attempted"])
            counts = [dict(tracer.counts[j]) for j in jobs]
            if any(c != counts[0] for c in counts):
                result["problems"].append("counts differ between jobs")
                result["failed"] += 1
            result["counts"] = counts[0]
            result["setup_counts"] = dict(tracer.counts["setup"])
        if args.mode == "trace":
            # Same inputs, tracing off: the output must not change.
            untraced = timed_jobs(wl, 0.0, probe)
            result["untraced_job_s"] = untraced["job_s"][0]
            result["attempted"] += 1
            if untraced["failed"] or untraced["first"] != first:
                result["failed"] += 1
                result["problems"].append("untraced output differs from traced output")
            self_times = tracer.self_times()
            result["self_s"] = {str(job): dict(v) for job, v in self_times.items()}
            if args.spans is not None:
                tracer.write_jsonl(args.spans)
    probe.stop()
    result["probe_s"] = probe.times
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
