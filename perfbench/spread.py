"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload exact-sim --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds $(seq 1 10) --json out.json

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOAD_NAMES


def run_seed(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    return json.loads(lines[-1])


def summarize(workload: str, results: list[dict], spec: dict) -> dict:
    summary = {"runs": len(results), "correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    print(f"[{workload}] {len(results)} runs, correct {summary['correct']}, "
          f"{summary['failed']} failed / {summary['attempted']} jobs")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values,
        }
        print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:5s} quartiles {q1:.4f} .. {q3:.4f}"
              f"  spread {spread:.3f} (bound {m['bound']})")
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--json", default=None, help="write the summaries to this file")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out = {}
    for workload in workloads:
        results = [run_seed(workload, s, spec["run_seconds"]) for s in args.seeds]
        out[workload] = summarize(workload, results, spec)
        out[workload]["seeds"] = args.seeds
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
