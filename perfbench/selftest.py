"""Check that the benchmark's counts are deterministic.

    python3 perfbench/selftest.py --seed 1 [--workload gamma-sweep ...]

For each workload, runs one job traced twice and once with counting
wrappers only (no clock, no spans), and requires the counts of all three
to be equal.  Each traced run also requires its untraced job to give the
same output, byte for byte for reports, as the traced job.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from time import monotonic

from run import ROOT, WORKLOAD_NAMES, RunError, run_worker

RUN_LIMIT_S = 600.0


def check(workload: str, seed: int) -> list[str]:
    workdir = ROOT / "perfbench" / "out" / f"selftest-{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = monotonic() + RUN_LIMIT_S
    try:
        runs = {label: run_worker(workload, seed, 0, mode, workdir, deadline)
                for label, mode in (("traced", "trace"), ("traced again", "trace"),
                                    ("counting only", "count"))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [f"{label}: {p}" for label, res in runs.items() for p in res["problems"]]
    base = runs["traced"]
    for label, res in runs.items():
        for key in ("counts", "setup_counts"):
            if res[key] != base[key]:
                problems.append(f"{key} of the {label} run differ: {res[key]} != {base[key]}")
    print(f"[{workload}] counts {base['counts']}, set-up counts {base['setup_counts']}: "
          + ("FAIL" if problems else "repeat exactly"))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for workload in args.workload:
        try:
            problems = check(workload, args.seed)
        except RunError as exc:
            problems = [str(exc)]
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
