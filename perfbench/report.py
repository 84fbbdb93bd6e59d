#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Each (workload, seed) is one `run.py` process, run one after another.  For
every metric the table gives its unit, the median over the seeds and, with
more than one seed, the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound, then the value of each seed.  failed_frac is the share of
invocations that failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"== {workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, correct={correct}, "
              f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted})")
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {m['name']:<44} {median:>12.6g} {m['unit']:<12}"
            if len(values) > 1 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f" spread {(q3 - q1) / median:7.4f}"
                if "bound" in m:
                    line += f"  bound {m['bound']} (a third: {m['bound'] / 3:.4f})"
                line += "  [" + " ".join(f"{v:.4g}" for v in values) + "]"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
