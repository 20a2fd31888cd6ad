"""Run each workload on several seeds and summarise how steady its metrics are.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20 --out perfbench/out/set1.json \
        [--workloads solve,explore]

Runs ``run.py`` once per (workload, seed), one after another, and records for
each end-to-end metric its values, median, quartiles and the quartile
spread as a share of the median, as ``statistics.quantiles(values, n=4)``
gives them, and each run's details from its standard error. Two such sets of the same code are what the bounds in
``BENCHMARK.json`` are derived from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="solve,explore,validate,sweep")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs, details = [], []
        for seed in seed_range(args.seeds):
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            details.append(json.loads(done.stderr.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        metrics = {name: summary([run["metrics"][name]["value"] for run in runs]) for name in runs[0]["metrics"]}
        report[workload] = {
            "metrics": metrics,
            "failed_share": sorted({run["failed"] / run["attempted"] for run in runs}),
            "correct": all(run["correct"] for run in runs),
            "runs": details,
        }
        for name, stats in metrics.items():
            print(f"{workload} {name}: median {stats['median']:.4g} q1 {stats['q1']:.4g} q3 {stats['q3']:.4g} "
                  f"spread {stats['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
