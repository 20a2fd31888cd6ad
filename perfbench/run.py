"""Run one benchmark workload against the prunecheck sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are made from ``--seed``; the
set-up is timed in fresh interpreters; then jobs run back to back for
``--seconds`` after one warm-up job, and every job's answers are judged
against computations made apart from the program. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` traced and untraced jobs alternate and the metrics are
the per-layer ones. Details of the run go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
# Timed jobs a run makes at the least, however long they take.
MIN_JOBS = 3

END_TO_END_UNITS = {"setup_s": "s", "job_per_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "model.load_s": "s",
    "model.validate_s": "s",
    "environments.calls": "count",
    "environments.s": "s",
    "policy.select_calls": "count",
    "policy.select_s": "s",
    "induced.builds": "count",
    "induced.original_builds": "count",
    "induced.self_s": "s",
    "checking.checks": "count",
    "checking.check_s": "s",
    "checking.sweeps": "count",
    "checking.prob01_s": "s",
    "pruning.prune_s": "s",
    "workflow.self_s": "s",
    "workflow.original_s": "s",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


def reference_loop() -> int:
    """A fixed pure-Python workload that never calls the program.

    The host's speed drifts by tens of percent over seconds, so a job's
    wall time is reported in units of this loop, run between jobs. It does
    what the program's inner loops do: index lists, build tuples, look up
    and update dicts and multiply floats, then many small NumPy products
    like a policy's forward pass. Each half alone tracked some workloads
    well and others badly; together they tracked all four within about 3 %
    over 15-s windows where raw job times moved by 15 %.
    """
    table: dict = {}
    rows = [((i * 7919) % 5000, 0.5) for i in range(20000)]
    x = [0.0] * 5000
    for _ in range(8):
        for s, (t, p) in enumerate(rows):
            key = (t, s % 13)
            table[key] = table.get(key, 0.0) + p * x[t]
            x[t] = x[t] * 0.5 + p
    w1, b1, w2, b2 = np.ones((8, 4)), np.ones(8), np.ones((5, 8)), np.ones(5)
    best = 0
    for i in range(6000):
        h = np.maximum(w1 @ np.asarray((i % 7, i % 5, 3, 4), dtype=np.float64) + b1, 0.0)
        logits = w2 @ h + b2
        best += int(logits[i % 5] > logits[0])
    return len(table) + best


def timed_reference() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="prunecheck benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=("solve", "explore", "validate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setups(request: dict) -> tuple[list, list]:
    """Wall time from starting a fresh interpreter to its objects existing, and its import time."""
    line = json.dumps({"src": str(SRC), **request}) + "\n"
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "setup_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            child.stdin.write(line)
            child.stdin.close()
            reply = child.stdout.readline()
            walls.append(time.perf_counter() - started)
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or not reply:
            raise RuntimeError(f"set-up process exited with code {code}")
        imports.append(json.loads(reply)["import_s"])
    return walls, imports


class Runner:
    """Runs jobs of one workload, plain or traced, and keeps their answers and times."""

    def __init__(self, pc, workload, tracer):
        self.pc = pc
        self.workload = workload
        self.tracer = tracer
        self.results: dict = {}  # repr(answers) -> (answers, jobs that gave them)
        self.jobs = 0
        self.raised = 0

    def job(self, traced: bool) -> tuple[float, dict | None]:
        tracer, workload = self.tracer, self.workload
        if traced:
            tracer.reset_job(self.jobs)
            tracer.install()
            workload.swap_envs(tracer.wrap_env)
        started = time.perf_counter()
        try:
            answers = workload.job(self.pc)
        except Exception:  # a job that raises fails all of its operations; the run goes on
            if not self.raised:
                traceback.print_exc()
            self.raised += 1
            answers = []
        wall = time.perf_counter() - started
        figures = None
        if traced:
            figures = tracer.job_figures()
            tracer.uninstall()
            workload.swap_envs(tracer.unwrap_env)
        key = repr(answers)
        self.results.setdefault(key, [answers, 0])[1] += 1
        self.jobs += 1
        return wall, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prunecheck" / "__init__.py").is_file():
        print(f"error: no prunecheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import trace, workloads

    out_dir = OUT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    out_dir.mkdir(parents=True)
    try:
        return run(args, out_dir, trace, workloads)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir: Path, trace, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_walls, import_times = time_setups(workload.setup_request())

    import prunecheck as pc
    import prunecheck.cli  # noqa: F401  (the sweep jobs drive the CLI in-process)

    if Path(pc.__file__).resolve().parent != SRC / "prunecheck":
        print(f"error: imported prunecheck from {pc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload.setup(pc)
    tracer = trace.Tracer(pc, workload.originals()) if args.trace else None
    runner = Runner(pc, workload, tracer)

    runner.job(traced=False)  # warm-up, not timed
    if tracer:
        runner.job(traced=True)
    plain, traced, per_ref = [], [], []
    reference = timed_reference()
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(plain) < MIN_JOBS:
        plain.append(runner.job(traced=False)[0])
        if tracer:
            traced.append(runner.job(traced=True))
        else:
            previous, reference = reference, timed_reference()
            per_ref.append(plain[-1] / ((previous + reference) / 2))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    operations = workload.operations()
    known = workloads.KNOWN_FAULTS.get(workload.name, set())
    failed, unexpected = 0, set()
    for answers, count in runner.results.values():
        wrong = workload.judge(pc, answers) if answers else set(operations)
        failed += len(wrong) * count
        unexpected |= wrong - known
    correct = not unexpected and not runner.raised and len(runner.results) == 1

    if tracer:
        metrics = layer_metrics(trace, traced, plain, import_times)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "job_per_ref": statistics.median(per_ref),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "timed_jobs": len(plain),
        "job_s_median": statistics.median(plain),
        "job_s": plain[:100],
        "job_per_ref": per_ref[:100],
        "setup_s": setup_walls,
        "unexpected_failures": sorted(unexpected),
        "distinct_answers": len(runner.results),
        **workload.info,
    }
    print(json.dumps(details), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.jobs * len(operations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(trace, traced: list, plain: list, import_times: list) -> dict:
    """Medians over the traced jobs of each layer's figures, plus the tracing overhead."""
    rows = []
    for wall, figures in traced:
        row = trace.layer_metrics(figures)
        job_s = wall - figures["excluded"]
        row["trace.job_s"] = job_s
        row["trace.unattributed_s"] = job_s - sum(figures["self"].values())
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["setup.import_s"] = statistics.median(import_times)
    out["trace.untraced_job_s"] = statistics.median(plain)
    out["trace.overhead_pct"] = 100.0 * (out["trace.job_s"] / out["trace.untraced_job_s"] - 1.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
