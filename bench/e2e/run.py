#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources, runs one workload, and
prints the run's result as one JSON line.

usage: python3 bench/e2e/run.py --workload NAME --seed N --seconds N --trace 0|1

The build goes to .bench_build/e2e (configured once, then incremental). The
program's own output (per-workload tables and the fastt-bench/1 document,
kept at .bench_build/e2e/out/) comes first; the last line of standard output
is {"correct", "attempted", "failed", "metrics"}, where metrics holds, for
every metric BENCHMARK.json declares for the phase (end_to_end with
--trace 0, per_layer with --trace 1), the median of the run's samples. A
failed build, a crash, a failed correctness check or a metric set that
disagrees with BENCHMARK.json exits 1.
"""
import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

import check_metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# The benchmark ends each phase within ~--seconds plus one request; this
# leaves room for the slowest request on a loaded host.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run(args, doc_path):
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, FASTT_BENCH_JSON=str(doc_path))
    sys.stdout.flush()
    # Own process group, so a timeout takes down the phase children too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")

    build()
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    doc_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc_path.unlink(missing_ok=True)
    rc = run(args, doc_path)
    if not doc_path.exists():
        sys.exit(f"run.py: bench_e2e exited {rc} without a result")
    with open(doc_path) as f:
        doc = json.load(f)
    problems = check_metrics.check(doc, bench)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    report = doc["reports"][0]
    series = {m["name"]: m for m in report["metrics"]}
    phase = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics = {m["name"]: {"value": series[m["name"]]["median"],
                           "unit": m["unit"]}
               for m in phase if m["name"] in series}
    meta = doc["run"]
    attempted = int(meta.get(f"{args.workload}.attempted", 0))
    if attempted < 1:
        sys.exit("run.py: no request completed")
    correct = rc == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": int(meta[f"{args.workload}.failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
