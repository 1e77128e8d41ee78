#!/usr/bin/env python3
"""Run `fastt report` on lenet and check the run document it writes.

Usage: check_report.py <fastt binary> <report.json> <trace.json>

Runs `fastt report lenet <report.json> --gpus 2 --trace-search <trace.json>`
and checks (stdlib only):

  * stdout carries the search phase self-time table;
  * the fastt-report/1 bundle names the command and model and has every
    headline section, with non-empty metric counters and trace phases;
  * the metrics section's heap gauges saw allocations overall
    (mem/total/*) and in the graph and sim/events tags (mem/graph/allocs,
    mem/sim_events/allocs; all-zero stats would mean the allocator
    instrumentation came unwired);
  * the Chrome trace holds "X" spans and the heap tracker's
    mem/total/live_bytes counter track.

Exits 0 and prints a one-line summary on success; prints every violation
and exits 1 otherwise.
"""

import json
import subprocess
import sys

SECTIONS = ("params", "metrics", "events", "trace_phases", "verify",
            "calibration")


def check(fastt: str, report_path: str, trace_path: str) -> list:
    run = subprocess.run(
        [fastt, "report", "lenet", report_path, "--gpus", "2",
         "--trace-search", trace_path],
        capture_output=True, text=True)
    if run.returncode != 0:
        return [f"fastt report exited {run.returncode}: {run.stderr}"]
    errors = []
    if "| phase " not in run.stdout:
        errors.append("stdout has no phase table")

    with open(report_path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "fastt-report/1":
        errors.append(f"schema is {doc.get('schema')!r}")
    if doc.get("command") != "report" or doc.get("model") != "lenet":
        errors.append(f"command/model: {doc.get('command')!r}, "
                      f"{doc.get('model')!r}")
    missing = [key for key in SECTIONS if key not in doc]
    if missing:
        return errors + [f"missing sections {missing}: {sorted(doc)}"]
    if not doc["metrics"]["counters"]:
        errors.append("empty counters")
    if not doc["trace_phases"]:
        errors.append("empty trace summary")
    gauges = doc["metrics"]["gauges"]
    for gauge in ("mem/total/allocs", "mem/total/peak_bytes",
                  "mem/graph/allocs", "mem/sim_events/allocs"):
        if gauges.get(gauge, 0) <= 0:
            errors.append(f"gauge {gauge} saw no allocations")

    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        errors.append("trace has no spans")
    if not any(e.get("ph") == "C" and e.get("name") == "mem/total/live_bytes"
               for e in events):
        errors.append("trace has no mem/total/live_bytes counter")
    if not errors:
        print(f"{len(doc['metrics']['counters'])} counters, "
              f"{len(doc['events'])} events, "
              f"{len(doc['trace_phases'])} trace phases, "
              f"{len(events)} trace events")
    return errors


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    errors = check(*sys.argv[1:])
    for e in errors:
        print(f"check_report: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
