#!/usr/bin/env python3
"""Checks a bench_e2e fastt-bench/1 document against BENCHMARK.json.

Every metric BENCHMARK.json declares must be in every workload's report with
its declared unit and direction and at least one finite sample, the report
may hold nothing undeclared, and every report must name a declared workload
(all of them when the run covered "all"). Which metrics a report owes
depends on the phases the run recorded in its "phases" metadata: the
end_to_end list for the timed phase, the per_layer list for the traced one.

usage: check_metrics.py DOC.json

Exits 0 when the document conforms, 1 with one line per problem otherwise.
Standard library only.
"""
import argparse
import json
import math
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def check(doc, bench):
    """Returns the list of problems."""
    if doc.get("schema") != "fastt-bench/1":
        return ["not a fastt-bench/1 document"]
    phases = doc.get("run", {}).get("phases", "").split(",")
    if not set(phases) <= {"end_to_end", "per_layer"}:
        return [f"run metadata names unknown phases {phases!r}"]
    declared = [m for phase in phases for m in bench[phase]]
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []
    reports = doc.get("reports", [])
    seen = [r.get("params", {}).get("workload") for r in reports]
    expected = workloads if doc.get("run", {}).get("workload") == "all" else seen
    for name in expected:
        if seen.count(name) != 1:
            problems.append(f"workload {name}: {seen.count(name)} reports")
    for report in reports:
        workload = report.get("params", {}).get("workload")
        if workload not in workloads:
            problems.append(f"report for undeclared workload {workload!r}")
            continue
        series = {m["name"]: m for m in report.get("metrics", [])}
        for metric in declared:
            m = series.pop(metric["name"], None)
            where = f"{workload}: {metric['name']}"
            if m is None:
                problems.append(f"{where}: missing")
                continue
            if m.get("unit") != metric["unit"]:
                problems.append(
                    f"{where}: unit {m.get('unit')!r}, declared {metric['unit']!r}")
            if m.get("lower_is_better") != (metric["better"] == "lower"):
                problems.append(f"{where}: direction disagrees with "
                                f"\"better\": {metric['better']!r}")
            samples = m.get("samples", [])
            if not samples or not all(
                    isinstance(x, (int, float)) and math.isfinite(x)
                    for x in samples):
                problems.append(f"{where}: no finite samples")
        for name in series:
            problems.append(f"{workload}: {name}: not declared")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("doc")
    args = parser.parse_args()
    with open(args.doc) as f:
        doc = json.load(f)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    problems = check(doc, bench)
    for p in problems:
        print(f"check_metrics: {p}", file=sys.stderr)
    if not problems:
        print(f"check_metrics: {args.doc} conforms to {BENCHMARK}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
