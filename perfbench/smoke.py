"""Tiny-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload, plain and traced, at the smallest depths for about half
a second each, and exits 0 only when every request was correct and each run
reported exactly the metrics BENCHMARK.json names for its mode.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, WORKLOADS, benchmark_metrics, run_workload


def main() -> int:
    problems = []
    listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads {listed}, the benchmark has {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, seed=0, seconds=0.5, trace=trace, tiny=True)
            label = f"{workload} ({'traced' if trace else 'plain'})"
            print(f"{label}: {record['attempted']} requests, {record['failed']} failed")
            problems += [f"{label}: {reason}" for reason in record["failures"]]
            wanted = benchmark_metrics(trace)
            got = set(record["metrics"])
            if not wanted <= got:
                problems.append(f"{label}: missing metrics {sorted(wanted - got)}")
            if trace and got - wanted:
                problems.append(f"{label}: metrics not in BENCHMARK.json {sorted(got - wanted)}")
            for name in wanted & got:
                value = record["metrics"][name]["value"]
                if not math.isfinite(value) or (not trace and value <= 0):
                    problems.append(f"{label}: {name} = {value}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
