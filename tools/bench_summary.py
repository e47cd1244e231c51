"""Summarise the records of one `perfbench/run.py --all` run as one JSON file.

    python3 perfbench/run.py --all --seed 1 --seconds 28
    python3 tools/bench_summary.py perfbench/results > BENCH_<n>.json

Each workload keeps, plain and traced, its request counts, failures and
every metric with its unit; the raw per-request series stay in the results
directory. The provenance (commit, src lines, exported names, Python, CPUs)
and the run's seed and length are the same for every record of one run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def summary(results: Path) -> dict:
    workloads: dict = {}
    runs = set()
    for path in sorted(results.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        runs.add(json.dumps({key: record[key] for key in ("provenance", "seed", "seconds")}, sort_keys=True))
        workloads.setdefault(record["workload"], {})["traced" if record["trace"] else "plain"] = {
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    if len(runs) != 1:
        raise SystemExit(f"{results} holds the records of {len(runs)} runs; summarise one --all run")
    return {**json.loads(runs.pop()), "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print(json.dumps(summary(Path(sys.argv[1])), indent=2, sort_keys=True))
