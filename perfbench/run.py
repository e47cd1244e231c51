"""End-to-end benchmark of the `cantorval` command line.

    python3 perfbench/run.py --workload overlap-enum --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28

One closed-loop client sends one request at a time. Each request is a fresh
`python -m cantorval.cli ...` process on this checkout's `src/` tree, with
`CANTORVAL_BUDGET` removed from its environment, and every output is checked
against the exact reference values in `specs.py` / `checks.py`. A run keeps
sending requests until they have taken `--seconds` seconds in total and
number at least MIN_REQUESTS.

The machine's speed drifts by tens of percent within minutes when it is
shared, so every third request is preceded by a run of REFERENCE, a fixed
program that does the same kind of work without cantorval. Each reported time
is a wall time scaled by REFERENCE_S over the median of the reference runs
around it: wall time at the speed where REFERENCE takes REFERENCE_S. The
results file keeps the unscaled values, the reference times and the raw
series beside them.

With `--trace 1` the run gives per-layer numbers instead: each request runs
once plain and once under `tracer.py`, which times the library's public
functions from outside, over whole passes of a short deck so that per-request
counts repeat exactly for a seed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a fuller record, with the seed and the
provenance of the code measured, goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from checks import Mismatch  # noqa: E402
from workloads import WORKLOADS, deck  # noqa: E402

SETUP_EVERY = 8
REFERENCE_EVERY = 3
# A fixed program, independent of cantorval, that does the kind of work a
# request does: start an interpreter, import the same stdlib modules, build
# and sort a 3^9 integer enumeration, print Fractions as JSON.
REFERENCE = """\
import argparse, dataclasses, json, re
from fractions import Fraction
xs = [0]
for w in (4096, 1024, 256, 64, 16, 4, 1, 7, 3):
    xs = [x + t for x in xs for t in (0, w, 2 * w)]
xs.sort()
print(json.dumps([[str(Fraction(x, 6561)), str(Fraction(x + 1, 6561))] for x in xs[:4000]]))
"""
REFERENCE_S = 0.1  # times are reported at the speed where REFERENCE takes this long
IMPORT_PROBES = 9
DECK_ROUNDS = 40
TRACE_ROUNDS = 3
TIMEOUT_S = 30.0
HARD_CAP_S = 120.0  # a run stops sending requests after this long, whatever happens
MIN_REQUESTS = 100  # so that at least ten samples lie above the 90th percentile

SPAN_METRICS = (
    ("diffsets.diff_approximation", ("calls", "self_ms")),
    ("diffsets.gap_bounds", ("calls", "self_ms")),
    ("diffsets.diff_interval", ("calls", "self_ms")),
    ("construction.depth_length", ("calls", "self_ms")),
    ("construction.scaled_lengths", ("calls",)),
    ("construction.cantor_approximation", ("self_ms",)),
    ("gapforest.gap_family", ("self_ms",)),
    ("gapforest.GapFamily.to_json", ("self_ms",)),
    ("gapforest.small_ratio_indices", ("calls",)),
    ("gapforest.gap_union_measure", ("self_ms",)),
    ("classify.classify", ("self_ms",)),
    ("classify.verify_certificate", ("self_ms",)),
    ("classify.depth_report", ("self_ms",)),
    ("intervals.minkowski_diff", ("self_ms",)),
    ("intervals.IntervalUnion.measure", ("self_ms",)),
    ("intervals.IntervalUnion.to_json", ("self_ms",)),
    ("intervals.IntervalUnion.__eq__", ("self_ms",)),
    ("intervals.complement_gaps", ("self_ms",)),
    ("intervals.normalize", ("self_ms",)),
    ("rationals.format_rational", ("calls", "self_ms")),
    ("rationals.parse_rational", ("calls",)),
    ("series.series_from_pattern", ("self_ms",)),
    ("series.ratios_from_series", ("self_ms",)),
    ("render.depth_stack", ("self_ms",)),
    ("render.ascii_depth_stack", ("self_ms",)),
    ("cli.main", ("calls", "self_ms")),
    ("budget.charge", ("calls",)),
)
COUNT_METRICS = (
    "diffsets.diff_approximation.coded_intervals",
    "diffsets.diff_approximation.parts_out",
    "gapforest.gap_family.gaps",
    "budget.refusals",
)
MAX_METRICS = (("diffsets.diff_approximation.denom_bits", "bits"), ("budget.charge.max_needed", "count"))
IMPORTED = ("cantorval", "cantorval.errors", "cantorval.budget", "cantorval.rationals",
            "cantorval.intervals", "cantorval.construction", "cantorval.diffsets",
            "cantorval.gapforest", "cantorval.classify", "cantorval.series", "cantorval.render",
            "cantorval.cli")
UNITS = {"calls": "calls/req", "self_ms": "ms/req"}


class SetupError(Exception):
    """The checkout cannot run the program."""


@dataclass
class Outcome:
    wall_s: float
    status: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timed_out: bool
    trace: bytes = b""


@dataclass
class Tally:
    """Requests of one run, with the failures and their first reasons."""

    walls: list[float] = field(default_factory=list)
    order: list[str] = field(default_factory=list)
    rss_kb: list[int] = field(default_factory=list)
    kinds: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, kind: str, outcome: Outcome, reason: str | None) -> None:
        self.walls.append(outcome.wall_s)
        self.order.append(kind)
        self.rss_kb.append(outcome.maxrss_kb)
        self.kinds.setdefault(kind, []).append(outcome.wall_s)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{kind}: {reason}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CANTORVAL_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Client of `spawner.py`, the small process that runs every request."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py"), str(TIMEOUT_S)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)

    def run(self, cmd: list[str], trace: bool = False) -> Outcome:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "trace": trace}).encode() + b"\n")
        self.proc.stdin.flush()
        head = json.loads(self.proc.stdout.readline())
        out, err, record = (self.proc.stdout.read(n) for n in head["sizes"])
        return Outcome(head["wall_s"], head["status"], out, err, head["maxrss_kb"],
                       head["timed_out"], record)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def judge(req, outcome: Outcome) -> str | None:
    """Why the request failed, or None when its output is correct."""
    if outcome.timed_out:
        return "timeout"
    if b"Traceback" in outcome.stderr:
        return "traceback on stderr"
    if outcome.status != req.exit_code:
        return f"exit {outcome.status}, expected {req.exit_code}"
    if req.check is None:
        lines = outcome.stderr.decode().splitlines()
        ok = not outcome.stdout and len(lines) == 1 and lines[0].startswith("error: ")
        return None if ok else "refusal is not one 'error:' line"
    if outcome.stderr:
        return "unexpected stderr"
    try:
        text = outcome.stdout.decode()
        req.check(text if req.text else json.loads(text))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def cli_cmd(req) -> list[str]:
    return [sys.executable, "-m", "cantorval.cli", *req.args]


def trace_cmd(req) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), "FD", *req.args]


def setup(spawner: Spawner, probes: int, importtime: bool, warm: bool = True) -> tuple[list[float], dict]:
    """Fresh `import cantorval.cli` processes: wall times, and per-module
    import self times (us) from -X importtime when asked. With `warm`, one
    unmeasured probe first lets a fresh checkout compile its bytecode."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import cantorval.cli"]
    walls, modules = [], {}
    for i in range(probes + warm):
        outcome = spawner.run(cmd)
        if outcome.status != 0:
            raise SetupError(f"import cantorval.cli failed: {outcome.stderr.decode()[-500:]}")
        if warm and i == 0:
            continue
        walls.append(outcome.wall_s)
        for line in outcome.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, total, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name.startswith("cantorval"):
                modules.setdefault(name, []).append(int(own))
                if name in ("cantorval", "cantorval.cli"):
                    modules.setdefault(name + "#total", []).append(int(total))
    return walls, modules


def speed_factor(reference: list[float], i: int) -> float:
    """REFERENCE_S over the median of the reference probes run just before,
    at and just after the probe that preceded request i."""
    j = i // REFERENCE_EVERY
    return REFERENCE_S / statistics.median(reference[max(0, j - 1):j + 2])


def end_to_end(tally: Tally, setup_walls: list[float], reference: list[float] | None) -> dict:
    """Each wall time is scaled by the speed factor around it; with no
    reference, the times are left as measured."""
    def scale(i: int) -> float:
        return 1.0 if reference is None else speed_factor(reference, i)

    walls = [w * scale(i) for i, w in enumerate(tally.walls)]
    setup_times = [w * scale(k * SETUP_EVERY) for k, w in enumerate(setup_walls)]
    correct = len(walls) - tally.failed
    return {
        "request_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "request_p90_ms": (statistics.quantiles(walls, n=10)[8] * 1e3, "ms"),
        "requests_per_s": (correct / sum(walls), "1/s"),
        "failed_ratio": (tally.failed / len(walls), "ratio"),
        "peak_rss_mb": (max(tally.rss_kb) / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(traces: list[dict], plain_s: float, traced_s: float, imports: dict) -> dict:
    """Per-request means over whole deck passes, run maxima, import times."""
    n = max(len(traces), 1)
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, int] = {}
    for t in traces:
        for name, row in t["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_ms": 0.0})
            into["calls"] += row["calls"]
            into["self_ms"] += row["self_ms"]
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in t["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    out = {}
    for name, fields in SPAN_METRICS:
        for f in fields:
            out[f"{name}.{f}"] = (spans.get(name, {}).get(f, 0) / n, UNITS[f])
    for key in COUNT_METRICS:
        out[key] = (counts.get(key, 0) / n, "count/req")
    coded = counts.get("diffsets.diff_approximation.coded_intervals", 0)
    parts = counts.get("diffsets.diff_approximation.parts_out", 0)
    out["diffsets.diff_approximation.useful_ratio"] = (parts / coded if coded else 0.0, "ratio")
    for key, unit in MAX_METRICS:
        out[key] = (maxima.get(key, 0), unit)
    for name in IMPORTED:
        out[f"import.{name}.self_ms"] = (statistics.median(imports.get(name, [0])) / 1e3, "ms")
    total = [a + b for a, b in zip(imports.get("cantorval#total", []), imports.get("cantorval.cli#total", []))]
    out["import.total_ms"] = (statistics.median(total or [0]) / 1e3, "ms")
    out["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
    return out


def run_plain(requests: list, seconds: float, spawner: Spawner,
              min_requests: int) -> tuple[Tally, list[float], list[float]]:
    """Requests until they have taken `seconds` in total. A reference probe
    goes before every REFERENCE_EVERY-th request and a set-up probe before
    every SETUP_EVERY-th, so that both are sampled across the whole run."""
    tally = Tally()
    setup_walls, reference_walls = [], []
    busy = 0.0
    i = 0
    start = perf_counter()
    while (busy < seconds or len(tally.walls) < min_requests) and perf_counter() - start < HARD_CAP_S:
        if i % SETUP_EVERY == 0:
            setup_walls += setup(spawner, 1, importtime=False, warm=False)[0]
        if i % REFERENCE_EVERY == 0:
            reference_walls.append(spawner.run([sys.executable, "-c", REFERENCE]).wall_s)
        req = requests[i % len(requests)]
        outcome = spawner.run(cli_cmd(req))
        busy += outcome.wall_s
        tally.add(req.kind, outcome, judge(req, outcome))
        i += 1
    return tally, setup_walls, reference_walls


def run_traced(requests: list, seconds: float, spawner: Spawner) -> tuple[Tally, list[dict], float, float]:
    """Whole passes over the deck, each request plain and traced in turn;
    another pass starts only if it fits in the time left."""
    tally = Tally()
    traces: list[dict] = []
    plain_s = traced_s = 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for i, req in enumerate(requests):
            if perf_counter() - start > HARD_CAP_S:
                return tally, traces, plain_s, traced_s
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order:
                outcome = spawner.run(trace_cmd(req) if traced else cli_cmd(req), trace=traced)
                reason = judge(req, outcome)
                if traced:
                    traced_s += outcome.wall_s
                    try:
                        traces.append(json.loads(outcome.trace))
                    except ValueError:
                        reason = reason or "no trace record"
                else:
                    plain_s += outcome.wall_s
                tally.add(req.kind, outcome, reason)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - pass_start) > seconds:
            return tally, traces, plain_s, traced_s


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    package = SRC / "cantorval"
    tree = ast.parse((package / "__init__.py").read_text())
    exported = next(
        len(node.value.elts)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(package.glob("*.py"))),
        "exported_names": exported,
        "commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "cantorval" / "cli.py").is_file():
        raise SetupError(f"no cantorval source tree under {SRC.name}/ in this checkout")
    with Spawner(child_env()) as spawner:
        extra = {}
        if trace:
            _, imports = setup(spawner, 2 if tiny else IMPORT_PROBES, importtime=True)
            requests = deck(workload, seed, 1 if tiny else TRACE_ROUNDS, tiny)
            tally, traces, plain_s, traced_s = run_traced(requests, seconds, spawner)
            metrics = per_layer(traces, plain_s, traced_s, imports)
        else:
            setup(spawner, 0, importtime=False)
            tally, setup_walls, reference_walls = run_plain(deck(workload, seed, DECK_ROUNDS, tiny), seconds, spawner,
                                                             2 if tiny else MIN_REQUESTS)
            metrics = end_to_end(tally, setup_walls, reference_walls)
            extra = {"reference_s": statistics.median(reference_walls),
                     "series": {"walls": tally.walls, "kinds": tally.order, "reference": reference_walls,
                                "setup": setup_walls},
                     "unscaled": {k: v for k, (v, _) in end_to_end(tally, setup_walls, None).items()}}
    walls = sorted(tally.walls)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "provenance": provenance(),
        "attempted": len(walls),
        "failed": tally.failed,
        "failures": tally.reasons,
        "samples_above_p90": sum(w > statistics.quantiles(walls, n=10)[8] for w in walls),
        "kinds": {k: {"requests": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in sorted(tally.kinds.items())},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **extra,
    }


def save(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def result_line(record: dict, keep: set[str]) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: v for k, v in record["metrics"].items() if k in keep},
    })


def benchmark_metrics(trace: bool) -> set[str]:
    """Metric names BENCHMARK.json asks for in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        if not args.all:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            save(record)
            for reason in record["failures"]:
                print(f"failed: {reason}", file=sys.stderr)
            print(result_line(record, benchmark_metrics(bool(args.trace))))
            return 0
        for workload in WORKLOADS:
            for trace in (False, True):
                record = run_workload(workload, args.seed, args.seconds, trace)
                save(record)
                print(f"== {workload} ({'traced' if trace else 'plain'}, seed {args.seed}, "
                      f"{record['attempted']} requests, {record['failed']} failed)")
                for name, m in record["metrics"].items():
                    print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
                if not trace:
                    print(f"  (times scaled to REFERENCE_S = {REFERENCE_S} s; median reference run "
                          f"{record['reference_s']:.4f} s)")
                for reason in record["failures"]:
                    print(f"  failed: {reason}")
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
