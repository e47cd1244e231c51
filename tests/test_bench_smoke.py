"""The benchmark's tiny-size smoke run: every request kind answers correctly."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cantorval import RatioSequence, classify

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_names_exist():
    # a traced run installs only if every name the tracer wraps is still there
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.FUNCTIONS.items()
        for name in names
        if not hasattr(importlib.import_module(f"cantorval.{module}"), name)
    ]
    missing += [
        f"{module}.{cls}.{attr}"
        for module, cls, attr in tracer.METHODS
        if attr not in vars(getattr(importlib.import_module(f"cantorval.{module}"), cls, object))
    ]
    assert missing == [], f"perfbench/tracer.py wraps names the package lacks: {missing}"


def test_traced_verify_counts_the_verifier():
    # perfbench/tracer.py run as it is: the verifier has a module of its own, and its span must still count
    ex1 = RatioSequence.from_json({"prefix": [], "period": ["7/15", "5/21"]})
    cert = json.dumps(classify(ex1).to_json())
    read, write = os.pipe()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "perfbench/tracer.py", str(write), "verify", "--spec", cert, "--depth", "2"]
    with subprocess.Popen(command, cwd=ROOT, env=env, pass_fds=(write,), stdout=subprocess.PIPE) as proc:
        os.close(write)
        out, _ = proc.communicate(timeout=60)
    with os.fdopen(read) as pipe:
        spans = json.load(pipe)["spans"]
    assert (proc.returncode, json.loads(out)["passed"]) == (0, True)
    for name in ("classify.verify_certificate", "cli.main"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name
