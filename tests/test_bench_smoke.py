"""The benchmark's tiny-size smoke run: every request kind answers correctly."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

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
