"""Print, for each `cantorval` CLI command, the package modules one request
runs and the AST nodes they compile.

    python3 tools/compiled_nodes.py SRC_DIR

SRC_DIR is the directory that holds the `cantorval` package. Each command
runs one small request on EX1 (λ = 7/15, 5/21) in a fresh interpreter,
through `cantorval.cli.main(argv)`; `verify` checks the certificate that
`classify` gives, and one more `classify` row uses EX1 with its first ratio
nudged off the cover equation, whose Unknown verdict builds approximations.
A module counts as run once its code has executed (the package registers
its submodules unexecuted). A module's nodes are those `ast.walk` yields
over its parsed source, the measure of what a request without bytecode
compiles. `__init__.py` runs in every request and is counted in every row.
Two source trees compare as

    diff <(python3 tools/compiled_nodes.py OLD/src) <(python3 tools/compiled_nodes.py src)
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

EX1 = '{"lambda": {"prefix": [], "period": ["7/15", "5/21"]}}'
PERTURBED = '{"lambda": {"prefix": [], "period": ["1397/3000", "5/21"]}}'
# row label -> argv; "{cert}" stands for the certificate `classify` prints for EX1
REQUESTS = {
    "approx": ["approx", "--spec", EX1, "--depth", "2"],
    "classify": ["classify", "--spec", EX1],
    "classify (Unknown)": ["classify", "--spec", PERTURBED],
    "examples": ["examples"],
    "gaps": ["gaps", "--spec", EX1, "--depth", "2"],
    "measure": ["measure", "--spec", EX1],
    "render": ["render", "--spec", EX1, "--depth", "2"],
    "series": ["series", "--spec", EX1],
    "verify": ["verify", "--spec", "{cert}", "--depth", "2"],
}
# prints the exit status of main(argv) and the submodules whose code ran
PROBE = (
    "import contextlib, io, sys, types, cantorval.cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    status = cantorval.cli.main(sys.argv[1:])\n"
    "ran = sorted(n[10:] for n, m in sys.modules.items() if n.startswith('cantorval.') and type(m) is types.ModuleType)\n"
    "print(status, *ran, file=sys.stderr)\n"
    "sys.stdout.write(out.getvalue())\n"
)


def run(src: Path, argv: list[str]) -> tuple[list[str], str]:
    """The submodules one request ran, and what it printed."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=120)
    status, *ran = done.stderr.split()
    if status != "0":
        raise SystemExit(f"{' '.join(argv[:1])} exited {status}: {done.stderr}")
    return ran, done.stdout


def nodes(path: Path) -> int:
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def table(src: Path) -> list[tuple[str, int, list[str]]]:
    """(label, nodes compiled, modules run) per request."""
    package = src / "cantorval"
    cert = json.dumps(json.loads(run(src, REQUESTS["classify"])[1]))
    rows = []
    for label, argv in REQUESTS.items():
        ran, _ = run(src, [cert if arg == "{cert}" else arg for arg in argv])
        total = nodes(package / "__init__.py") + sum(nodes(package / f"{name}.py") for name in ran)
        rows.append((label, total, ran))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    rows = table(Path(argv[0]).resolve())
    every = set.intersection(*(set(ran) for _, _, ran in rows))
    print(f"every request runs: {' '.join(sorted(every))}")
    print("| request | AST nodes | modules besides those |")
    print("|---|---:|---|")
    for label, total, ran in rows:
        print(f"| {label} | {total:,} | {', '.join(name for name in ran if name not in every)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
