"""Print, for each `cantorval` CLI command, the package modules one request
runs, the AST nodes they compile and how many of those the request never runs.

    python3 tools/compiled_nodes.py SRC_DIR

SRC_DIR is the directory that holds the `cantorval` package. Each command
runs one small request on EX1 (λ = 7/15, 5/21) in a fresh interpreter,
through `cantorval.cli.main(argv)`; `verify` checks the certificate that
`classify` gives, at depth 2 and, in the `verify (depth 10)` row, at the depth
perfbench's certify workload verifies EX1 at. One more `classify` row uses EX1
with its first ratio nudged off the cover equation, whose Unknown verdict
builds approximations.
A module counts as run once its code has executed (the package registers
its submodules unexecuted). A module's nodes are those `ast.walk` yields
over its parsed source, the measure of what a request without bytecode
compiles. `__init__.py` runs in every request and is counted in every row.
The `unrun` column counts the nodes of the top-level functions and methods of
those modules whose code the request never entered (a `sys.setprofile` call
event): code the request compiles for nothing. A function that was entered
counts whole, the nested functions it defines included. Two source trees
compare as

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
    "verify (depth 10)": ["verify", "--spec", "{cert}", "--depth", "10"],
}
# prints, as the last line of stderr, the exit status of main(argv), the
# submodules whose code ran and the (file, first line, name) of each package
# function entered from the package's import on
PROBE = (
    "import contextlib, io, json, sys, types\n"
    "entered = set()\n"
    "sys.setprofile(lambda frame, event, arg: event == 'call' and entered.add(frame.f_code))\n"
    "import cantorval.cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    status = cantorval.cli.main(sys.argv[1:])\n"
    "sys.setprofile(None)\n"
    "ran = sorted(n[10:] for n, m in sys.modules.items() if n.startswith('cantorval.') and type(m) is types.ModuleType)\n"
    "codes = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})\n"
    "print(json.dumps([status, ran, codes]), file=sys.stderr)\n"
    "sys.stdout.write(out.getvalue())\n"
)


def run(src: Path, argv: list[str]) -> tuple[list[str], set[tuple[str, int, str]], str]:
    """The submodules one request ran, the (file, first line, name) of each
    function it entered, and what it printed."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=120)
    status, ran, codes = json.loads(done.stderr.splitlines()[-1])
    if status != 0:
        raise SystemExit(f"{' '.join(argv[:1])} exited {status}: {done.stderr}")
    return ran, {tuple(code) for code in codes}, done.stdout


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def nodes(tree: ast.AST) -> int:
    return sum(1 for _ in ast.walk(tree))


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and of each method of
    a top-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{stmt.name}.{item.name}", item


def unrun(path: Path, entered: set[tuple[str, int, str]]) -> dict[str, int]:
    """The AST nodes of each top-level function and method in the module at
    path whose code was never entered, by qualified name. A code object's first
    line is that of its first decorator."""
    out = {}
    for name, node in definitions(parse(path)):
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        if (str(path), first, node.name) not in entered:
            out[name] = nodes(node)
    return out


def table(src: Path) -> list[tuple[str, int, int, list[str]]]:
    """(label, nodes compiled, nodes of the functions never entered, modules run) per request."""
    package = src / "cantorval"
    cert = json.dumps(json.loads(run(src, REQUESTS["classify"])[2]))
    rows = []
    for label, argv in REQUESTS.items():
        ran, entered, _ = run(src, [cert if arg == "{cert}" else arg for arg in argv])
        paths = [package / "__init__.py", *(package / f"{name}.py" for name in ran)]
        total = sum(nodes(parse(path)) for path in paths)
        idle = sum(sum(unrun(path, entered).values()) for path in paths)
        rows.append((label, total, idle, ran))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    rows = table(Path(argv[0]).resolve())
    every = set.intersection(*(set(ran) for *_, ran in rows))
    print(f"every request runs: {' '.join(sorted(every))}")
    print("| request | AST nodes | unrun | modules besides those |")
    print("|---|---:|---:|---|")
    for label, total, idle, ran in rows:
        print(f"| {label} | {total:,} | {idle:,} | {', '.join(name for name in ran if name not in every)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
