"""Run a fixed corpus of `cantorval` CLI requests in-process and print one line
per request: its argv, exit code, and the sha256 of stdout and of stderr.

    python3 tools/cli_corpus.py SRC_DIR

SRC_DIR is the directory that holds the `cantorval` package. Two source trees
give the same bytes on every request exactly when their outputs are equal:

    diff <(python3 tools/cli_corpus.py OLD/src) <(python3 tools/cli_corpus.py src)

The corpus is fixed and deterministic; it covers every subcommand and format,
refusals and parse errors, and `verify` on the certificate `classify` gives
for each verdict. It takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys


def _spec(prefix: list[str], period: list[str]) -> str:
    return json.dumps({"lambda": {"prefix": prefix, "period": period}})


SPECS = {
    "ex1": _spec([], ["7/15", "5/21"]),
    "ex2": _spec([], ["8/21", "11/24", "7/33"]),
    "ex3": _spec([], ["25/51", "23/75", "17/69"]),
    "quarter": _spec([], ["1/4"]),
    "two-fifths": _spec([], ["2/5"]),
    "third": _spec([], ["1/3"]),
    "finite-union": _spec(["1/5"], ["2/5"]),
    "prefixed": _spec(["2/5"], ["7/15", "5/21"]),
    "positive-base": _spec(["1/4", "2/5"], ["7/15", "5/21"]),
    "perturbed": _spec([], ["7/15", "5021/21000"]),
}
# each input integer is under the interpreter's 4,300-digit limit, but the exact
# values at depth 3 are not
LONG_PERIOD = _spec([], ["1/" + "9" * 1500])

# bad inputs: each must end with one error: line and exit 2, 3 or 4
REFUSALS = [
    ["approx", "--spec", SPECS["ex1"], "--depth", "30", "--budget", "10"],
    ["approx", "--spec", SPECS["quarter"], "--depth", "1000000000", "--budget", "10"],
    ["gaps", "--spec", SPECS["ex1"], "--depth", "14", "--budget", "1000"],
    ["render", "--spec", SPECS["quarter"], "--depth", "25"],
    ["verify", "--spec", "{}", "--depth", "4"],
    ["approx", "--spec", SPECS["ex1"], "--budget", "0"],
    ["approx", "--spec", SPECS["ex1"], "--depth", "-1"],
    ["approx", "--spec", '{"lambda": '],
    ["approx", "--spec", '{"lambda": {"period": ["0.25"]}}'],
    ["approx", "--spec", '{"lambda": {"period": ["1/4\\n"]}}'],
    ["approx", "--spec", '{"lambda": {"period": ["\\u0661/3"]}}'],
    ["approx", "--spec", '{"lambda": {"period": ["1/2"]}}'],
    ["approx", "--spec", '{"lambda": {"period": []}}'],
    ["approx", "--spec", '{"ratios": ["1/4"]}'],
    ["approx", "--spec", "no-such-spec.json"],
    ["approx"],
    ["approx", "--spec", SPECS["ex1"], "--format", "svg"],
    ["approx", "--spec", SPECS["ex1"], "--depth", "x"],
    ["examples", "--depth", "9"],
    ["render", "--spec", SPECS["ex1"], "--k0", "1"],
    ["series", "--spec", '{"k": {"prefix_bits": "", "period_bits": "11"}}'],
    ["series", "--spec", '{"k": {"prefix_bits": "", "period_bits": "01"}, "lambda": {"period": ["1/4"]}}'],
    ["series", "--spec", '{"k": {"prefix_bits": ""}}'],
    ["series", "--spec", '{"k": {"period_bits": ""}}'],
    ["series", "--spec", '{"k": "01"}'],
    ["series", "--spec", '{"series": {"block": ["1"]}}'],
    ["series", "--spec", '{"series": {"block": ["1"], "ratio": "1/3", "note": 1}}'],
    ["measure", "--spec", SPECS["ex1"], "--k0", "1"],
    ["examples", "--budget", "5"],
    ["gaps", "--spec", SPECS["ex1"], "--k0", "0"],
    ["classify", "--spec", SPECS["ex1"], "--format", "svg"],
    ["frobnicate"],
    [],
    ["gaps", "--help"],
    ["series", "--help"],
    ["--help"],
    ["approx", "--bogus"],
]


def requests() -> list[tuple[str, list[str]]]:
    """(label, argv) pairs of every request that needs no certificate."""
    out = []

    def add(*argv: str) -> None:
        out.append((" ".join(argv), list(argv)))

    for name, spec in SPECS.items():
        for fmt in ("json", "text"):
            add("classify", "--spec", spec, "--format", fmt)
            add("measure", "--spec", spec, "--format", fmt)
            add("gaps", "--spec", spec, "--depth", "3", "--format", fmt)
            add("approx", "--spec", spec, "--depth", "5", "--format", fmt)
            add("series", "--spec", spec, "--format", fmt)
        for depth in ("0", "3", "7"):
            add("approx", "--spec", spec, "--depth", depth)
        add("gaps", "--spec", spec, "--depth", "1")
        add("gaps", "--spec", spec, "--depth", "6")
        add("classify", "--spec", spec, "--k0", "0")
        add("render", "--spec", spec)
        for depth in ("0", "1", "3", "6", "9"):
            add("render", "--spec", spec, "--depth", depth, "--format", "text")
        for depth in ("1", "4"):
            add("render", "--spec", spec, "--depth", depth, "--format", "json")
        for depth in ("3", "8"):
            add("render", "--spec", spec, "--depth", depth, "--format", "svg")
    for pattern in ('{"prefix_bits": "", "period_bits": "01"}', '{"prefix_bits": "0", "period_bits": "011"}'):
        for fmt in ("json", "text"):
            add("series", "--spec", f'{{"k": {pattern}}}', "--format", fmt)
    # 3^9 parts: more rows than one chunk of streamed output holds
    for fmt in ("json", "text"):
        add("approx", "--spec", SPECS["quarter"], "--depth", "9", "--format", fmt)
    # render's rows at depth 9: a last row of 3^9 parts, five chunks deep in the
    # rows list, and EX3's family gaps in every row from depth 3 on
    for name in ("quarter", "ex3"):
        add("render", "--spec", SPECS[name], "--depth", "9", "--format", "json")
    # the fold's merge branch at scale: 6,561 parts, and 13,375 parts from copies
    # that partly overlap, more than three chunks of streamed output
    add("approx", "--spec", SPECS["ex3"], "--depth", "12")
    add("approx", "--spec", _spec([], ["2/5", "5/16"]), "--depth", "10")
    # the separator that may stand before the command
    add("--", "approx", "--spec", SPECS["quarter"], "--depth", "3")
    # spellings beyond "--flag value" once per flag: a "=" join, an abbreviated
    # flag, a repeated flag, and a value that starts with "-"
    for spelling in (["--depth=3"], ["--dep", "3"], ["--depth", "2", "--depth", "3"], ["--format=text"]):
        add("approx", "--spec", SPECS["quarter"], *spelling)
    add("approx", "--spec", "-")
    # deeper family rows than the per-spec loop reaches
    for name in ("ex1", "ex2", "ex3"):
        add("gaps", "--spec", SPECS[name], "--depth", "8")
    series = '{"series": {"prefix": [], "block": ["1", "1"], "ratio": "1/9"}}'
    add("series", "--spec", series)
    # every term exceeds its remainder past the prefix, but the first does not
    add("series", "--spec", '{"series": {"prefix": ["1"], "block": ["1"], "ratio": "1/3"}}')
    for fmt in ("json", "text"):
        add("examples", "--format", fmt)
    out += [(" ".join(argv) or "(no arguments)", argv) for argv in REFUSALS]
    # inputs past the interpreter's limits on integer digits and on recursion,
    # under short labels
    nines = "9" * 4400
    out.append(("approx --spec <period 1/(4400 nines)>", ["approx", "--spec", f'{{"lambda": {{"period": ["1/{nines}"]}}}}']))
    out.append(("approx --spec <period of a 4400-digit integer>", ["approx", "--spec", f'{{"lambda": {{"period": [{nines}]}}}}']))
    nested = "[" * 100000 + "]" * 100000
    out.append(("approx --spec <lambda nested 100000 deep>", ["approx", "--spec", f'{{"lambda": {nested}}}']))
    # exact outputs past the digit limit, under short labels
    for command, fmt in (("approx", "json"), ("approx", "text"), ("render", "json")):
        argv = [command, "--spec", LONG_PERIOD, "--depth", "3", "--format", fmt]
        out.append((f"{command} --spec <period 1/(1500 nines)> --depth 3 --format {fmt}", argv))
    return out


def run(main, argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback would break the exit-code table
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


# certificates with a key that no field is written under, by the key's place
EXTRA_KEYS = {
    "ex1": {
        "measur": lambda cert: cert.update(measur="7/5"),
        "input.series": lambda cert: cert["input"].update(series=None),
        "residuals[0].note": lambda cert: cert["residuals"][0].update(note=""),
    },
    "perturbed": {"report[0].note": lambda cert: cert["report"][0].update(note="")},
}


def certificate_requests(main) -> list[tuple[str, list[str]]]:
    """`verify` on the certificate `classify` gives for each spec, on a tampered
    copy of each, and on copies with an unknown key; the label names the
    certificate instead of printing it."""
    out = []
    for name, spec in SPECS.items():
        code, cert, _ = run(main, ["classify", "--spec", spec])
        if code != 0:
            continue
        tampered = json.loads(cert)
        tampered["measure"] = "7/5"
        for depth in ("2", "4", "8"):
            for fmt in ("json", "text"):
                argv = ["verify", "--spec", cert, "--depth", depth, "--format", fmt]
                out.append((f"verify --spec <classify {name}> --depth {depth} --format {fmt}", argv))
        argv = ["verify", "--spec", json.dumps(tampered), "--depth", "4"]
        out.append((f"verify --spec <tampered classify {name}> --depth 4", argv))
        for key, add in EXTRA_KEYS.get(name, {}).items():
            extra = json.loads(cert)
            add(extra)
            argv = ["verify", "--spec", json.dumps(extra), "--depth", "4"]
            out.append((f"verify --spec <classify {name} with {key}> --depth 4", argv))
        if name == "ex1":
            # a deeper complement-equals-family check
            argv = ["verify", "--spec", cert, "--depth", "12"]
            out.append((f"verify --spec <classify {name}> --depth 12", argv))
    # a certificate whose check details hold exact values past the digit limit
    _, cert, _ = run(main, ["classify", "--spec", LONG_PERIOD])
    for fmt in ("json", "text"):
        argv = ["verify", "--spec", cert, "--depth", "3", "--format", fmt]
        out.append((f"verify --spec <classify period 1/(1500 nines)> --depth 3 --format {fmt}", argv))
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # argparse wraps usage and help text to the terminal width
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    from cantorval.cli import main as cli_main

    for label, argv in requests() + certificate_requests(cli_main):
        code, out, err = run(cli_main, argv)
        digests = [hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (out, err)]
        print(f"{label}\texit {code}\tstdout {digests[0]}\tstderr {digests[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
