"""Command-line front end.

Parses spec files (or inline JSON), runs classification, measure, gap, and
series computations, verifies certificates, and emits deterministic JSON,
plain text, or self-contained SVG. Exit codes are stable: 0 success,
1 verification failure, 2 parse/validation error, 3 hypothesis violation,
4 interval budget or the interpreter's digit limit on an exact value exceeded.

This module holds what every request runs: the direct argv parser, main, the
command table and the writer. The command table names each command's handler
module (`_cli_approx`, `_cli_certify`, `_cli_examples`, `_cli_gaps`,
`_cli_render`, `_cli_series`, `_cli_verify`), which main imports when the
command runs, so a request compiles no other command's code; the argparse
parser sits in `_cli_argparse`, imported only for help and an argv that the
direct parser declines.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable, Iterator
from importlib import import_module
from itertools import chain
from types import SimpleNamespace

from ._cli_common import _chunks, _digit_limit, _Rows
from .errors import CantorvalError, SpecValidationError


_JSON_TEXT = ("json", "text")
# each command's handler module, help, options besides --format and --out, and
# --format values with the default first, as README's "Flags and limits" lists
# them. The module is imported when the command runs, and its cmd_<command>
# returns (body, exit status): a str or an iterator of str printed as it is, or
# a JSON value.
_COMMANDS = {
    "classify": ("_cli_certify", "decide the trichotomy and emit a certificate", ("spec", "budget", "k0"), _JSON_TEXT),
    "measure": ("_cli_certify", "exact measure of the difference set", ("spec", "budget"), _JSON_TEXT),
    "approx": ("_cli_approx", "difference-set approximation at a depth", ("spec", "depth", "budget"), _JSON_TEXT),
    "gaps": ("_cli_gaps", "persistent gap family by level", ("spec", "depth", "budget"), _JSON_TEXT),
    "series": ("_cli_series", "convert between ratio, series, and doubling-pattern forms", ("spec",), _JSON_TEXT),
    "verify": ("_cli_verify", "recheck a certificate and its invariants", ("spec", "depth", "budget"), _JSON_TEXT),
    "render": (
        "_cli_render", "depth-stack picture of the difference set", ("spec", "depth", "budget"), ("svg", "json", "text")
    ),
    "examples": ("_cli_examples", "reproduce the three bundled examples end to end", (), _JSON_TEXT),
}
_OPTIONS = {
    "spec": (str, "spec file path, or inline JSON starting with '{'"),
    "depth": (int, "construction depth / family levels"),
    "budget": (int, "max intervals per enumeration"),
    "k0": (int, "override the base split index"),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with one subparser per command."""
    # only help and the argv _parse_plain declines load it
    from ._cli_argparse import build_parser

    return build_parser(_COMMANDS, _OPTIONS)


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives, for a command
    followed by "--flag value" pairs: each flag one of the command's, spelled in
    full and given once, no value starting with "-", each int value taken by
    int() and the format one of the command's. None for any other argv."""
    flags, values = argv[1::2], argv[2::2]
    # a flag without its value, or a flag given twice
    if not argv or argv[0] not in _COMMANDS or len(flags) != len(values) or len(set(flags)) < len(flags):
        return None
    _, _, options, formats = _COMMANDS[argv[0]]
    kinds = {f"--{name}": _OPTIONS[name][0] for name in options} | {"--format": str, "--out": str}
    args = {flag[2:]: None for flag in kinds} | {"command": argv[0], "format": formats[0]}
    for flag, value in zip(flags, values):
        if flag not in kinds or value.startswith("-"):
            return None
        try:
            args[flag[2:]] = kinds[flag](value)  # the call argparse makes
        except ValueError:
            return None
    return SimpleNamespace(**args) if args["format"] in formats else None


# bulk output is written once at least this many characters have gathered
_WRITE_CHARS = 1 << 16


def _json(value, indent: str = "\n") -> Iterator[str]:
    """The pieces of json.dumps(value, indent=2, sort_keys=True), value standing
    at indent, for the payloads the commands build: dicts with str keys, lists,
    tuples, str, int, bool, None and _Rows. A _Rows value goes out one piece
    per chunk of at most _CHUNK_ROWS rows, cut from one template."""
    inner = indent + "  "
    if isinstance(value, (dict, list, tuple)) and value:
        keyed = isinstance(value, dict)
        ends = "{}" if keyed else "[]"
        for i, item in enumerate(sorted(value.items()) if keyed else value):
            yield ("," if i else ends[0]) + inner
            if keyed:
                yield json.dumps(item[0]) + ": "
                item = item[1]
            yield from _json(item, inner)
        yield indent + ends[1]
    elif not isinstance(value, _Rows):
        yield json.dumps(value)
    elif value.count:
        # ends are digits, "-" and "/", and codes are digits: nothing to escape
        chunks = _chunks(f",{inner}" + value.template.format(inner), value)
        yield "[" + next(chunks)[1:]  # every row follows a comma but the first
        yield from chunks
        yield indent + "]"
    else:
        yield "[]"


def _write(out, pieces: Iterable[str]) -> None:
    """Write the pieces, gathered into writes of at least _WRITE_CHARS characters
    but the last. Under PYTHONUNBUFFERED=1 stdout writes through to an unbuffered
    file, so each piece written alone would be one write(2): EX1's verify --depth
    10 JSON output is 195 pieces (2,360 characters) and classify's 64, and
    gathered, each is one write."""
    gathered, size = [], 0
    for piece in pieces:
        gathered.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            out.write("".join(gathered))
            gathered, size = [], 0
    out.write("".join(gathered))


def _emit(args, body) -> None:
    if isinstance(body, str):
        body = (body,)
    elif not isinstance(body, Iterator):
        body = chain(_json(body), ("\n",))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                _write(out, body)
        except OSError as exc:
            raise SpecValidationError(f"cannot write {args.out}: {exc}") from exc
    else:
        _write(sys.stdout, body)
        sys.stdout.flush()  # a closed pipe shows here, not at exit


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # a leading "--" only separates options from the command
        if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
            argv = argv[1:]
        args = _parse_plain(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        budget = getattr(args, "budget", None)  # series and examples take no --budget
        if budget is not None and budget < 1:
            raise SpecValidationError("--budget must be >= 1")
        module = _COMMANDS[args.command][0]
        body, status = getattr(import_module(f"{__package__}.{module}"), f"cmd_{args.command}")(args, budget)
        try:
            _emit(args, body)
        except BrokenPipeError:
            # the reader closed stdout, having read what it wanted: the exit status
            # stays the command's, and what is still buffered goes to devnull, so
            # that the flush at exit raises nothing either
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status
    except CantorvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        limit = _digit_limit(exc)
        if limit is None:
            raise
        print(f"error: an exact value of the result {limit}", file=sys.stderr)
        return 4


def run() -> None:
    """The command-line entry point: main(), then the process ends with its status
    once stdout and stderr are flushed, without the interpreter's teardown. main
    has written every byte by then, and cantorval registers no atexit callback; a
    SystemExit or exception leaving main takes the normal exit."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
