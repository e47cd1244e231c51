"""The argparse parser of the command line, imported only for help and for an
argv that `cli._parse_plain` declines: every well-formed request is parsed
without it."""

from __future__ import annotations

import argparse

from .errors import SpecValidationError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one error: line and exits 2
        raise SpecValidationError(f"{self.prog}: {message}")


def build_parser(commands: dict, options: dict) -> argparse.ArgumentParser:
    """The argument parser, with one subparser per entry of the command table
    `commands`, its options described by `options`."""
    parser = _Parser(
        prog="cantorval",
        description="Exact classification and measure of central Cantor set "
        "difference sets, with series and doubling-pattern conversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text, names, formats) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for option in names:
            kind, option_help = options[option]
            p.add_argument(f"--{option}", type=kind, help=option_help)
        default = formats[0]
        p.add_argument("--format", choices=formats, default=default, help=f"output format (default {default})")
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser
