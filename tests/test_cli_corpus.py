"""The CLI corpus of tools/cli_corpus.py against its committed golden output.

Each line of cli_corpus.golden after the first is one request's label, exit
code and the sha256 of its stdout and stderr. The first line names the Python
minor version the golden was made with, since argparse's help and usage text
differ between minors. After a deliberate change of output, remake it with

    (python3 -c 'import sys; print("python %d.%d" % sys.version_info[:2])'
     python3 tools/cli_corpus.py src) > tests/cli_corpus.golden
"""

import importlib.util
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from cantorval import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "cli_corpus.golden"


def test_cli_corpus_matches_the_golden(tmp_path):
    made_with, *expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    running = "python %d.%d" % sys.version_info[:2]
    if made_with != running:
        pytest.skip(f"the golden was made with {made_with} and this is {running}: argparse's help text differs")
    # from a directory that holds no src/, so that only the tool's own path applies
    tool = [sys.executable, str(ROOT / "tools" / "cli_corpus.py"), str(ROOT / "src")]
    actual = subprocess.run(tool, cwd=tmp_path, capture_output=True, text=True, check=True).stdout.splitlines()
    differ = [(e or a).split("\t")[0] for a, e in zip_longest(actual, expected, fillvalue="") if a != e]
    assert differ == [], f"{len(differ)} requests differ from the golden:\n" + "\n".join(differ)


def test_corpus_covers_every_command_and_format():
    # the tool's docstring claims every subcommand and --format value, and the
    # golden is only as wide a net as the requests behind it
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    offered = {(name, fmt) for name, (*_, formats) in cli._COMMANDS.items() for fmt in formats}
    # a plain parse fills in the default --format where the request names none
    parsed = (cli._parse_plain(argv) for _, argv in corpus.requests() + corpus.certificate_requests(cli.main))
    covered = {(args.command, args.format) for args in parsed if args is not None}
    assert offered - covered == set()
