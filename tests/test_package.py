"""The package surface: the exported names, dir(), and submodules that run on
first use.

Importing `cantorval` runs none of its submodules; each runs on its first
attribute access, and a CLI request runs only the modules its command uses.
The names a user reaches through the package are the same objects its home
modules define, and `cantorval.classify` stays the function even once the
submodule of that name has been imported. A public call given an argument
outside its range raises its documented error.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from specimens import EX1

import cantorval

SRC = Path(__file__).resolve().parents[1] / "src"
EX1_SPEC = '{"lambda": {"prefix": [], "period": ["7/15", "5/21"]}}'
# EX1 with its first ratio nudged off the cover equation, as the benchmark's
# perturbed specs are: its verdict is Unknown, with a report of approximations
PERTURBED_SPEC = '{"lambda": {"prefix": [], "period": ["1397/3000", "5/21"]}}'
EX1_CERT = json.dumps(cantorval.classify(cantorval.RatioSequence.from_json(json.loads(EX1_SPEC)["lambda"])).to_json())
# one small request per command
REQUESTS = {
    "classify": ["--spec", EX1_SPEC],
    "measure": ["--spec", EX1_SPEC],
    "approx": ["--spec", EX1_SPEC, "--depth", "2"],
    "gaps": ["--spec", EX1_SPEC, "--depth", "2"],
    "series": ["--spec", EX1_SPEC],
    "verify": ["--spec", EX1_CERT, "--depth", "2"],
    "render": ["--spec", EX1_SPEC, "--depth", "2"],
    "examples": [],
}
# the modules every request runs, and those each command runs besides; a module
# that only calls into lattice, intervals or diffsets runs none of them until it does
EVERY = {"errors", "budget", "rationals", "records", "construction", "cli", "_cli_common"}
OWN = {
    "approx": {"lattice", "_cli_approx"},
    "gaps": {"diffsets", "gapmeasure", "gapforest", "_cli_gaps"},
    "render": {"lattice", "diffsets", "gapmeasure", "gapforest", "render", "_cli_render"},
    "classify": {"gapmeasure", "classify", "_cli_certify"},
    "measure": {"gapmeasure", "classify", "_cli_certify"},
    "verify": {"lattice", "intervals", "diffsets", "gapmeasure", "gapforest", "classify", "verifier", "_cli_verify"},
    "series": {"series", "_cli_series"},
    "examples": {"gapmeasure", "classify", "series", "_cli_examples"},
}


# prints the exit status of main(argv) and the submodules that ran
RUN_PROBE = (
    "import contextlib, io, sys, types, cantorval.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = cantorval.cli.main(sys.argv[1:])\n"
    "print(status, *sorted(n[10:] for n, m in sys.modules.items()"
    " if n.startswith('cantorval.') and type(m) is types.ModuleType))"
)


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def modules_run(*argv: str) -> tuple[str, set[str]]:
    """The exit status of one CLI request in a fresh interpreter, and the
    submodules it ran."""
    done = fresh("-c", RUN_PROBE, *argv)
    assert done.stderr == ""
    status, *ran = done.stdout.split()
    return status, set(ran)


def test_exported_names_are_their_home_modules_objects():
    assert len(cantorval.__all__) == len(set(cantorval.__all__)) == 78
    assert set(cantorval._HOME) == set(cantorval.__all__)
    listed = dir(cantorval)
    for name in cantorval.__all__:
        home = sys.modules[f"cantorval.{cantorval._HOME[name]}"]
        value = getattr(cantorval, name)
        assert name in listed and value is getattr(home, name), name
        # functions and classes say where they were defined
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_the_lattice_kernel_is_reached_from_its_former_homes():
    from cantorval import diffsets, intervals, lattice

    assert intervals.IntervalUnion is lattice.IntervalUnion
    assert intervals.merge_scaled is lattice.merge_scaled
    assert diffsets.diff_approximation is lattice.diff_approximation
    from cantorval.diffsets import diff_approximation

    assert diff_approximation is lattice.diff_approximation
    with pytest.raises(AttributeError, match="module 'cantorval.diffsets' has no attribute 'fold_copies'"):
        diffsets.fold_copies  # noqa: B018


def test_the_gap_family_module_binds_the_closed_form_names_it_calls():
    # perfbench/tracer.py wraps them as gapforest.small_ratio_indices and
    # gapforest.gap_union_measure, at every module that binds the same object
    from cantorval import gapforest, gapmeasure

    assert gapforest.small_ratio_indices is gapmeasure.small_ratio_indices
    assert gapforest.gap_union_measure is gapmeasure.gap_union_measure


EX1_SERIES = cantorval.series_from_ratios(EX1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: cantorval.resolve_budget(0), ValueError, "budget must be positive", id="resolve_budget"),
        pytest.param(lambda: cantorval.cover_offset(EX1, 0), ValueError, "level must be >= 1", id="cover_offset"),
        pytest.param(lambda: cantorval.depth_length(EX1, -1), ValueError, "depth must be >= 0", id="depth_length"),
        pytest.param(lambda: EX1.ratio_at(0), ValueError, "depth index must be >= 1, got 0", id="ratio_at"),
        pytest.param(
            lambda: cantorval.kept_interval(EX1, (2,)),
            ValueError,
            "binary code digits must be 0 or 1: (2,)",
            id="kept_interval",
        ),
        pytest.param(
            lambda: cantorval.cantor_approximation(EX1, -1), ValueError, "depth must be >= 0", id="cantor_approximation"
        ),
        pytest.param(
            lambda: cantorval.extreme_codes(EX1, (), 0),
            ValueError,
            "level 0 is below the first family level 1",
            id="extreme_codes",
        ),
        pytest.param(
            lambda: cantorval.gap_family(EX1, (), 0), ValueError, "upto 0 is below the first family level 1", id="gap_family"
        ),
        pytest.param(lambda: cantorval.gap_union_partial(EX1, -1), ValueError, "terms must be >= 0", id="gap_union_partial"),
        pytest.param(
            lambda: cantorval.gapmeasure.require_base(EX1, -1),
            cantorval.AssumptionError,
            "base -1 is invalid: it must be >= 0",
            id="require_base",
        ),
        pytest.param(
            lambda: cantorval.diff_approximation(EX1, -1), ValueError, "depth must be >= 0", id="diff_approximation"
        ),
        pytest.param(lambda: cantorval.depth_stack(EX1, -1), ValueError, "depth must be >= 0", id="depth_stack"),
        pytest.param(
            lambda: cantorval.ascii_depth_stack(cantorval.depth_stack(EX1, 1), 1),
            ValueError,
            "width must be >= 2",
            id="ascii_depth_stack",
        ),
        pytest.param(lambda: EX1_SERIES.term(0), ValueError, "term index must be >= 1", id="term"),
        pytest.param(lambda: EX1_SERIES.remainder(-1), ValueError, "remainder index must be >= 0", id="remainder"),
        pytest.param(lambda: cantorval.subsum_cover(EX1_SERIES, -1), ValueError, "depth must be >= 0", id="subsum_cover"),
        pytest.param(lambda: cantorval.DoublingPattern().bit(0), ValueError, "position must be >= 1", id="bit"),
    ],
)
def test_an_argument_out_of_range_raises_the_documented_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cantorval import *", namespace)
    assert {name: namespace[name] for name in cantorval.__all__} == {
        name: getattr(cantorval, name) for name in cantorval.__all__
    }


def test_submodules_are_attributes_and_listed():
    listed = dir(cantorval)
    for name in cantorval._EXPORTS:
        assert name in listed
        if name != "classify":
            assert getattr(cantorval, name) is sys.modules[f"cantorval.{name}"]
    assert callable(cantorval.classify)


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'cantorval' has no attribute 'frobnicate'"):
        cantorval.frobnicate  # noqa: B018
    assert not hasattr(cantorval, "sys")


def test_importing_the_package_runs_no_submodule():
    probe = (
        "import sys, types, cantorval; "
        "print(sorted(n for n, m in sys.modules.items() if n.startswith('cantorval.') and type(m) is types.ModuleType))"
    )
    done = fresh("-c", probe)
    assert (done.stdout, done.stderr) == ("[]\n", "")


def test_importing_the_classify_submodule_keeps_the_function():
    probe = (
        "import sys, cantorval.classify; "
        "print(cantorval.classify is sys.modules['cantorval.classify'].classify)"
    )
    done = fresh("-c", probe)
    assert (done.stdout, done.stderr) == ("True\n", "")


def test_the_installed_script_ends_through_run():
    # read as text: Python 3.10, which pyproject.toml allows, has no tomllib
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\n[project.scripts]\ncantorval = "cantorval.cli:run"\n\n' in pyproject
    from cantorval.cli import run

    assert callable(run)


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_each_command_runs_only_its_own_modules(command):
    # so approx runs the lattice kernel alone, only verify runs the verifier
    # and intervals, gaps runs no classify, classify, measure, series and
    # examples run none of lattice, intervals, diffsets and the gap family,
    # series on a lambda spec runs no classify either, and no command runs the
    # covering constructions
    status, ran = modules_run(command, *REQUESTS[command])
    assert (status, ran) == ("0", EVERY | OWN[command])
    assert "cover" not in ran


def test_the_node_count_tool_lists_the_same_modules():
    done = fresh(str(SRC.parent / "tools" / "compiled_nodes.py"), str(SRC))
    head, _, _, *rows = done.stdout.splitlines()
    assert (head, done.stderr) == (f"every request runs: {' '.join(sorted(EVERY))}", "")
    cells = [row[2:-2].split(" | ") for row in rows]
    listed = {label: set(modules.split(", ")) for label, _, _, modules in cells}
    assert listed == {**OWN, "classify (Unknown)": OWN["classify"] | {"lattice"}, "verify (depth 10)": OWN["verify"]}
    # the functions a request never entered are some of the nodes it compiled
    assert all(0 < int(idle.replace(",", "")) < int(total.replace(",", "")) for _, total, idle, _ in cells)


def test_the_unrun_column_counts_the_functions_a_request_never_entered():
    spec = importlib.util.spec_from_file_location("compiled_nodes", SRC.parent / "tools" / "compiled_nodes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ran, entered, _ = tool.run(SRC, ["approx", "--spec", EX1_SPEC, "--depth", "2"])
    idle = tool.unrun(SRC / "cantorval" / "lattice.py", entered)
    # approx folds the lattice and prints it, but reads no union back
    assert "IntervalUnion.from_json" in idle and "diff_approximation" not in idle
    # a decorated method's code starts at its decorator: the measure property ran
    assert "IntervalUnion.measure" not in idle
    (row,) = [row for row in tool.table(SRC) if row[0] == "approx"]
    paths = [SRC / "cantorval" / f"{name}.py" for name in ["__init__", *ran]]
    assert row[2] == sum(sum(tool.unrun(path, entered).values()) for path in paths)


def test_a_classify_that_needs_approximations_runs_the_lattice_kernel_alone():
    status, ran = modules_run("classify", "--spec", PERTURBED_SPEC)
    assert (status, ran) == ("0", EVERY | OWN["classify"] | {"lattice"})


def test_importing_the_cli_module_runs_neither_intervals_nor_diffsets():
    # nor lattice: the modules every request runs leave all three out
    probe = (
        "import sys, types, cantorval.cli; "
        "print(*sorted(n[10:] for n, m in sys.modules.items()"
        " if n.startswith('cantorval.') and type(m) is types.ModuleType))"
    )
    done = fresh("-c", probe)
    assert (set(done.stdout.split()), done.stderr) == (EVERY, "")


def test_running_the_cli_module_warns_of_nothing():
    # runpy would warn if the package had put cantorval.cli in sys.modules, and a
    # handler module that imported cantorval.cli would run cli.py a second time,
    # which only the import log shows
    for command, argv in REQUESTS.items():
        done = fresh("-W", "error", "-X", "importtime", "-m", "cantorval.cli", command, *argv)
        log = done.stderr.splitlines()
        assert (done.returncode, [line for line in log if not line.startswith("import time:")]) == (0, []), command
        assert not [line for line in log if line.endswith(" cantorval.cli")], command
        assert done.stdout.startswith(("{", "<svg")), command
