"""Command-line behavior: formats, determinism, exit codes."""

import contextlib
import copy
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cantorval import (
    Certificate,
    IntervalUnion,
    RatioSequence,
    SpecValidationError,
    classify,
    depth_stack,
    diff_approximation,
    format_rational,
    gap_family,
    kakeya_classify,
    series_from_ratios,
    verify_certificate,
)
from cantorval import _cli_approx, _cli_argparse, _cli_examples, cli
from cantorval._cli_approx import _union_text
from cantorval._cli_common import _CHUNK_ROWS, _union_rows
from cantorval._cli_gaps import _family_rows
from cantorval.cli import _COMMANDS, _OPTIONS, _json, _parse_plain, main
from strategies import ratio_sequences

_CORPUS_FILE = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", _CORPUS_FILE)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

EX1_SPEC = '{"lambda": {"prefix": [], "period": ["7/15", "5/21"]}}'
SMALL_SPEC = '{"lambda": {"prefix": [], "period": ["1/4"]}}'
FULL_SPEC = '{"lambda": {"prefix": [], "period": ["2/5"]}}'
FINITE_SPEC = '{"lambda": {"prefix": ["1/5"], "period": ["2/5"]}}'
POSITIVE_BASE_SPEC = '{"lambda": {"prefix": ["1/4", "2/5"], "period": ["7/15", "5/21"]}}'
UNKNOWN_SPEC = '{"lambda": {"prefix": [], "period": ["7/15", "5021/21000"]}}'
# mixed, with no ratio strictly above 1/3 and so no valid base
NO_BASE_SPEC = '{"lambda": {"prefix": [], "period": ["1/3", "1/4"]}}'
# the regimes whose classification uses no base k0
UNBASED = [(FULL_SPEC, "FullInterval"), (FINITE_SPEC, "FiniteIntervalUnion"), (SMALL_SPEC, "CantorSet")]
EX1_CERT = classify(RatioSequence.from_json(json.loads(EX1_SPEC)["lambda"])).to_json()
# more decimal digits than CPython converts to an int by default
NINES = "9" * 4400
LIMIT = "has more than 4300 digits, the interpreter's limit"


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == expect, f"exit {code}, stderr: {err}"
    return out, err


class TestClassify:
    def test_json_output_is_deterministic(self, capsys, tmp_path):
        first, _ = run(capsys, "classify", "--spec", EX1_SPEC)
        second, _ = run(capsys, "classify", "--spec", EX1_SPEC)
        assert first == second
        spec_file = tmp_path / "ex1.json"
        spec_file.write_text(EX1_SPEC, encoding="utf-8")
        from_file, _ = run(capsys, "classify", "--spec", str(spec_file))
        assert from_file == first
        data = json.loads(first)
        assert data["verdict"] == "Cantorval"
        assert data["measure"] == "8/5"
        assert first == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_text_format(self, capsys):
        out, _ = run(capsys, "classify", "--spec", EX1_SPEC, "--format", "text")
        assert "verdict: Cantorval" in out
        assert "measure: 8/5" in out

    @pytest.mark.parametrize(
        "spec, text",
        [
            (FINITE_SPEC, "verdict: FiniteIntervalUnion\nrule: finitely-many-small-ratios\nmeasure: 6/5\nstable_depth: 1\n"),
            (
                NO_BASE_SPEC,
                "verdict: Unknown\nrule: no-applicable-criterion\n"
                "depth 1: measure 2, 0 gaps\ndepth 2: measure 3/2, 6 gaps\ndepth 3: measure 3/2, 6 gaps\n"
                "depth 4: measure 9/8, 60 gaps\ndepth 5: measure 9/8, 60 gaps\ndepth 6: measure 27/32, 546 gaps\n",
            ),
        ],
        ids=["stable-depth", "report"],
    )
    def test_text_format_lists_stable_depth_and_report(self, capsys, spec, text):
        out, _ = run(capsys, "classify", "--spec", spec, "--format", "text")
        assert out == text

    def test_svg_rejected_outside_render(self, capsys, monkeypatch):
        # argparse refuses it before the command runs
        monkeypatch.setattr("cantorval._cli_certify.cmd_classify", lambda args, budget: pytest.fail("classify ran"))
        _, err = run(capsys, "classify", "--spec", EX1_SPEC, "--format", "svg", expect=2)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "argument --format: invalid choice: 'svg'" in err


class TestMeasureAndApprox:
    def test_measure_text_is_bare_rational(self, capsys):
        out, _ = run(capsys, "measure", "--spec", EX1_SPEC, "--format", "text")
        assert out == "8/5\n"

    def test_measure_unavailable_is_hypothesis_error(self, capsys):
        spec = '{"lambda": {"prefix": ["1/4"], "period": ["7/15", "5/21"]}}'
        _, err = run(capsys, "measure", "--spec", spec, expect=3)
        assert "measure" in err

    def test_approx_parts(self, capsys):
        out, _ = run(capsys, "approx", "--spec", EX1_SPEC, "--depth", "2")
        data = json.loads(out)
        assert data["depth"] == 2
        assert data["count"] == len(data["parts"]) == 3
        assert data["parts"][0] == ["-1", "-7/9"]


class TestGapsAndSeries:
    def test_gaps_levels(self, capsys):
        out, _ = run(capsys, "gaps", "--spec", EX1_SPEC, "--depth", "2")
        data = json.loads(out)
        assert data["k0"] == 0
        assert {k: len(v) for k, v in data["levels"].items()} == {"1": 2, "2": 6}

    def test_gaps_text_builds_no_json_rows(self, capsys, monkeypatch):
        def unused(family):
            raise AssertionError("built the JSON rows of a text request")

        monkeypatch.setattr("cantorval.gapforest.GapFamily.to_json", unused)
        out, _ = run(capsys, "gaps", "--spec", EX1_SPEC, "--depth", "2", "--format", "text")
        assert out == "k0: 0\nlevel 1: 2 gaps\nlevel 2: 6 gaps\n"

    def test_gaps_reject_pure_regime(self, capsys):
        run(capsys, "gaps", "--spec", SMALL_SPEC, expect=3)

    @pytest.mark.parametrize(
        "spec, base",
        [(POSITIVE_BASE_SPEC, 1), ('{"lambda": {"prefix": [], "period": ["1/3", "1/5", "7/15"]}}', 2)],
    )
    def test_gaps_need_base_zero(self, capsys, spec, base):
        _, err = run(capsys, "gaps", "--spec", spec, expect=3)
        assert err == f"error: the gap family under the empty root needs k0 = 0, got k0 = {base}\n"

    def test_series_from_lambda(self, capsys):
        out, _ = run(capsys, "series", "--spec", EX1_SPEC)
        data = json.loads(out)
        assert data["total"] == "1"
        assert data["kakeya"] == "CantorSet"
        assert data["series"]["block"] == ["8/15", "16/45"]

    def test_series_from_series(self, capsys):
        spec = '{"series": {"prefix": [], "block": ["1", "2/3"], "ratio": "1/9"}}'
        out, _ = run(capsys, "series", "--spec", spec)
        data = json.loads(out)
        assert data["lambda"]["period"] == ["7/15", "5/21"]

    def test_series_from_pattern(self, capsys):
        spec = '{"k": {"prefix_bits": "", "period_bits": "01"}}'
        out, _ = run(capsys, "series", "--spec", spec)
        data = json.loads(out)
        assert data["verdict"] == "Cantorval"
        assert data["measure"] == "8/5"
        assert data["difference_measure"] == "3"
        assert data["multigeometric"]["epsilons"] == [1, 2]

    def test_series_from_long_pattern_prefix(self, capsys):
        # the remainders come from one running subtraction, not one sum per position
        spec = json.dumps({"k": {"prefix_bits": "0" * 1000, "period_bits": "01"}})
        start = time.perf_counter()
        run(capsys, "series", "--spec", spec)
        assert time.perf_counter() - start < 5.0

    def test_series_text_is_one_line_per_sorted_key(self, capsys):
        out, _ = run(capsys, "series", "--spec", EX1_SPEC, "--format", "text")
        assert out == (
            'input: {"lambda": {"period": ["7/15", "5/21"], "prefix": []}}\n'
            'kakeya: "CantorSet"\n'
            'series: {"block": ["8/15", "16/45"], "prefix": [], "ratio": "1/9"}\n'
            'total: "1"\n'
        )

    def test_series_needs_exactly_one_kind(self, capsys):
        run(capsys, "series", "--spec", '{"lambda": {}, "series": {}}', expect=2)


class TestVerify:
    def test_fresh_certificate_passes(self, capsys, tmp_path):
        cert_out, _ = run(capsys, "classify", "--spec", EX1_SPEC)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(cert_out, encoding="utf-8")
        out, _ = run(capsys, "verify", "--spec", str(cert_file))
        assert json.loads(out)["passed"] is True

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        cert_out, _ = run(capsys, "classify", "--spec", EX1_SPEC)
        data = json.loads(cert_out)
        data["measure"] = "7/5"
        cert_file = tmp_path / "tampered.json"
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        out, _ = run(capsys, "verify", "--spec", str(cert_file), expect=1)
        report = json.loads(out)
        assert report["passed"] is False
        assert any(not c["passed"] for c in report["checks"])

    def test_text_format_marks_each_check(self, capsys):
        cert, _ = run(capsys, "classify", "--spec", EX1_SPEC)
        out, _ = run(capsys, "verify", "--spec", cert, "--depth", "2", "--format", "text")
        lines = out.splitlines()
        assert lines[0] == "PASS verdict-matches — recomputed 'Cantorval' vs certified 'Cantorval'"
        assert "PASS cover-equations-hold" in lines  # an empty detail adds no dash
        assert all(line.startswith("PASS ") for line in lines[:-1]) and lines[-1] == "verification passed"
        data = json.loads(cert)
        data["measure"] = "7/5"
        out, _ = run(capsys, "verify", "--spec", json.dumps(data), "--depth", "2", "--format", "text", expect=1)
        assert "FAIL measure-matches — recomputed Fraction(8, 5) vs certified Fraction(7, 5)" in out.splitlines()
        assert out.endswith("\nverification FAILED\n")


class TestRender:
    def test_default_format_is_svg(self, capsys):
        out, _ = run(capsys, "render", "--spec", EX1_SPEC, "--depth", "3")
        assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")

    def test_text_rows(self, capsys):
        out, _ = run(capsys, "render", "--spec", EX1_SPEC, "--depth", "3", "--format", "text")
        lines = out.splitlines()
        assert lines[0].startswith("legend:")
        assert len(lines) == 1 + 4  # legend + depths 0..3
        assert "=" in out  # persistent gaps appear from depth 2 on

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "stack.svg"
        out, _ = run(capsys, "render", "--spec", EX1_SPEC, "--depth", "2", "--out", str(target))
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("<svg ")

    def test_sequence_without_persistent_family_renders(self, capsys):
        # every ratio at least 1/3: no family gaps, the hull fills every row
        out, _ = run(capsys, "render", "--spec", FULL_SPEC, "--depth", "3", "--format", "text")
        assert out.splitlines()[1:] == [f"{n:>3} |{'#' * 64}|" for n in range(4)]

    @pytest.mark.parametrize(
        "spec", [POSITIVE_BASE_SPEC, '{"lambda": {"period": ["1/3", "1/5", "7/15"]}}']
    )
    def test_sequence_with_positive_base_renders(self, capsys, spec):
        # the smallest valid base is 1, so there is no family under the empty root
        out, _ = run(capsys, "render", "--spec", spec, "--depth", "6", "--format", "text")
        rows = out.splitlines()[1:]
        assert len(rows) == 7 and not any("=" in row for row in rows)

    @pytest.mark.parametrize("fmt", ["json", "text", "svg"])
    def test_builds_only_the_printed_rendering(self, capsys, monkeypatch, fmt):
        def unused(stack):
            raise AssertionError("built a rendering that is not printed")

        # the JSON body is written from the stack's rows, so no format calls to_json
        monkeypatch.setattr("cantorval.render.DepthStack.to_json", unused)
        for other, name in {"text": "ascii_depth_stack", "svg": "svg_depth_stack"}.items():
            if other != fmt:
                monkeypatch.setattr(f"cantorval.render.{name}", unused)
        out, _ = run(capsys, "render", "--spec", EX1_SPEC, "--depth", "3", "--format", fmt)
        assert out

    def test_json_rows_match_depth(self, capsys):
        out, _ = run(capsys, "render", "--spec", EX1_SPEC, "--depth", "2", "--format", "json")
        data = json.loads(out)
        assert [row["depth"] for row in data["rows"]] == [0, 1, 2]


class TestExamples:
    def test_examples_reproduce(self, capsys):
        out, _ = run(capsys, "examples")
        data = json.loads(out)
        assert [e["measure"] for e in data["examples"]] == ["8/5", "13/7", "26/17"]
        assert all(e["difference_measure"] == "3" for e in data["examples"])

    def test_examples_text_table(self, capsys):
        out, _ = run(capsys, "examples", "--format", "text")
        assert out.count("\n") == 3
        for token in ("2n", "3n", "8/5", "13/7", "26/17"):
            assert token in out

    @pytest.mark.parametrize(
        "field, wrong, message",
        [
            (
                "period",
                ("7/15", "5/22"),
                "pattern 2n induced ratios {'prefix': [], 'period': ['7/15', '5/21']}, expected period ('7/15', '5/22')",
            ),
            ("measure", "8/7", "pattern 2n gave measure 8/5, expected 8/7"),
        ],
        ids=["period", "measure"],
    )
    def test_a_wrong_bundled_example_fails_verification(self, capsys, monkeypatch, field, wrong, message):
        first, *rest = _cli_examples._EXAMPLES
        monkeypatch.setattr(_cli_examples, "_EXAMPLES", ({**first, field: wrong}, *rest))
        out, err = run(capsys, "examples", expect=1)
        assert (out, err) == ("", f"error: {message}\n")


class TestExitCodes:
    def test_parse_errors(self, capsys, tmp_path):
        run(capsys, "classify", "--spec", '{"lambda": {"period": ["0.5"]}}', expect=2)
        run(capsys, "classify", "--spec", "no-such-file.json", expect=2)
        run(capsys, "classify", expect=2)  # missing --spec
        run(capsys, "classify", "--spec", '["not", "an", "object"]', expect=2)
        array = tmp_path / "array.json"
        array.write_text('["not", "an", "object"]', encoding="utf-8")
        _, err = run(capsys, "classify", "--spec", str(array), expect=2)
        assert err == f"error: {array}: top-level JSON must be an object\n"

    @pytest.mark.parametrize(
        "command, spec, message",
        [
            ("approx", '{"lambda": {"period": ["1/%s"]}}' % NINES, "rational literal of 4402 characters has too many digits"),
            ("verify", json.dumps({**EX1_CERT, "measure": NINES}), "rational literal of 4400 characters has too many digits"),
            ("approx", '{"lambda": {"period": [%s]}}' % NINES, f"inline spec: invalid JSON: an integer {LIMIT}\n"),
            ("verify", json.dumps({**EX1_CERT, "k0": "K"}).replace('"K"', NINES), f"inline spec: invalid JSON: an integer {LIMIT}\n"),
            ("approx", '{"lambda": %s}' % ("[" * 100000 + "]" * 100000), "inline spec: invalid JSON: maximum recursion depth"),
        ],
        ids=["long-literal", "long-certificate-measure", "long-integer", "long-certificate-k0", "deep-nesting"],
    )
    def test_inputs_past_the_interpreter_limits_are_refused(self, capsys, command, spec, message):
        # past the digit limit of int conversion, or nested past the recursion limit
        _, err = run(capsys, command, "--spec", spec, expect=2)
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, fmt", [("approx", "json"), ("approx", "text"), ("render", "json"), ("verify", "json"), ("verify", "text")]
    )
    def test_exact_outputs_past_the_digit_limit_are_refused(self, capsys, command, fmt):
        # each input integer is under the limit, but the exact values at depth 3 are not
        spec = json.dumps({"lambda": {"period": ["1/" + "9" * 1500]}})
        if command == "verify":
            spec, _ = run(capsys, "classify", "--spec", spec)
        out, err = run(capsys, command, "--spec", spec, "--depth", "3", "--format", fmt, expect=4)
        assert out == "" and err == f"error: an exact value of the result {LIMIT}\n"

    def test_an_over_long_approx_is_refused_before_the_fold(self, capsys):
        # folding the 3^8 parts of 12,000-digit ends first peaked at 66 MB
        tracemalloc.start()
        try:
            out, err = run(capsys, "approx", "--spec", corpus.LONG_PERIOD, "--depth", "8", expect=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == "" and err == f"error: an exact value of the result {LIMIT}\n"
        assert peak < 5e6, f"peak {peak / 1e6:.2f} MB"

    def test_hypothesis_violation(self, capsys):
        spec = '{"k": {"prefix_bits": "", "period_bits": "10"}}'
        _, err = run(capsys, "series", "--spec", spec, expect=3)
        assert "position 1" in err

    def test_budget_flag_and_env(self, capsys, monkeypatch):
        run(capsys, "approx", "--spec", EX1_SPEC, "--depth", "12", "--budget", "100", expect=4)
        # only the command line sets the budget
        for value in ("100", "x"):
            monkeypatch.setenv("CANTORVAL_BUDGET", value)
            run(capsys, "approx", "--spec", EX1_SPEC, "--depth", "12")

    def test_gap_family_over_budget(self, capsys):
        _, err = run(capsys, "gaps", "--spec", EX1_SPEC, "--depth", "14", "--budget", "1000", expect=4)
        assert err.startswith("error: ") and err.count("\n") == 1

    def verify_tampered(self, capsys, tmp_path, tamper, spec=EX1_SPEC):
        cert_out, _ = run(capsys, "classify", "--spec", spec)
        data = json.loads(cert_out)
        tamper(data)
        cert_file = tmp_path / "tampered.json"
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        _, err = run(capsys, "verify", "--spec", str(cert_file), expect=2)
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_certificate_base_must_be_an_integer(self, capsys, tmp_path):
        err = self.verify_tampered(capsys, tmp_path, lambda d: d.update(k0="zero"))
        assert "k0 must be of type int" in err

    @pytest.mark.parametrize("rule", [5, ["cover-equation-system"], True, {}], ids=["int", "list", "bool", "object"])
    def test_certificate_rule_must_be_a_string(self, capsys, tmp_path, rule):
        err = self.verify_tampered(capsys, tmp_path, lambda d: d.update(rule=rule))
        assert err == f"error: certificate rule must be of type str, got {rule!r}\n"

    @pytest.mark.parametrize("tamper", [lambda d: d.pop("rule"), lambda d: d.update(rule=None)], ids=["missing", "null"])
    def test_certificate_without_a_rule_fails_the_rule_check(self, capsys, tamper):
        data = json.loads(run(capsys, "classify", "--spec", EX1_SPEC)[0])
        tamper(data)
        out, _ = run(capsys, "verify", "--spec", json.dumps(data), "--format", "text", expect=1)
        assert "FAIL rule-matches — recomputed 'cover-equation-system' vs certified ''\n" in out

    @pytest.mark.parametrize(
        "tamper, spec, message",
        [
            (lambda d: d.update(measur="7/5"), EX1_SPEC, "unknown certificate keys: ['measur']"),
            (lambda d: d["input"].update(lamda=1), EX1_SPEC, "unknown certificate input keys: ['lamda']"),
            (lambda d: d["residuals"][0].update(note=""), EX1_SPEC, "unknown residual keys: ['note']"),
            (lambda d: d["report"][0].update(note=""), UNKNOWN_SPEC, "unknown report row keys: ['note']"),
        ],
        ids=["top-level", "input", "residual", "report-row"],
    )
    def test_certificate_with_an_unknown_key_is_refused(self, capsys, tmp_path, tamper, spec, message):
        err = self.verify_tampered(capsys, tmp_path, tamper, spec=spec)
        assert err == f"error: {message}\n"

    def test_certificate_residual_needs_index(self, capsys, tmp_path):
        err = self.verify_tampered(capsys, tmp_path, lambda d: d["residuals"][0].pop("index"))
        assert "'index'" in err

    def test_certificate_stable_depth_must_be_an_integer(self, capsys, tmp_path):
        err = self.verify_tampered(capsys, tmp_path, lambda d: d.update(stable_depth=2.5))
        assert "stable_depth must be of type int" in err

    def test_certificate_stable_depth_must_not_be_negative(self, capsys, tmp_path):
        tamper = lambda d: d.update(stable_depth=-1)
        err = self.verify_tampered(capsys, tmp_path, tamper, spec=FINITE_SPEC)
        assert "stable_depth must be >= 0" in err

    @pytest.mark.parametrize("stable", ["false", 1, [0]], ids=["string", "int", "list"])
    def test_certificate_report_stable_must_be_a_bool(self, capsys, tmp_path, stable):
        def tamper(data):
            row = data["report"][2]
            assert data["verdict"] == "Unknown" and row["stable"] is True
            row["stable"] = stable

        err = self.verify_tampered(capsys, tmp_path, tamper, spec=UNKNOWN_SPEC)
        assert "report row stable must be of type bool" in err

    def test_certificate_residual_case_must_be_a_string(self, capsys, tmp_path):
        err = self.verify_tampered(capsys, tmp_path, lambda d: d["residuals"][0].update(case=5))
        assert "residual case must be of type str" in err

    @pytest.mark.parametrize(
        "union, words",
        [
            ([["1"]], "union part 1 must be a [lo, hi] pair"),
            ([["1", "0"]], "union part 1 needs lo <= hi"),
            ("x", "union must be a list"),
        ],
    )
    def test_certificate_union_must_be_rational_pairs(self, capsys, tmp_path, union, words):
        def tamper(data):
            assert data["verdict"] == "FiniteIntervalUnion"
            data["union"] = union

        err = self.verify_tampered(capsys, tmp_path, tamper, spec=FINITE_SPEC)
        assert words in err

    def test_depth_below_minimum(self, capsys, tmp_path):
        _, err = run(capsys, "gaps", "--spec", EX1_SPEC, "--depth", "0", expect=2)
        assert err == "error: --depth must be >= 1\n"
        cert_out, _ = run(capsys, "classify", "--spec", SMALL_SPEC)
        assert json.loads(cert_out)["verdict"] == "CantorSet"
        cert_file = tmp_path / "cantor.json"
        cert_file.write_text(cert_out, encoding="utf-8")
        _, err = run(capsys, "verify", "--spec", str(cert_file), "--depth", "0", expect=2)
        assert err == "error: --depth must be >= 1\n"
        run(capsys, "verify", "--spec", str(cert_file), "--depth", "1")

    def test_negative_base_is_hypothesis_error(self, capsys):
        _, err = run(capsys, "classify", "--spec", EX1_SPEC, "--k0", "-1", expect=3)
        assert err.startswith("error: base -1 is invalid") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [FULL_SPEC, FINITE_SPEC, SMALL_SPEC], ids=["full", "finite", "cantor"])
    def test_negative_base_is_refused_in_every_regime(self, capsys, spec):
        # these regimes use no base, yet a negative one is still refused
        _, err = run(capsys, "classify", "--spec", spec, "--k0", "-1", expect=3)
        assert err == "error: base -1 is invalid: it must be >= 0\n"

    @pytest.mark.parametrize("spec, regime", UNBASED, ids=["full", "finite", "cantor"])
    def test_a_base_is_refused_where_the_regime_uses_none(self, capsys, spec, regime):
        for base in ("0", "5"):
            _, err = run(capsys, "classify", "--spec", spec, "--k0", base, expect=3)
            assert err == f"error: base {base} is invalid: the {regime} regime uses no base\n"

    @pytest.mark.parametrize("spec, regime", UNBASED, ids=["full", "finite", "cantor"])
    def test_a_certificate_base_the_regime_does_not_use_fails_reclassify(self, capsys, spec, regime):
        cert = json.loads(run(capsys, "classify", "--spec", spec)[0])
        run(capsys, "verify", "--spec", json.dumps(cert))
        cert["k0"] = 0
        out, _ = run(capsys, "verify", "--spec", json.dumps(cert), "--format", "text", expect=1)
        assert out == (
            f"FAIL reclassify — classification failed: base 0 is invalid: the {regime} regime uses no base\n"
            "verification FAILED\n"
        )

    def test_ratio_lists_must_be_lists(self, capsys):
        for spec, key in (
            ('{"lambda": {"prefix": 5, "period": ["1/4"]}}', "prefix"),
            ('{"lambda": {"prefix": [], "period": "1/4"}}', "period"),
        ):
            _, err = run(capsys, "classify", "--spec", spec, expect=2)
            assert f"{key} must be a list" in err and err.count("\n") == 1
        spec = '{"series": {"prefix": [], "block": "1", "ratio": "1/9"}}'
        _, err = run(capsys, "series", "--spec", spec, expect=2)
        assert "block must be a list" in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize(
        "argv, read",
        [
            # the reader stops inside the first chunk
            (["approx", "--spec", SMALL_SPEC, "--depth", "10"], 10),
            # the reader is gone before the first write, and the whole body is still buffered
            (["measure", "--spec", EX1_SPEC], 0),
        ],
    )
    def test_closed_stdout_pipe_exits_zero_quietly(self, unbuffered, argv, read):
        # exit 1 would claim a refuted certificate, and the reader has all it wanted
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "cantorval.cli", *argv]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (0, b"")

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        # a missing directory, and a directory where the file should go
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            _, err = run(capsys, "examples", "--out", str(target), expect=2)
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_spec_file_must_be_utf8(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_bytes(b"\xff\xfe")
        _, err = run(capsys, "classify", "--spec", str(spec_file), expect=2)
        assert err.startswith(f"error: cannot read spec file {spec_file}: ") and err.count("\n") == 1

    def test_a_value_error_besides_the_digit_limit_escapes_main(self, monkeypatch):
        # only the digit limit's ValueError becomes exit 4: any other is a fault
        def broken(args, budget):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(_cli_approx, "cmd_approx", broken)
        with pytest.raises(ValueError, match="^not a digit limit$"):
            main(["approx", "--spec", SMALL_SPEC, "--depth", "1"])

    def test_unknown_command_exits_two(self, capsys):
        # argparse's own errors, a bad --depth among them, follow the one-line rule
        for argv, words in (
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["approx", "--spec", SMALL_SPEC, "--depth", "x"], "argument --depth: invalid int value: 'x'"),
        ):
            _, err = run(capsys, *argv, expect=2)
            assert err.startswith("error: ") and err.count("\n") == 1 and words in err

    def test_leading_separator_before_a_command_is_dropped(self, capsys):
        argv = ["approx", "--spec", SMALL_SPEC, "--depth", "2"]
        assert run(capsys, "--", *argv) == run(capsys, *argv)
        # only one "--", and only before a command name
        for argv in (["--"], ["--", "--", "approx"], ["--", "frobnicate"]):
            _, err = run(capsys, *argv, expect=2)
            assert err.startswith("error: cantorval: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples", "--depth", "9"],
            ["render", "--spec", EX1_SPEC, "--k0", "1"],
            ["examples", "--budget", "5"],
            ["measure", "--spec", EX1_SPEC, "--k0", "0"],
            ["gaps", "--spec", EX1_SPEC, "--k0", "0"],
            ["gaps", "--spec", EX1_SPEC, "--k0", "1"],
            ["gaps", "--spec", EX1_SPEC, "--k0", "2"],
        ],
    )
    def test_option_the_command_ignores_exits_two(self, capsys, argv):
        _, err = run(capsys, *argv, expect=2)
        assert err == f"error: cantorval: unrecognized arguments: {' '.join(argv[-2:])}\n"

    def test_a_well_formed_argv_builds_no_parser(self, capsys, monkeypatch):
        # the builder in _cli_argparse, which cli.main calls, sees every parser built
        built, builder = [], _cli_argparse.build_parser
        monkeypatch.setattr(_cli_argparse, "build_parser", lambda *tables: built.append(1) or builder(*tables))
        run(capsys, "approx", "--spec", EX1_SPEC, "--depth", "1")
        assert built == []
        # another spelling of the same request is left to argparse
        run(capsys, "approx", "--spec", EX1_SPEC, "--depth=1")
        assert built == [1]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gaps", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--depth" in out and "--k0" not in out

    @pytest.mark.parametrize(
        "argv, runs, skips",
        [
            pytest.param(
                ["approx", "--spec", SMALL_SPEC, "--depth", "2", "--format", "text"],
                {"lattice", "_cli_approx"},
                {"intervals", "diffsets", "classify", "gapforest", "gapmeasure", "series", "render"},
                id="approx",
            ),
            pytest.param(
                ["gaps", "--spec", EX1_SPEC, "--depth", "2"],
                {"gapforest", "gapmeasure", "_cli_gaps"},
                {"classify", "series", "render", "_cli_render"},
                id="gaps",
            ),
            pytest.param(
                ["render", "--spec", EX1_SPEC, "--depth", "2", "--format", "text"],
                {"render", "_cli_render"},
                {"classify", "series", "_cli_gaps"},
                id="render",
            ),
            # the closed-form measure alone: none of the gap family's code
            pytest.param(["classify", "--spec", EX1_SPEC], {"classify", "gapmeasure"}, {"gapforest", "series", "render"}, id="classify"),
            pytest.param(
                ["classify", "--spec", UNKNOWN_SPEC], {"classify", "gapmeasure", "lattice"}, {"gapforest", "series"}, id="classify-unknown"
            ),
            pytest.param(["measure", "--spec", EX1_SPEC], {"classify", "gapmeasure"}, {"gapforest", "series"}, id="measure"),
            # a lambda spec converts without classifying
            pytest.param(["series", "--spec", EX1_SPEC], {"series"}, {"classify", "gapmeasure", "gapforest"}, id="series"),
            pytest.param(["examples"], {"series", "gapmeasure"}, {"gapforest", "render"}, id="examples"),
        ],
    )
    def test_well_formed_request_executes_only_its_modules(self, argv, runs, skips):
        status, ran, parsers, stderr = _modules_and_parsers(argv)
        assert (status, stderr) == (0, "")
        assert runs <= set(ran) and skips.isdisjoint(ran) and "_cli_argparse" not in ran, ran
        assert parsers == []

    @pytest.mark.parametrize("argv", [["--help"], ["approx", "--spec", EX1_SPEC, "--depth=1"]], ids=["help", "declined"])
    def test_help_and_a_declined_argv_run_the_argparse_module(self, argv):
        status, ran, parsers, stderr = _modules_and_parsers(argv)
        assert (status, stderr) == (0, "")
        assert "_cli_argparse" in ran and "argparse" in parsers, ran


def _modules_and_parsers(argv: list[str]) -> tuple[int, list[str], list[str], str]:
    """One request in a fresh interpreter: its exit status (help's SystemExit
    code), the submodules whose code ran, the argparse modules loaded, and stderr."""
    # a submodule's type is still the lazy loader's subclass until its code has run
    probe = (
        "import json, sys, types, cantorval.cli\n"
        "try:\n"
        "    status = cantorval.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "ran = [n[10:] for n, m in sys.modules.items() if n.startswith('cantorval.') and type(m) is types.ModuleType]\n"
        "print(json.dumps([status, ran, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=60)
    status, ran, parsers = json.loads(done.stdout.splitlines()[-1])
    return status, ran, parsers, done.stderr


def _parity_requests() -> dict[str, list[str]]:
    """From the CLI corpus: the first request of each command and --format, the
    streamed approx of 3^9 parts in both formats, the first refusal of each exit
    code 2-4, verify on a tampered certificate (exit 1), --help, and examples
    writing an --out file, whose path the test puts in for {out}."""
    chosen, formats, codes = {}, set(), set()
    multi_chunk = [f"approx --spec {corpus.SPECS['quarter']} --depth 9 --format {fmt}" for fmt in ("json", "text")]
    for label, argv in corpus.requests() + corpus.certificate_requests(main):
        if argv[:1] and argv[0] in cli._COMMANDS and argv not in corpus.REFUSALS and "--format=text" not in argv:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else cli._COMMANDS[argv[0]][3][0]
            if (argv[0], fmt) not in formats:
                formats.add((argv[0], fmt))
                chosen[label] = argv
        if label in multi_chunk or label == "verify --spec <tampered classify ex1> --depth 4":
            chosen[label] = argv
    for argv in corpus.REFUSALS:
        code = corpus.run(main, argv)[0]
        if code in (2, 3, 4) and code not in codes:
            codes.add(code)
            chosen[" ".join(argv)] = argv
    chosen["--help"] = ["--help"]
    chosen["examples --out FILE"] = ["examples", "--out", "{out}"]
    return chosen


_PARITY = _parity_requests()
# (PYTHONUNBUFFERED set, stdout a regular file), taken in turn by the requests
_STREAMS = [(False, False), (True, False), (False, True), (True, True)]


class TestProcessExit:
    """`python -m cantorval.cli` ends through run(), without the interpreter's
    teardown; a process must still leave exactly what main() gives in-process."""

    @pytest.mark.parametrize(
        "label, unbuffered, to_file",
        [
            pytest.param(label, *streams, id=f"{label} ({'un' * streams[0]}buffered, stdout a {'file' if streams[1] else 'pipe'})")
            for label, streams in zip(_PARITY, itertools.cycle(_STREAMS))
        ],
    )
    def test_process_matches_main(self, label, unbuffered, to_file, tmp_path, monkeypatch):
        argv = _PARITY[label]
        # argparse wraps its help to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        outs = {side: tmp_path / f"{side}.out" for side in ("process", "main")}
        code, out, err = corpus.run(main, [a.replace("{out}", str(outs["main"])) for a in argv])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONIOENCODING": "utf-8"}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "cantorval.cli", *(a.replace("{out}", str(outs["process"])) for a in argv)]
        with open(tmp_path / "stdout", "w+b") as stdout_file:
            done = subprocess.run(
                command, stdout=stdout_file if to_file else subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60
            )
            stdout_file.seek(0)
            stdout = stdout_file.read() if to_file else done.stdout
        files = [path.read_bytes() if path.exists() else None for path in outs.values()]
        assert (done.returncode, stdout, done.stderr, files[0]) == (code, out.encode(), err.encode(), files[1])

    def test_run_ends_with_the_status_of_main_and_lets_exits_through(self, capsys, monkeypatch):
        ended = []

        class Ended(Exception):
            pass

        def end(status):
            ended.append((status, capsys.readouterr()))
            raise Ended

        monkeypatch.setattr(os, "_exit", end)
        monkeypatch.setattr(sys, "argv", ["cantorval", "approx", "--spec", SMALL_SPEC, "--depth", "8", "--budget", "10"])
        with pytest.raises(Ended):
            cli.run()
        assert ended == [(4, ("", "error: enumeration needs 6561 intervals, budget is 10\n"))]
        # argparse's exit on --help is the normal one
        monkeypatch.setattr(sys, "argv", ["cantorval", "--help"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0 and len(ended) == 1


_FLAGS = ["--spec", "--depth", "--budget", "--k0", "--format", "--out"]
_ARGV_TOKENS = st.one_of(
    st.sampled_from(_FLAGS),
    # abbreviated, foreign, joined, single-dash, dashless and help flags, and a foreign command
    st.sampled_from(["--dep", "--s", "--fo", "--bogus", "--depth=3", "--format=text", "-d", "depth", "-h", "--help", "--"]),
    st.just("frobnicate"),
    # negative and non-integer values, formats good and bad, and text
    st.sampled_from(["3", "-1", "x", "1.5", "", "-", "json", "text", "svg", "bogus", SMALL_SPEC]),
    st.text(max_size=4),
)
# int values that int() takes, some of them in spellings other than plain digits
_INTS = st.one_of(st.integers(0, 10**20).map(str), st.sampled_from([" 2 ", "1_0", "+3", "\u0663"]))


@st.composite
def argvs(draw) -> tuple[list[str], bool]:
    """A command, some of its flags, each once and with a value argparse takes, and
    on most draws a few tokens or flag-value pairs of the grammar put in among them.
    The bool says whether the argv is still plain, that is, nothing was put in."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, options, formats = cli._COMMANDS[command]
    values = {"spec": st.text(max_size=6).filter(lambda v: not v.startswith("-")), "format": st.sampled_from(formats)}
    names = draw(st.permutations([*options, "format", "out"]))
    argv = [command]
    for name in names[: draw(st.integers(0, len(names)))]:
        argv += [f"--{name}", draw(values.get(name, _INTS))]
    noise = draw(st.lists(st.one_of(st.tuples(_ARGV_TOKENS), st.tuples(st.sampled_from(_FLAGS), _ARGV_TOKENS)), max_size=3))
    for tokens in noise:
        # a pair goes in at a flag's place, a single token anywhere
        at = draw(st.integers(0, len(argv) // 2)) * 2 + 1 if len(tokens) == 2 else draw(st.integers(0, len(argv)))
        argv[at:at] = tokens
    return argv, not noise


def _argparse_fields(argv: list[str]) -> dict | None:
    """vars() of the argparse parser's parse_args(argv), or None if argparse refuses argv or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(_cli_argparse.build_parser(_COMMANDS, _OPTIONS).parse_args(argv))
    except (SpecValidationError, SystemExit):
        return None


class TestPlainParse:
    @pytest.mark.parametrize(
        "spelling",
        [["--depth=3"], ["--dep", "3"], ["--depth", "2", "--depth", "3"], ["--format=text"], ["--depth", "-1"]],
        ids=["joined", "abbreviated", "repeated", "joined-format", "dash-value"],
    )
    def test_declines_other_spellings(self, spelling):
        argv = ["approx", "--spec", SMALL_SPEC, *spelling]
        assert _parse_plain(argv) is None and _argparse_fields(argv) is not None

    @settings(max_examples=300, deadline=None)
    @example((["approx", "--spec", "s", "--depth", "-1"], False))
    @example((["approx", "--format", "svg"], False))
    @example((["approx", "--depth", "x"], False))
    @example((["classify", "--k0", " 2 ", "--format", "text", "--out", "o"], True))
    @given(argvs())
    def test_agrees_with_argparse_or_declines(self, drawn):
        argv, plain = drawn
        direct = _parse_plain(argv)
        assert direct is None or vars(direct) == _argparse_fields(argv)
        assert direct is not None or not plain


def _json_paths(doc, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_CONTRACT_SPECS = [
    json.loads(spec)
    for spec in (EX1_SPEC, SMALL_SPEC, FULL_SPEC, FINITE_SPEC, '{"lambda": {"period": ["7/15", "2/7"]}}')
]
# (command, document, extra arguments): every verdict's certificate, drawn as often
# as all the spec-reading commands together
_CONTRACT_CERTIFICATES = [
    ("verify", classify(RatioSequence.from_json(spec["lambda"])).to_json(), ("--depth", "4"))
    for spec in _CONTRACT_SPECS
]
_CONTRACT_REQUESTS = [
    *((command, spec, ("--depth", "3")) for spec in _CONTRACT_SPECS for command in ("approx", "gaps")),
    *((command, spec, ()) for spec in _CONTRACT_SPECS for command in ("classify", "measure")),
]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=8),
    st.sampled_from(["", "x", "zero", "1/0", "-1", "2/5", "0.5", "1/4"]),
    st.lists(st.sampled_from(["1", "1/3", "2/5", "x"]), max_size=3),
    st.just({}),
)


@st.composite
def mutated_requests(draw):
    """A valid spec or certificate after one or two edits: a key dropped, a
    value replaced by a wrong-typed one, or a list shortened or reversed."""
    command, base, extra = draw(
        st.one_of(st.sampled_from(_CONTRACT_CERTIFICATES), st.sampled_from(_CONTRACT_REQUESTS))
    )
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(("drop", "replace", "shorten", "reverse")))
        if action == "drop":
            del parent[key]
        elif action == "replace" or not isinstance(value, list):
            parent[key] = draw(_JUNK)
        else:
            parent[key] = value[:-1] if action == "shorten" else value[::-1]
    return command, doc, extra


@st.composite
def starved_requests(draw):
    """A valid spec or certificate asked for a depth of 13-10^18 on a budget of 1-1000."""
    command, doc = draw(
        st.one_of(
            st.tuples(st.just("verify"), st.sampled_from([c for _, c, _ in _CONTRACT_CERTIFICATES])),
            st.tuples(st.sampled_from(["approx", "render"]), st.sampled_from(_CONTRACT_SPECS)),
            # the specs whose gap family lives under the empty root
            st.tuples(st.just("gaps"), st.sampled_from([_CONTRACT_SPECS[0], _CONTRACT_SPECS[-1]])),
        )
    )
    depth = draw(st.one_of(st.integers(13, 40), st.integers(41, 10**18)))
    budget = draw(st.integers(1, 1000))
    return [command, "--spec", json.dumps(doc), "--depth", str(depth), "--budget", str(budget)]


class TestContract:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(starved_requests())
    def test_huge_depth_on_tiny_budget_is_refused(self, capsys, argv):
        start = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - start
        out, err = capsys.readouterr()
        assert code == 4, f"exit {code}, stderr: {err}"
        assert elapsed < 5, f"refused after {elapsed:.1f} s"
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_requests())
    def test_malformed_input_never_escapes_the_exit_codes(self, capsys, request_):
        command, doc, extra = request_
        code = main([command, "--spec", json.dumps(doc), *extra])
        _, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4) and "Traceback" not in err
        if code == 1:
            # only a refuted certificate, and a refuted certificate is well formed
            assert command == "verify" and err == ""
            Certificate.from_json(doc)
        elif code:
            assert err.startswith("error: ") and err.count("\n") == 1


_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["", "é", "\u2028", '"\\', "\x00\n\t", "\U0001f600"]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(10**20), 10**20), _TEXT)
# [lo, hi] pair lists, with entries that need not be strings
_PAIR_LISTS = st.lists(st.lists(_SCALARS, min_size=2, max_size=2), max_size=4)
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _PAIR_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class TestJsonWriter:
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": ()})
    @example([["-1", "1/3"], ["2/3", 1], [None, True]])
    @given(_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert "".join(_json(payload)) == _dumps(payload)

    @settings(max_examples=40, deadline=None)
    @given(ratio_sequences(), st.integers(0, 4))
    def test_union_is_written_as_its_to_json(self, seq, depth):
        union = diff_approximation(seq, depth)
        empty = IntervalUnion((), (), 1)
        rows, no_rows = (_union_rows(u.los, u.his, u.denom) for u in (union, empty))
        payload = {"parts": rows, "nested": [[rows, no_rows]]}
        expected = {"parts": union.to_json(), "nested": [[union.to_json(), []]]}
        assert "".join(_json(payload)) == _dumps(expected)

    @settings(max_examples=30, deadline=None)
    @example(_CHUNK_ROWS + 1, 1, 0, 2, 1)  # whole ends, 0 among them
    @example(2 * _CHUNK_ROWS + 1, 3, -4, 3, 0)  # points: lo == hi
    @given(
        st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]),
        st.integers(1, 12),
        st.integers(-12, 12),
        st.integers(1, 40),
        st.integers(0, 39),
    )
    def test_chunked_union_rows_match_json_dumps(self, count, denom, offset, step, width):
        # parts around 0, of one width, step apart
        los = [offset + step * (i - count // 2) for i in range(count)]
        union = IntervalUnion(los, [lo + width % step for lo in los], denom)
        rows = _union_rows(union.los, union.his, union.denom)
        assert "".join(_json(rows)) == _dumps(union.to_json())
        assert "".join(_json({"parts": [rows]})) == _dumps({"parts": [union.to_json()]})
        text = "".join(f"[{lo}, {hi}]\n" for lo, hi in union.to_json())
        assert "".join(_union_text(union)) == text

    @pytest.mark.parametrize("depth", [1, 3, 8, 9])
    def test_chunked_family_levels_match_json_dumps(self, depth):
        # EX1's level 8 holds 4,374 gaps and its level 9 13,122
        family = gap_family(RatioSequence.from_json(json.loads(EX1_SPEC)["lambda"]), (), depth)
        assert "".join(_json(_family_rows(family))) == _dumps(family.to_json())
        assert "".join(_json([_family_rows(family)])) == _dumps([family.to_json()])

    def test_out_file_bytes_equal_stdout_bytes(self, capsys, tmp_path):
        # 3^9 parts span several chunks
        target = tmp_path / "approx.json"
        for fmt in ("json", "text"):
            out, _ = run(capsys, "approx", "--spec", SMALL_SPEC, "--depth", "9", "--format", fmt)
            assert run(capsys, "approx", "--spec", SMALL_SPEC, "--depth", "9", "--format", fmt, "--out", str(target)) == ("", "")
            assert target.read_bytes() == out.encode()

    def test_bulk_output_peak_memory_is_bounded(self, monkeypatch):
        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        # a deterministic count of the bytes Python allocates, not a timing
        monkeypatch.setattr(sys, "stdout", Sink())
        # render's last row holds as many parts as approx's union; EX1's gap
        # family levels 1..10 hold 59,048 gaps
        requests = (
            (["approx", "--spec", SMALL_SPEC, "--depth", "9"], 4.5e6),
            (["render", "--format", "json", "--spec", SMALL_SPEC, "--depth", "9"], 4.5e6),
            (["gaps", "--spec", EX1_SPEC, "--depth", "10"], 16e6),
        )
        for argv, bound in requests:
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < bound, f"{argv[0]}: peak {peak / 1e6:.2f} MB"

    def test_render_rows_of_many_chunks_match_json_dumps(self, capsys):
        # the last row's 3^9 parts span five chunks, nested in the rows list
        out, _ = run(capsys, "render", "--spec", SMALL_SPEC, "--depth", "9", "--format", "json")
        assert out == _dumps(depth_stack(RatioSequence.constant(F(1, 4)), 9).to_json()) + "\n"

    def test_each_command_prints_json_dumps_of_its_payload(self, capsys):
        def expect(payload, *argv):
            out, _ = run(capsys, *argv)
            assert out == _dumps(payload) + "\n"

        seq = RatioSequence.from_json(json.loads(EX1_SPEC)["lambda"])
        union = diff_approximation(RatioSequence.constant(F(1, 4)), 5)
        approx = {"depth": 5, "count": 243, "measure": format_rational(union.measure), "parts": union.to_json()}
        expect(approx, "approx", "--spec", SMALL_SPEC, "--depth", "5")
        expect(gap_family(seq, (), 3).to_json(), "gaps", "--spec", EX1_SPEC, "--depth", "3")
        cert = classify(seq)
        expect(cert.to_json(), "classify", "--spec", EX1_SPEC)
        checks = [c.to_json() for c in verify_certificate(cert, depth=4)]
        expect({"passed": True, "checks": checks}, "verify", "--spec", json.dumps(cert.to_json()), "--depth", "4")
        expect(depth_stack(seq, 3).to_json(), "render", "--spec", EX1_SPEC, "--depth", "3", "--format", "json")
        series = series_from_ratios(seq)
        expect(
            {
                "input": {"lambda": seq.to_json()},
                "series": series.to_json(),
                "total": format_rational(series.total),
                "kakeya": kakeya_classify(series),
            },
            "series", "--spec", EX1_SPEC,
        )
        # the examples table is the command's own; its bytes must still be json.dumps'
        out, _ = run(capsys, "examples")
        assert out == _dumps(json.loads(out)) + "\n"
