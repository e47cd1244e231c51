"""The JSON of each record, against hand-written serializers kept as oracles.

The oracles below spell out, field by field, what each record's to_json
wrote before the records took it from one rule: a Fraction as "p/q", a tuple
as a list, a nested record as its own JSON, and a certificate's sequence and
base under input.lambda and k0. Every record with a from_json reads its
to_json back to an equal record. The bulk records whose rows are integers
over a shared denominator, and the CLI's row lists, have no to_json at all.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from cantorval import cli
from cantorval.classify import Certificate, DepthRow, ResidualEntry, classify, verify_certificate
from cantorval.construction import RatioSequence
from cantorval.errors import SpecValidationError
from cantorval.intervals import ClosedInterval, OpenInterval
from cantorval.rationals import format_rational
from cantorval.records import Record
from cantorval.render import StackRow
from cantorval.series import DoublingPattern, MultigeometricSeries, multigeometric_form, series_from_ratios

from specimens import CANTOR_SMALL, EX1, EX1_PATTERN, EX1_PERTURBED, EX2_PATTERN, EX3_PATTERN, FINITE, FULL_THIRD
from strategies import ratio_sequences


def ratio_sequence_json(seq):
    return {
        "prefix": [format_rational(r) for r in seq.prefix],
        "period": [format_rational(r) for r in seq.period],
    }


def residual_json(entry):
    return {"index": entry.index, "case": entry.case, "value": format_rational(entry.value)}


def depth_row_json(row):
    return {
        "depth": row.depth,
        "measure": format_rational(row.measure),
        "gap_count": row.gap_count,
        "largest_gap": format_rational(row.largest_gap),
        "stable": row.stable,
    }


def certificate_json(cert):
    return {
        "input": {"lambda": ratio_sequence_json(cert.sequence)},
        "verdict": cert.verdict,
        "rule": cert.rule,
        "measure": None if cert.measure is None else format_rational(cert.measure),
        "k0": cert.base,
        "residuals": None if cert.residuals is None else [residual_json(e) for e in cert.residuals],
        "stable_depth": cert.stable_depth,
        "union": None if cert.union is None else cert.union.to_json(),
        "report": None if cert.report is None else [depth_row_json(r) for r in cert.report],
    }


def check_json(check):
    return {"name": check.name, "passed": check.passed, "detail": check.detail}


def series_json(series):
    return {
        "prefix": [format_rational(x) for x in series.prefix],
        "block": [format_rational(x) for x in series.block],
        "ratio": format_rational(series.ratio),
    }


def multigeometric_json(form):
    return {
        "epsilons": list(form.epsilons),
        "ratio": format_rational(form.ratio),
        "measure": format_rational(form.measure),
    }


# one sequence per verdict, the Cantorval and Unknown ones with and without a
# positive base, so that every optional certificate field is set somewhere
VERDICTS = {
    "full": FULL_THIRD,
    "finite": FINITE,
    "cantor": CANTOR_SMALL,
    "cantorval": EX1,
    "cantorval-positive-base": RatioSequence((F(1, 4), F(2, 5)), (F(7, 15), F(5, 21))),
    "unknown-residuals": EX1_PERTURBED,
    "unknown-no-base": RatioSequence((), (F(1, 3), F(1, 4))),
}
CERTIFICATES = {name: classify(seq) for name, seq in VERDICTS.items()}
PATTERNS = [EX1_PATTERN, EX2_PATTERN, EX3_PATTERN, DoublingPattern((), (0, 1, 1, 0)), DoublingPattern((0,), (0, 1))]


@settings(max_examples=60, deadline=None)
@given(ratio_sequences())
def test_ratio_sequence_and_its_series(seq):
    assert seq.to_json() == ratio_sequence_json(seq)
    assert RatioSequence.from_json(seq.to_json()) == seq
    series = series_from_ratios(seq)
    assert series.to_json() == series_json(series)
    assert MultigeometricSeries.from_json(series.to_json()) == series


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_of_every_verdict(name):
    cert = CERTIFICATES[name]
    assert cert.to_json() == certificate_json(cert)
    assert Certificate.from_json(json.loads(json.dumps(cert.to_json()))) == cert
    for entry in cert.residuals or ():
        assert ResidualEntry.from_json(entry.to_json()) == entry
    for row in cert.report or ():
        assert DepthRow.from_json(row.to_json()) == row


def test_every_optional_certificate_field_is_covered():
    for field in ("measure", "base", "residuals", "stable_depth", "union", "report"):
        values = {getattr(cert, field) is None for cert in CERTIFICATES.values()}
        assert values == {True, False}, field


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_checks_of_every_verdict(name):
    cert = CERTIFICATES[name]
    tampered = Certificate.from_json({**cert.to_json(), "measure": "7/5"})
    for checks in (verify_certificate(cert, depth=3), verify_certificate(tampered, depth=3)):
        assert [c.to_json() for c in checks] == [check_json(c) for c in checks]


def test_checks_cover_passes_failures_and_empty_details():
    cert = CERTIFICATES["cantorval"]
    tampered = Certificate.from_json({**cert.to_json(), "measure": "7/5"})
    checks = verify_certificate(cert, depth=3) + verify_certificate(tampered, depth=3)
    assert {c.passed for c in checks} == {True, False}
    assert any(c.detail == "" for c in checks)


def test_series_from_a_json_spec():
    series = MultigeometricSeries.from_json({"prefix": ["2"], "block": ["1", "1/2"], "ratio": "1/9"})
    assert series.to_json() == series_json(series) == {"prefix": ["2"], "block": ["1", "1/2"], "ratio": "1/9"}


# each record whose from_json reads an object of its own fields, and the
# label its two refusals name it by
ENVELOPES = [
    (RatioSequence, "ratio sequence", "prefix/period"),
    (MultigeometricSeries, "series", "prefix/block/ratio"),
    (DoublingPattern, "pattern", "prefix_bits/period_bits"),
    (ResidualEntry, "residual", "index/case/value"),
    (DepthRow, "report row", "depth/measure/gap_count/largest_gap/stable"),
]


@pytest.mark.parametrize("cls, label, fields", ENVELOPES, ids=[cls.__name__ for cls, _, _ in ENVELOPES])
def test_envelope_refusals(cls, label, fields):
    for data in (["1/4"], "1/4", None):
        with pytest.raises(SpecValidationError) as refusal:
            cls.from_json(data)
        assert str(refusal.value) == f"{label} must be an object with {fields}"
    with pytest.raises(SpecValidationError) as refusal:
        cls.from_json({"zeta": 1, "alpha": []})
    assert str(refusal.value) == f"unknown {label} keys: ['alpha', 'zeta']"


@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
def test_doubling_pattern_round_trip(pattern):
    assert DoublingPattern.from_json(pattern.to_json()) == pattern


@pytest.mark.parametrize("pattern", [p for p in PATTERNS if not p.prefix_bits], ids=str)
def test_multigeometric_form(pattern):
    form = multigeometric_form(pattern)
    assert form.to_json() == multigeometric_json(form)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["series", "--spec", json.dumps({"k": pattern.to_json()})]) == 0
    assert json.loads(out.getvalue())["multigeometric"] == multigeometric_json(form)


@pytest.mark.parametrize("cls", [StackRow, ClosedInterval, OpenInterval, cli._Rows], ids=lambda cls: cls.__name__)
def test_bulk_and_interval_records_have_no_to_json(cls):
    assert not hasattr(cls, "to_json")


def record_classes():
    def subclasses(cls):
        return {cls} | {c for sub in cls.__subclasses__() for c in subclasses(sub)}

    return [cls for cls in subclasses(Record) if cls.__module__.startswith("cantorval.")]


def test_records_with_a_to_json():
    writers = {cls.__name__ for cls in record_classes() if hasattr(cls, "to_json")}
    assert writers == {
        "Certificate", "Check", "DepthRow", "DepthStack", "DoublingPattern", "GapFamily",
        "MultigeometricForm", "MultigeometricSeries", "RatioSequence", "ResidualEntry",
    }


# values of every record that both writes and reads its JSON: the certificates
# of every verdict and the records they hold, and the series and patterns
ROUND_TRIPS = {
    Certificate: list(CERTIFICATES.values()),
    ResidualEntry: [e for cert in CERTIFICATES.values() for e in cert.residuals or ()],
    DepthRow: [row for cert in CERTIFICATES.values() for row in cert.report or ()],
    RatioSequence: [cert.sequence for cert in CERTIFICATES.values()],
    MultigeometricSeries: [series_from_ratios(cert.sequence) for cert in CERTIFICATES.values()],
    DoublingPattern: PATTERNS,
}
READERS = sorted(
    (cls for cls in record_classes() if hasattr(cls, "from_json") and hasattr(cls, "to_json")),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", READERS, ids=lambda cls: cls.__name__)
def test_every_reader_reads_back_what_its_record_writes(cls):
    assert ROUND_TRIPS.get(cls), f"{cls.__name__} reads and writes JSON but has no round-trip values"
    for value in ROUND_TRIPS[cls]:
        assert cls.from_json(json.loads(json.dumps(value.to_json()))) == value


EX1_CERT = CERTIFICATES["cantorval"].to_json()
RESIDUAL = EX1_CERT["residuals"][0]
ROW = CERTIFICATES["unknown-residuals"].to_json()["report"][0]
NOT_RATIONAL = "not a rational literal: {!r} (expected 'p/q' or an integer)"

# (reader, data, the one message it is refused with)
REFUSALS = [
    # a ratio sequence: lists of rationals, the period not empty
    (RatioSequence, {"prefix": "1/4", "period": ["1/4"]}, "ratio sequence prefix must be a list of rationals, got '1/4'"),
    (RatioSequence, {"prefix": None, "period": ["1/4"]}, "ratio sequence prefix must be a list of rationals, got None"),
    (RatioSequence, {"period": {"0": "1/4"}}, "ratio sequence period must be a list of rationals, got {'0': '1/4'}"),
    (RatioSequence, {"period": ["0.25"]}, NOT_RATIONAL.format("0.25")),
    (RatioSequence, {"period": [1]}, NOT_RATIONAL.format(1)),
    (RatioSequence, {"prefix": ["1/4"]}, "period must contain at least one ratio"),
    (RatioSequence, {"period": ["1/2"]}, "period entry 1 is 1/2; every ratio must lie strictly between 0 and 1/2"),
    # a residual entry: every entry required, an int, a str and a rational
    (ResidualEntry, {"case": "<,<", "value": "0"}, "residual needs a 'index' entry"),
    (ResidualEntry, {"index": 1, "value": "0"}, "residual needs a 'case' entry"),
    (ResidualEntry, {"index": 1, "case": "<,<"}, "residual needs a 'value' entry"),
    (ResidualEntry, {**RESIDUAL, "index": "1"}, "residual index must be of type int, got '1'"),
    (ResidualEntry, {**RESIDUAL, "index": True}, "residual index must be of type int, got True"),
    (ResidualEntry, {**RESIDUAL, "index": 1.0}, "residual index must be of type int, got 1.0"),
    (ResidualEntry, {**RESIDUAL, "index": None}, "residual index must be of type int, got None"),
    (ResidualEntry, {**RESIDUAL, "case": 5}, "residual case must be of type str, got 5"),
    (ResidualEntry, {**RESIDUAL, "case": None}, "residual case must be of type str, got None"),
    (ResidualEntry, {**RESIDUAL, "value": "0.5"}, NOT_RATIONAL.format("0.5")),
    (ResidualEntry, {**RESIDUAL, "value": 0}, NOT_RATIONAL.format(0)),
    (ResidualEntry, {**RESIDUAL, "value": None}, NOT_RATIONAL.format(None)),
    (ResidualEntry, ["1", "<,<", "0"], "residual must be an object with index/case/value"),
    # a report row: two ints, two rationals and a bool
    (DepthRow, {k: v for k, v in ROW.items() if k != "depth"}, "report row needs a 'depth' entry"),
    (DepthRow, {k: v for k, v in ROW.items() if k != "stable"}, "report row needs a 'stable' entry"),
    (DepthRow, {**ROW, "depth": True}, "report row depth must be of type int, got True"),
    (DepthRow, {**ROW, "gap_count": "2"}, "report row gap_count must be of type int, got '2'"),
    (DepthRow, {**ROW, "measure": "1.5"}, NOT_RATIONAL.format("1.5")),
    (DepthRow, {**ROW, "largest_gap": ["1/9"]}, NOT_RATIONAL.format(["1/9"])),
    (DepthRow, {**ROW, "stable": 1}, "report row stable must be of type bool, got 1"),
    (DepthRow, {**ROW, "stable": "false"}, "report row stable must be of type bool, got 'false'"),
    (DepthRow, {**ROW, "stable": None}, "report row stable must be of type bool, got None"),
    (DepthRow, None, "report row must be an object with depth/measure/gap_count/largest_gap/stable"),
    # a series: the ratio required, lists of rationals, the block not empty
    (MultigeometricSeries, {"block": ["1"]}, "series needs a ratio"),
    (MultigeometricSeries, {"block": ["1"], "x": 1}, "unknown series keys: ['x']"),
    (MultigeometricSeries, {"block": ["1"], "ratio": "0.1"}, NOT_RATIONAL.format("0.1")),
    (MultigeometricSeries, {"block": ["1"], "ratio": None}, NOT_RATIONAL.format(None)),
    (MultigeometricSeries, {"block": "1", "ratio": "1/3"}, "series block must be a list of rationals, got '1'"),
    (MultigeometricSeries, {"prefix": {}, "block": ["1"], "ratio": "1/3"}, "series prefix must be a list of rationals, got {}"),
    (MultigeometricSeries, {"block": [], "ratio": "1/3"}, "block must contain at least one term"),
    # a certificate: its envelope, its verdict, its input and each typed field
    (Certificate, ["Cantorval"], "certificate must be an object with input and verdict"),
    (Certificate, {k: v for k, v in EX1_CERT.items() if k != "verdict"}, "certificate must be an object with input and verdict"),
    (Certificate, {k: v for k, v in EX1_CERT.items() if k != "input"}, "certificate must be an object with input and verdict"),
    (Certificate, {**EX1_CERT, "verdict": "Cantor"}, "unknown verdict: 'Cantor'"),
    (Certificate, {**EX1_CERT, "verdict": None}, "unknown verdict: None"),
    (Certificate, {**EX1_CERT, "input": "EX1"}, "certificate input must carry a lambda spec"),
    (Certificate, {**EX1_CERT, "input": {}}, "certificate input must carry a lambda spec"),
    (Certificate, {**EX1_CERT, "input": {"lambda": ["7/15"]}}, "ratio sequence must be an object with prefix/period"),
    (Certificate, {**EX1_CERT, "rule": 5}, "certificate rule must be of type str, got 5"),
    (Certificate, {**EX1_CERT, "measure": "1.6"}, NOT_RATIONAL.format("1.6")),
    (Certificate, {**EX1_CERT, "measure": 2}, NOT_RATIONAL.format(2)),
    (Certificate, {**EX1_CERT, "k0": "zero"}, "certificate k0 must be of type int, got 'zero'"),
    (Certificate, {**EX1_CERT, "k0": True}, "certificate k0 must be of type int, got True"),
    (Certificate, {**EX1_CERT, "residuals": {}}, "certificate residuals must be of type list, got {}"),
    (Certificate, {**EX1_CERT, "residuals": [5]}, "residual must be an object with index/case/value"),
    (Certificate, {**EX1_CERT, "residuals": [{**RESIDUAL, "case": 5}]}, "residual case must be of type str, got 5"),
    (Certificate, {**EX1_CERT, "stable_depth": 2.5}, "certificate stable_depth must be of type int, got 2.5"),
    (Certificate, {**EX1_CERT, "stable_depth": False}, "certificate stable_depth must be of type int, got False"),
    (Certificate, {**EX1_CERT, "stable_depth": -1}, "certificate stable_depth must be >= 0, got -1"),
    (Certificate, {**EX1_CERT, "union": "x"}, "union must be a list of [lo, hi] pairs, got 'x'"),
    (Certificate, {**EX1_CERT, "report": "rows"}, "certificate report must be of type list, got 'rows'"),
    (Certificate, {**EX1_CERT, "report": [[1]]}, "report row must be an object with depth/measure/gap_count/largest_gap/stable"),
]


@pytest.mark.parametrize("cls, data, message", REFUSALS)
def test_every_refusal_of_the_readers(cls, data, message):
    with pytest.raises(SpecValidationError) as refusal:
        cls.from_json(data)
    assert str(refusal.value) == message
