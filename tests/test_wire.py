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

from specimens import CANTOR_SMALL, EX1, EX1_PATTERN, EX2_PATTERN, EX3_PATTERN, FINITE, FULL_THIRD
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
    "unknown-residuals": RatioSequence((), (F(7, 15), F(5, 21) + F(1, 1000))),
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


def test_records_with_a_to_json():
    def subclasses(cls):
        return {cls} | {c for sub in cls.__subclasses__() for c in subclasses(sub)}

    package = [cls for cls in subclasses(Record) if cls.__module__.startswith("cantorval.")]
    writers = {cls.__name__ for cls in package if hasattr(cls, "to_json")}
    assert writers == {
        "Certificate", "Check", "DepthRow", "DepthStack", "DoublingPattern", "GapFamily",
        "MultigeometricForm", "MultigeometricSeries", "RatioSequence", "ResidualEntry",
    }

