"""The `series` and `examples` commands, imported only when one of them runs."""

from __future__ import annotations

import json

from ._cli_common import _load_input
from .construction import RatioSequence
from .errors import SpecValidationError, VerificationError
from .rationals import format_rational, parse_rational
from .series import (
    DoublingPattern,
    MultigeometricSeries,
    is_fast_convergent,
    kakeya_classify,
    multigeometric_form,
    ratios_from_series,
    series_from_pattern,
    series_from_ratios,
)

_EXAMPLES = (
    {
        "k_rule": "2n",
        "period_bits": (0, 1),
        "period": ("7/15", "5/21"),
        "measure": "8/5",
    },
    {
        "k_rule": "3n",
        "period_bits": (0, 0, 1),
        "period": ("8/21", "11/24", "7/33"),
        "measure": "13/7",
    },
    {
        "k_rule": "2,3,5,6,...",
        "period_bits": (0, 1, 1),
        "period": ("25/51", "23/75", "17/69"),
        "measure": "26/17",
    },
)


def cmd_series(args, budget):
    data = _load_input(args.spec)
    kinds = set(data) & {"lambda", "series", "k"}
    if len(kinds) != 1:
        raise SpecValidationError(
            'input must contain exactly one of "lambda", "series", or "k"'
        )
    kind = kinds.pop()

    if kind == "lambda":
        seq = RatioSequence.from_json(data["lambda"])
        series = series_from_ratios(seq)
        payload = {
            "input": {"lambda": seq.to_json()},
            "series": series.to_json(),
            "total": format_rational(series.total),
            "kakeya": kakeya_classify(series),
        }
    elif kind == "series":
        series = MultigeometricSeries.from_json(data["series"])
        fast = is_fast_convergent(series)
        payload = {
            "input": {"series": series.to_json()},
            "kakeya": kakeya_classify(series),
            "total": format_rational(series.total),
            "lambda": ratios_from_series(series).to_json() if fast else None,
        }
    else:
        pattern = DoublingPattern.from_json(data["k"])
        series, seq, cert = series_from_pattern(pattern)
        diff_measure = series.total * cert.measure
        form = None if pattern.prefix_bits else multigeometric_form(pattern).to_json()
        payload = {
            "input": {"k": pattern.to_json()},
            "series": series.to_json(),
            "lambda": seq.to_json(),
            "verdict": cert.verdict,
            "measure": format_rational(cert.measure),
            "difference_measure": format_rational(diff_measure),
            "multigeometric": form,
        }

    if args.format == "json":
        return payload, 0
    text = "".join(
        f"{key}: {json.dumps(value, sort_keys=True)}\n" for key, value in sorted(payload.items())
    )
    return text, 0


def cmd_examples(args, budget):
    text = args.format == "text"
    body = []  # one text line or one JSON row per example
    for entry in _EXAMPLES:
        pattern = DoublingPattern(prefix_bits=(), period_bits=entry["period_bits"])
        series, seq, cert = series_from_pattern(pattern)
        expected_period = tuple(parse_rational(x) for x in entry["period"])
        expected_measure = parse_rational(entry["measure"])
        if seq.prefix or seq.period != expected_period:
            raise VerificationError(
                f"pattern {entry['k_rule']} induced ratios {seq.to_json()}, "
                f"expected period {entry['period']}"
            )
        if cert.measure != expected_measure:
            raise VerificationError(
                f"pattern {entry['k_rule']} gave measure {cert.measure}, "
                f"expected {entry['measure']}"
            )
        body.append(
            f"k = {entry['k_rule']:<12} lambda period ({', '.join(entry['period'])})"
            f"  measure {entry['measure']}  difference-set measure 3"
            if text
            else {
                "k_rule": entry["k_rule"],
                "pattern": pattern.to_json(),
                "lambda_period": list(entry["period"]),
                "verdict": cert.verdict,
                "measure": entry["measure"],
                "difference_measure": "3",
            }
        )
    return "\n".join(body) + "\n" if text else {"examples": body}, 0
