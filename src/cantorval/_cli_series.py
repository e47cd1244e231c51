"""The `series` command, imported only when it runs."""

from __future__ import annotations

import json

from ._cli_common import _load_input
from .construction import RatioSequence
from .errors import SpecValidationError
from .rationals import format_rational
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
