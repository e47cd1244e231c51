"""The `examples` command, imported only when it runs."""

from __future__ import annotations

from .errors import VerificationError
from .rationals import parse_rational
from .series import DoublingPattern, series_from_pattern

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
