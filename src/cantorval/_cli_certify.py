"""The `classify` and `measure` commands, imported only when one of them runs."""

from __future__ import annotations

from fractions import Fraction

from ._cli_common import _lambda_spec, _load_input
from .classify import classify
from .errors import AssumptionError
from .rationals import format_rational


def _cert_text(cert) -> str:
    lines = [f"verdict: {cert.verdict}", f"rule: {cert.rule}"]
    if cert.measure is not None:
        lines.append(f"measure: {format_rational(cert.measure)}")
    if cert.base is not None:
        lines.append(f"k0: {cert.base}")
    if cert.residuals is not None:
        worst = max((abs(e.value) for e in cert.residuals), default=Fraction(0))
        lines.append(f"residuals: {len(cert.residuals)} checked, largest |value| {worst}")
    if cert.stable_depth is not None:
        lines.append(f"stable_depth: {cert.stable_depth}")
    if cert.report is not None:
        for row in cert.report:
            lines.append(
                f"depth {row.depth}: measure {format_rational(row.measure)}, "
                f"{row.gap_count} gaps"
            )
    return "\n".join(lines) + "\n"


def cmd_classify(args, budget):
    cert = classify(_lambda_spec(_load_input(args.spec)), base=args.k0, budget=budget)
    return _cert_text(cert) if args.format == "text" else cert.to_json(), 0


def cmd_measure(args, budget):
    cert = classify(_lambda_spec(_load_input(args.spec)), budget=budget)
    if cert.measure is None:
        raise AssumptionError(
            f"no exact measure available (verdict {cert.verdict}); the closed "
            "form needs every cover equation to vanish with k0 = 0"
        )
    measure = format_rational(cert.measure)
    return measure + "\n" if args.format == "text" else {"verdict": cert.verdict, "measure": measure}, 0
