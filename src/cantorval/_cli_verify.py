"""The `verify` command, imported only when it runs: the one command that runs
the verifier."""

from __future__ import annotations

from ._cli_common import _depth, _load_input
from .classify import VERDICT_CANTOR, Certificate
from .verifier import verification_passed, verify_certificate


def cmd_verify(args, budget):
    cert = Certificate.from_json(_load_input(args.spec))
    # a CantorSet's measure check compares depths depth - 1 and depth
    depth = _depth(args, 6, minimum=1 if cert.verdict == VERDICT_CANTOR else 0)
    checks = verify_certificate(cert, depth=depth, budget=budget)
    passed = verification_passed(checks)
    status = 0 if passed else 1
    if args.format == "json":
        return {"passed": passed, "checks": [c.to_json() for c in checks]}, status
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" — {c.detail}" if c.detail else "")
        for c in checks
    ]
    lines.append("verification " + ("passed" if passed else "FAILED"))
    return "\n".join(lines) + "\n", status
