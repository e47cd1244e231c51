"""Correctness checks for each kind of CLI request.

Each check receives the request's parsed standard output and raises
`Mismatch` when it disagrees with the reference values in `specs`. The
benchmark counts every mismatch, wrong exit code, traceback and timeout as a
failed request.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from functools import lru_cache
from math import lcm

from specs import (
    THIRD,
    Seq,
    cantor_certificate,
    cantorval_certificate,
    complement,
    covered,
    oracle_union,
    partial_measure,
    pattern_lambda,
    pattern_measure,
    residuals,
    small_indices,
    stable_depth,
)

ORACLE_DEPTH = 6


class Mismatch(Exception):
    """The program's output disagrees with the benchmark's reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


oracle = lru_cache(maxsize=256)(oracle_union)


def _scaled(rows) -> tuple[list[tuple[int, int]], int]:
    """Endpoint literals 'p/q' as ints over their least common denominator;
    outputs with ~10^4 parts are checked this way, without Fractions."""
    nums = [(int(p), int(q or 1)) for row in rows for p, _, q in (x.partition("/") for x in row)]
    denom = lcm(*{q for _, q in nums})
    ints = [p * (denom // q) for p, q in nums]
    return list(zip(ints[::2], ints[1::2])), denom


def approx(seq: Seq, depth: int, regime: str):
    """`approx` payload: sorted, strictly separated parts inside [-1, 1],
    symmetric about 0, with matching count and measure; then the regime's
    exact value."""

    def check(payload: dict) -> None:
        parts, denom = _scaled(payload["parts"])
        expect(bool(parts), "empty union")
        expect(parts[0][0] >= -denom and parts[-1][1] <= denom, "union leaves [-1, 1]")
        expect(all(lo <= hi for lo, hi in parts), "a part has lo > hi")
        expect(all(a[1] < b[0] for a, b in zip(parts, parts[1:])), "parts not strictly separated")
        expect(parts == [(-hi, -lo) for lo, hi in reversed(parts)], "union not symmetric")
        expect(payload["depth"] == depth, "wrong depth")
        expect(payload["count"] == len(parts), "count does not match parts")
        measure = F(sum(hi - lo for lo, hi in parts), denom)
        expect(F(payload["measure"]) == measure, "measure does not match parts")
        if regime == "cantor":
            size = 2 * seq.lengths(depth)[depth] * denom
            expect(len(parts) == 3**depth, "CantorSet parts merged")
            expect(all(hi - lo == size for lo, hi in parts), "CantorSet part of wrong length")
            if depth > ORACLE_DEPTH:
                return
        fractions = [(F(lo, denom), F(hi, denom)) for lo, hi in parts]
        if depth <= ORACLE_DEPTH:
            expect(fractions == oracle(seq, depth), "differs from the pairwise oracle")
        if regime == "full":
            expect(fractions == [(F(-1), F(1))], "FullInterval is not [-1, 1]")
        elif regime == "finite":
            expect(fractions == oracle(seq, stable_depth(seq)), "differs from the stabilized union")
        elif regime == "certified":
            base = oracle(seq, min(depth, ORACLE_DEPTH))
            expect(all(covered(base, lo, hi) for lo, hi in fractions), "not nested in a shallower depth")
            expect(measure == partial_measure(seq, depth), "partial measure is wrong")

    return check


def render_text(seq: Seq, depth: int, width: int = 64):
    """ASCII depth stack: layout, '#' cells against the oracle, nested rows."""

    def cells(parts: list[tuple[F, F]]) -> set[int]:
        return {
            j
            for j in range(width)
            if any(hi > F(2 * j, width) - 1 and lo < F(2 * j + 2, width) - 1 for lo, hi in parts)
        }

    def check(text: str) -> None:
        lines = text.splitlines()
        expect(lines[0].startswith("legend:"), "missing legend")
        expect(len(lines) == depth + 2, "wrong number of rows")
        previous = set(range(width))
        for n, line in enumerate(lines[1:]):
            expect(line.startswith(f"{n:>3} |") and line.endswith("|"), f"row {n} malformed")
            row = line[5:-1]
            expect(len(row) == width and set(row) <= set("#=."), f"row {n} has bad cells")
            filled = {j for j, c in enumerate(row) if c == "#"}
            expect(filled <= previous, f"row {n} is not nested in row {n - 1}")
            if n <= ORACLE_DEPTH:
                expect(filled == cells(oracle(seq, n)), f"row {n} differs from the oracle")
            previous = filled

    return check


def classify_unknown(seq: Seq, report_depth: int = 6):
    """`classify` on a perturbed spec: Unknown, with an exact depth report."""
    rows, previous = [], None
    for depth in range(1, report_depth + 1):
        union = oracle(seq, depth)
        gaps = complement(union)
        rows.append(
            {
                "depth": depth,
                "measure": str(sum((hi - lo for lo, hi in union), F(0))),
                "gap_count": len(gaps),
                "largest_gap": str(max((hi - lo for lo, hi in gaps), default=F(0))),
                "stable": union == previous,
            }
        )
        previous = union
    base = next(n for n in range(len(seq.period)) if seq.ratio(n + 1) > THIRD)
    expected = {
        "input": {"lambda": seq.to_json()},
        "verdict": "Unknown",
        "rule": "no-applicable-criterion",
        "measure": None,
        "k0": base,
        "residuals": residuals(seq, base),
        "stable_depth": None,
        "union": None,
        "report": rows,
    }

    def check(payload: dict) -> None:
        expect(payload == expected, "Unknown certificate differs")

    return check


def classify_cantorval(seq: Seq, measure: F):
    expected = cantorval_certificate(seq, measure)

    def check(payload: dict) -> None:
        expect(payload == expected, "Cantorval certificate differs")

    return check


def measure_value(measure: F):
    def check(payload: dict) -> None:
        expect(payload == {"verdict": "Cantorval", "measure": str(measure)}, "measure differs")

    return check


def verify_passed(names: tuple[str, ...]):
    def check(payload: dict) -> None:
        expect(payload["passed"] is True, "verification did not pass")
        expect(all(c["passed"] for c in payload["checks"]), "a check failed")
        seen = {c["name"] for c in payload["checks"]}
        expect(set(names) <= seen, f"missing checks {sorted(set(names) - seen)}")

    return check


def gaps(seq: Seq, levels: int):
    """Gap family: level n holds 2*3^(n-1) disjoint gaps; the levels opened
    by depth 6 are exactly the holes of the oracle's union there."""

    def check(payload: dict) -> None:
        expect(payload["k0"] == 0 and payload["root"] == "", "wrong root or base")
        expect(sorted(payload["levels"], key=int) == [str(n) for n in range(1, levels + 1)], "wrong levels")
        by_level = {}
        for name, rows in payload["levels"].items():
            expect(len(rows) == 2 * 3 ** (int(name) - 1), f"level {name} has {len(rows)} gaps")
            by_level[int(name)] = [(F(r["lo"]), F(r["hi"])) for r in rows]
        every = sorted(g for rows in by_level.values() for g in rows)
        expect(all(-1 < lo < hi < 1 for lo, hi in every), "gap outside (-1, 1) or empty")
        expect(all(a[1] <= b[0] for a, b in zip(every, every[1:])), "gaps overlap")
        ks = small_indices(seq, ORACLE_DEPTH)[:levels]
        if ks:
            opened = sorted(g for n in range(1, len(ks) + 1) for g in by_level[n])
            expect(opened == complement(oracle(seq, ks[-1])), "gaps differ from the oracle's holes")

    return check


def series_pattern(bits: str):
    seq = pattern_lambda(bits)
    measure = pattern_measure(bits)

    def check(payload: dict) -> None:
        expect(payload["difference_measure"] == "3", "difference measure is not 3")
        expect(payload["verdict"] == "Cantorval", "pattern is not a Cantorval")
        expect(payload["measure"] == str(measure), "pattern measure differs")
        expect(payload["lambda"] == seq.to_json(), "induced ratios differ")
        expect(payload["input"] == {"k": {"prefix_bits": "", "period_bits": bits}}, "input echo differs")

    return check


def examples(rows: tuple[tuple[Seq, str, F], ...]):
    def check(payload: dict) -> None:
        got = payload["examples"]
        expect(len(got) == len(rows), "wrong number of examples")
        for row, (seq, bits, measure) in zip(got, rows):
            expect(row["measure"] == str(measure), f"example {bits} measure differs")
            expect(row["lambda_period"] == seq.to_json()["period"], f"example {bits} ratios differ")
            expect(row["difference_measure"] == "3", f"example {bits} difference measure")
            expect(row["verdict"] == "Cantorval", f"example {bits} verdict")

    return check


def certificate(seq: Seq, measure: F | None) -> str:
    """Inline JSON certificate written by the benchmark, not by the program."""
    cert = cantor_certificate(seq) if measure is None else cantorval_certificate(seq, measure)
    return json.dumps(cert, separators=(",", ":"))
