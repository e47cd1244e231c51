"""Interval/Cantor-set/Cantorval trichotomy with re-verifiable certificates.

The decision order:

  (a) every ratio at least 1/3            -> the difference set is [-1, 1];
  (b) finitely many ratios below 1/3      -> a finite union of intervals,
      computed exactly at the depth where the construction stabilizes;
  (c) eventually every ratio below 1/3    -> a measure-zero Cantor set;
  (d) both kinds of ratio occur forever   -> if the per-depth cover equations
      hold exactly, the difference set is a Cantorval whose measure has a
      closed form; otherwise the verdict is an honest Unknown together with
      a finite-depth empirical report.

A certificate records the verdict, the rule applied, the exact witnesses,
and the input itself, so that every claim can be recomputed from scratch.
The verifier that recomputes them lives in `cantorval.verifier`, which only
`verify` runs, and the covering witnesses in `cantorval.cover`, which no
command runs; the exported names of both are still reachable here.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import partial

from . import lattice
from .construction import THIRD, RatioSequence, depth_length
from .errors import AssumptionError, SpecValidationError
from .gapmeasure import gap_union_measure, require_base, small_ratio_indices, smallest_valid_base
from .records import Record, fields_from_json, fields_json

VERDICT_FULL = "FullInterval"
VERDICT_FINITE = "FiniteIntervalUnion"
VERDICT_CANTOR = "CantorSet"
VERDICT_CANTORVAL = "Cantorval"
VERDICT_UNKNOWN = "Unknown"

RULE_FULL = "all-ratios-at-least-one-third"
RULE_FINITE = "finitely-many-small-ratios"
RULE_CANTOR = "Kraft-generalized"
RULE_CANTORVAL = "cover-equation-system"
RULE_UNKNOWN = "no-applicable-criterion"

_VERDICTS = (VERDICT_FULL, VERDICT_FINITE, VERDICT_CANTOR, VERDICT_CANTORVAL, VERDICT_UNKNOWN)


class ResidualEntry(Record, json=True):
    """Exact lhs - rhs of the cover equation linking ratios at index and index+1."""

    index: int
    case: str
    value: Fraction

    from_json = classmethod(partial(fields_from_json, label="residual"))


def equation_residuals(seq: RatioSequence, base: int | None = None) -> tuple[ResidualEntry, ...]:
    """Residuals of the cover equation system for every index beyond the base.

    The equation relating consecutive ratios (a, b) depends on which side of
    1/3 each lies: 3ab = 4a - 1 when both sit on the same side, 3ab = 5a - 2
    when a >= 1/3 > b, and 6ab = 7a - 1 when a < 1/3 <= b. Checking one full
    period past the prefix covers every consecutive pair that ever occurs.
    """
    if base is None:
        base = smallest_valid_base(seq)
    span_end = max(len(seq.prefix), base) + len(seq.period)
    entries = []
    for r in range(base + 1, span_end + 1):
        a = seq.ratio_at(r)
        b = seq.ratio_at(r + 1)
        if (a >= THIRD) == (b >= THIRD):
            case = ">=,>=" if a >= THIRD else "<,<"
            value = 3 * a * b - 4 * a + 1
        elif a >= THIRD:
            case = ">=,<"
            value = 3 * a * b - 5 * a + 2
        else:
            case = "<,>="
            value = 6 * a * b - 7 * a + 1
        entries.append(ResidualEntry(r, case, value))
    return tuple(entries)


def residuals_vanish(entries: Sequence[ResidualEntry]) -> bool:
    return all(e.value == 0 for e in entries)


def cover_offset(seq: RatioSequence, level: int, base: int = 0) -> Fraction:
    """Exact inset by which a covered gap sits inside its covering interval.

    At family level n with small-ratio depth k_n this is
    (3*d(k_n) + d(k_n - 1)) / 2.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    kn = small_ratio_indices(seq, base, level)[-1]
    return (3 * depth_length(seq, kn) + depth_length(seq, kn - 1)) / 2


def cantorval_measure(seq: RatioSequence) -> Fraction:
    """Exact measure of the difference set when the cover equations hold (base 0)."""
    if seq.ratio_at(1) <= THIRD:
        raise AssumptionError(
            f"the measure formula needs the first ratio strictly above 1/3, got {seq.ratio_at(1)}"
        )
    entries = equation_residuals(seq, 0)
    if not residuals_vanish(entries):
        bad = next(e for e in entries if e.value != 0)
        raise AssumptionError(
            f"cover equation fails at index {bad.index} (case {bad.case}): residual {bad.value}"
        )
    return 2 - gap_union_measure(seq)


class DepthRow(Record, json=True):
    depth: int
    measure: Fraction
    gap_count: int
    largest_gap: Fraction
    stable: bool

    from_json = classmethod(partial(fields_from_json, label="report row"))


def _holes(union: lattice.IntervalUnion) -> list[tuple[int, int]]:
    """The open gaps of [-1, 1] minus the union inside it, as (lo, hi) over union.denom."""
    d = union.denom
    return [(lo, hi) for lo, hi in zip((-d, *union.his), (*union.los, d)) if lo < hi]


def depth_report(
    seq: RatioSequence, max_depth: int, budget: int | None = None
) -> tuple[DepthRow, ...]:
    """Empirical per-depth summary of the difference-set approximations."""
    rows = []
    previous = None
    for depth in range(1, max_depth + 1):
        union = lattice.diff_approximation(seq, depth, budget)
        holes = _holes(union)
        rows.append(
            DepthRow(
                depth=depth,
                measure=union.measure,
                gap_count=len(holes),
                largest_gap=Fraction(max((hi - lo for lo, hi in holes), default=0), union.denom),
                stable=union == previous,
            )
        )
        previous = union
    return tuple(rows)


class Certificate(Record):
    """Self-contained classification result; carries everything needed to re-verify."""

    sequence: RatioSequence
    verdict: str
    rule: str
    measure: Fraction | None = None
    base: int | None = None
    residuals: tuple[ResidualEntry, ...] | None = None
    stable_depth: int | None = None
    union: lattice.IntervalUnion | None = None
    report: tuple[DepthRow, ...] | None = None

    # the input holds the sequence as the spec it was classified from, {"lambda": ...}
    _wire_names = {"sequence": "input", "base": "k0"}

    def to_json(self) -> dict:
        out = fields_json(self)
        out["input"] = {"lambda": out["input"]}
        return out

    @classmethod
    def from_json(cls, data) -> "Certificate":
        if not isinstance(data, dict) or "verdict" not in data or "input" not in data:
            raise SpecValidationError("certificate must be an object with input and verdict")
        if data["verdict"] not in _VERDICTS:
            raise SpecValidationError(f"unknown verdict: {data['verdict']!r}")
        spec = data["input"]
        if not isinstance(spec, dict) or "lambda" not in spec:
            raise SpecValidationError("certificate input must carry a lambda spec")
        if len(spec) > 1:
            raise SpecValidationError(f"unknown certificate input keys: {sorted(set(spec) - {'lambda'})}")
        # a missing or null rule reads as the empty rule, which verify refutes
        rule = "" if data.get("rule") is None else data["rule"]
        cert = fields_from_json(cls, {**data, "input": spec["lambda"], "rule": rule}, "certificate")
        if cert.stable_depth is not None and cert.stable_depth < 0:
            raise SpecValidationError(f"certificate stable_depth must be >= 0, got {cert.stable_depth}")
        return cert


def classify(
    seq: RatioSequence,
    base: int | None = None,
    budget: int | None = None,
    report_depth: int = 6,
) -> Certificate:
    """Apply the decision order and return a certificate. Unknown is a valid outcome."""
    if base is not None and base < 0:
        # refused in every regime, not only where the base is used
        raise AssumptionError(f"base {base} is invalid: it must be >= 0")
    period_all_large = all(r >= THIRD for r in seq.period)
    period_all_small = all(r < THIRD for r in seq.period)
    small_prefix_depths = [j for j in range(1, len(seq.prefix) + 1) if seq.ratio_at(j) < THIRD]
    if base is not None and (period_all_large or period_all_small):
        # only the mixed regime's cover equations start from a base
        regime = VERDICT_CANTOR if period_all_small else VERDICT_FINITE if small_prefix_depths else VERDICT_FULL
        raise AssumptionError(f"base {base} is invalid: the {regime} regime uses no base")

    if period_all_large:
        if not small_prefix_depths:
            return Certificate(
                sequence=seq, verdict=VERDICT_FULL, rule=RULE_FULL, measure=Fraction(2)
            )
        stable = max(small_prefix_depths)
        union = lattice.diff_approximation(seq, stable, budget)
        return Certificate(
            sequence=seq,
            verdict=VERDICT_FINITE,
            rule=RULE_FINITE,
            measure=union.measure,
            stable_depth=stable,
            union=union,
        )

    if period_all_small:
        # past the last large ratio every coded interval splits into three
        # strictly separated children forever, so the measure vanishes
        return Certificate(
            sequence=seq, verdict=VERDICT_CANTOR, rule=RULE_CANTOR, measure=Fraction(0)
        )

    if base is None:
        try:
            use_base = smallest_valid_base(seq)
        except AssumptionError:
            return Certificate(
                sequence=seq,
                verdict=VERDICT_UNKNOWN,
                rule=RULE_UNKNOWN,
                report=depth_report(seq, report_depth, budget),
            )
    else:
        require_base(seq, base)
        use_base = base

    residuals = equation_residuals(seq, use_base)
    if residuals_vanish(residuals):
        measure = cantorval_measure(seq) if use_base == 0 else None
        return Certificate(
            sequence=seq,
            verdict=VERDICT_CANTORVAL,
            rule=RULE_CANTORVAL,
            measure=measure,
            base=use_base,
            residuals=residuals,
        )
    return Certificate(
        sequence=seq,
        verdict=VERDICT_UNKNOWN,
        rule=RULE_UNKNOWN,
        base=use_base,
        residuals=residuals,
        report=depth_report(seq, report_depth, budget),
    )


def __getattr__(name: str):
    """The exported names of cantorval.verifier and cantorval.cover are read here
    too, as the package reads them."""
    from . import _HOME, __getattr__ as exported

    if _HOME.get(name) in ("verifier", "cover"):
        return exported(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
