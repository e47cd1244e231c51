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
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import lcm
from operator import lt
from typing import Sequence

from .budget import charge, charge_power, resolve_budget
from .construction import (
    THIRD,
    RatioSequence,
    cantor_approximation,
    depth_length,
)
from .diffsets import (
    Code,
    code_str,
    diff_approximation,
    scaled_gap,
    scaled_interval,
    validate_code,
)
from .errors import AssumptionError, SpecValidationError
from .gapforest import (
    gap_family,
    gap_union_measure,
    gap_union_partial,
    require_base,
    small_ratio_count,
    small_ratio_indices,
    smallest_valid_base,
)
from .intervals import IntervalUnion, minkowski_diff
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


def _holes(union: IntervalUnion) -> list[tuple[int, int]]:
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
        union = diff_approximation(seq, depth, budget)
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
    union: IntervalUnion | None = None
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
        union = diff_approximation(seq, stable, budget)
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


def _witness_digits(digits: Code, side: int, ks: list[int], root_len: int) -> Code:
    """Pure code construction of the covering witness for a non-family gap.

    When the last movable digit of the gap's code falls strictly between two
    small-ratio depths, stepping it toward the gap and padding gives the
    witness. At a small-ratio depth, the witness is the parent gap's, padded,
    so the loop goes on from the parent. Padding puts 1 at the intermediate
    small-ratio depths and the side's extreme digit everywhere else.
    """
    end = len(digits) + 1
    tail: Code = ()
    while True:
        last = end - 1
        while last > 0 and digits[last - 1] == 2 * side:
            last -= 1
        if last <= root_len:
            raise ValueError("gap is a base member of the persistent family; no witness exists")
        filler = 2 - 2 * side
        tail = tuple(1 if j in ks and j < end else filler for j in range(last + 1, end + 1)) + tail
        if last not in ks:
            return digits[: last - 1] + (digits[last - 1] + 2 * side - 1,) + tail
        side, end = digits[last - 1] - 1 + side, last


def cover_witness(
    seq: RatioSequence, code: Sequence[int], side: int, base: int = 0, root: Sequence[int] = ()
) -> Code:
    """Code of the interval that covers a non-family gap with the exact inset."""
    digits = validate_code(code)
    root_digits = validate_code(root)
    if digits[: len(root_digits)] != root_digits:
        raise ValueError("gap code must extend the root code")
    kn = len(digits) + 1
    if seq.ratio_at(kn) >= THIRD:
        raise AssumptionError(
            f"no gap below code {code_str(digits)}: ratio at depth {kn} is not below 1/3"
        )
    # the kn-th small-ratio depth beyond the base is already >= kn
    ks = small_ratio_indices(seq, base, kn)
    if kn not in ks:
        raise AssumptionError(f"depth {kn} is not a small-ratio depth beyond base {base}")
    return _witness_digits(digits, side, ks, len(root_digits))


def cover_alignment(
    seq: RatioSequence,
    level: int,
    base: int = 0,
    root: Sequence[int] = (),
    budget: int | None = None,
) -> tuple[int, list[str]]:
    """Exhaustively check one family level: every gap outside the family must
    sit inside its witness interval at exactly the cover offset.

    Returns (number of gaps checked, failure descriptions).
    """
    digits = validate_code(root)
    # the family is charged before the depths up to its level are listed
    family = gap_family(seq, digits, level, base, budget).level(level)
    ks = small_ratio_indices(seq, base, level + 1)
    kn = ks[level - 1]
    charge(2 * 3 ** (kn - 1 - len(digits)), budget)
    # twice the next level's cover offset, 3 d(k) + d(k - 1), over the table's denominator
    k = ks[level]
    table = seq.depth_table(k)
    twice_offset = 3 * table.ints[k] + table.ints[k - 1]

    checked = 0
    failures: list[str] = []
    for tail in itertools.product((0, 1, 2), repeat=kn - 1 - len(digits)):
        code = digits + tail
        left, _ = scaled_interval(table, code)
        for side in (0, 1):
            if (code, side) in family:
                continue
            checked += 1
            witness = _witness_digits(code, side, ks, len(digits))
            w_left, w_right = scaled_interval(table, witness)
            g_left, g_right = scaled_gap(table, left, kn - 1, side)
            aligned = 2 * (g_left - w_left) == twice_offset or 2 * (w_right - g_right) == twice_offset
            if not (aligned and w_left <= g_left and g_right <= w_right):
                failures.append(
                    f"gap code={code_str(code)} side={side} witness={code_str(witness)}"
                )
    return checked, failures


class Check(Record, json=True):
    name: str
    passed: bool
    detail: str = ""


def _family_complement_check(
    seq: RatioSequence, union: IntervalUnion, levels: int, depth: int, budget: int | None
) -> Check:
    """The holes in [-1, 1] of the depth-k_N approximation, union, must be exactly
    the family gaps of levels 1..N, compared over one common denominator."""
    family = gap_family(seq, (), levels, 0, budget)
    denom = lcm(union.denom, family.denom)
    u, f = denom // union.denom, denom // family.denom
    actual = [(lo * u, hi * u) for lo, hi in _holes(union)]
    expected = sorted((lo * f, hi * f) for _, gaps in family.levels for lo, hi in gaps.values())
    ok = actual == expected
    return Check(
        "complement-equals-family",
        ok,
        f"depth {depth}: {len(actual)} complement gaps vs {len(expected)} family gaps",
    )


def _coded_pieces_check(
    name: str, seq: RatioSequence, union: IntervalUnion, depth: int, budget: int | None
) -> Check:
    """The union must be exactly the union of the 3^depth coded intervals, checked
    without merging them: their left ends come from the digit weights one level at
    a time, every piece must lie inside one part, and every part must be covered
    from its left end to its right end without a hole."""
    charge_power(3, depth, budget)
    table = seq.depth_table(depth)
    denom = table.denom
    lefts = [-denom]
    for w in table.drops:
        lefts = [x + k * w for x in lefts for k in (0, 1, 2)]
    lefts.sort()
    scale = lcm(denom, union.denom)
    f, u = scale // denom, scale // union.denom
    width = 2 * table.ints[depth] * f
    los, his = [x * u for x in union.los], [x * u for x in union.his]
    reach = list(los)  # how far each part is covered from its left end
    ok = True
    for lo in lefts:
        lo *= f
        i = bisect_right(los, lo) - 1
        if i < 0 or lo + width > his[i] or lo > reach[i]:
            ok = False
            break
        reach[i] = max(reach[i], lo + width)
    # pieces have positive length, so a point part is never covered
    ok = ok and reach == his and all(map(lt, los, his))
    return Check(name, ok, f"depth {depth}: {len(lefts)} coded pieces vs {len(los)} parts")


def verify_certificate(
    cert: Certificate, depth: int = 6, budget: int | None = None
) -> tuple[Check, ...]:
    """Recompute every claim in a certificate from scratch.

    Field-by-field comparison against a fresh classification, then
    verdict-specific geometric checks at the given depth, then the oracle
    cross-check of the coded enumeration against the pairwise product.
    """
    # a CantorSet's measure check compares depths depth - 1 and depth
    minimum = 1 if cert.verdict == VERDICT_CANTOR else 0
    if depth < minimum:
        raise ValueError(f"depth must be >= {minimum} to verify a {cert.verdict} certificate")
    seq = cert.sequence
    checks: list[Check] = []

    try:
        fresh = classify(
            seq,
            base=cert.base,
            budget=budget,
            report_depth=len(cert.report) if cert.report else 6,
        )
    except (AssumptionError, SpecValidationError) as exc:
        return (Check("reclassify", False, f"classification failed: {exc}"),)

    def same(name: str, a, b) -> None:
        checks.append(Check(name, a == b, f"recomputed {a!r} vs certified {b!r}"))

    same("verdict-matches", fresh.verdict, cert.verdict)
    same("rule-matches", fresh.rule, cert.rule)
    same("measure-matches", fresh.measure, cert.measure)
    same("base-matches", fresh.base, cert.base)
    same("residuals-match", fresh.residuals, cert.residuals)
    same("stable-depth-matches", fresh.stable_depth, cert.stable_depth)
    same("union-matches", fresh.union, cert.union)
    if cert.report is not None:
        same("report-matches", fresh.report, cert.report)

    full_hull = IntervalUnion((-1,), (1,), 1)

    if cert.verdict == VERDICT_FULL:
        ok = all(diff_approximation(seq, d, budget) == full_hull for d in range(1, depth + 1))
        checks.append(Check("difference-set-fills-hull", ok, f"depths 1..{depth}"))
    elif cert.verdict == VERDICT_FINITE and cert.stable_depth is not None:
        stable = diff_approximation(seq, cert.stable_depth, budget)
        checks.append(
            Check("stable-union-matches", stable == cert.union, f"depth {cert.stable_depth}")
        )
        if cert.union is not None:
            checks.append(
                _coded_pieces_check("union-equals-coded-pieces", seq, cert.union, cert.stable_depth, budget)
            )
        ahead = all(
            diff_approximation(seq, cert.stable_depth + extra, budget) == stable
            for extra in (1, 2)
        )
        checks.append(Check("union-stabilizes", ahead, "two depths past stabilization"))
        checks.append(
            Check("measure-is-union-measure", stable.measure == cert.measure, str(cert.measure))
        )
    elif cert.verdict == VERDICT_CANTOR:
        lo = diff_approximation(seq, depth - 1, budget).measure
        hi = diff_approximation(seq, depth, budget).measure
        checks.append(
            Check("measure-strictly-decreasing", hi < lo, f"{hi} < {lo} at depths {depth - 1},{depth}")
        )
    elif cert.verdict == VERDICT_CANTORVAL:
        entries = equation_residuals(seq, cert.base if cert.base is not None else 0)
        checks.append(Check("cover-equations-hold", residuals_vanish(entries), ""))
        if cert.base == 0:
            total = 2 - gap_union_measure(seq)
            checks.append(
                Check("closed-form-measure", total == cert.measure, f"recomputed {total}")
            )
            # level c, the budget's bit length, has k_c >= c: its fold of 3^k_c > budget is refused
            levels = min(small_ratio_count(seq, depth), resolve_budget(budget).bit_length())
            ks = small_ratio_indices(seq, 0, levels)
            for n in range(1, levels + 1):
                partial, _ = gap_union_partial(seq, n)
                union = diff_approximation(seq, ks[n - 1], budget)
                checks.append(
                    Check(
                        f"partial-measure-level-{n}",
                        union.measure == 2 - partial,
                        f"depth {ks[n - 1]}: {union.measure} vs {2 - partial}",
                    )
                )
            if levels:
                # the last level's union is the deepest approximation; fold it once
                checks.append(_family_complement_check(seq, union, levels, ks[-1], budget))

    oracle_depth = min(depth, 7)
    points = cantor_approximation(seq, oracle_depth, budget)
    oracle = minkowski_diff(points, points)
    coded = diff_approximation(seq, oracle_depth, budget)
    checks.append(
        Check("pairwise-oracle-agrees", oracle == coded, f"depth {oracle_depth}")
    )
    checks.append(
        _coded_pieces_check("approximation-equals-coded-pieces", seq, coded, oracle_depth, budget)
    )
    return tuple(checks)


def verification_passed(checks: Sequence[Check]) -> bool:
    return all(c.passed for c in checks)
