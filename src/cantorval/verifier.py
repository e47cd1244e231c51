"""Certificate verification: every claim of a certificate recomputed from scratch.

`verify_certificate` reclassifies the certified sequence and compares field by
field, then runs the verdict's geometric checks at a depth: the cover
alignment of each non-family gap inside its witness interval, the family gaps
against the holes of the approximation, the union against its coded pieces,
and the pairwise Minkowski oracle. Only `verify` and library callers run this
module; `cantorval.classify` still resolves its names.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence
from math import lcm
from operator import lt

from .budget import charge, charge_power, resolve_budget
from .classify import (
    VERDICT_CANTOR,
    VERDICT_CANTORVAL,
    VERDICT_FINITE,
    VERDICT_FULL,
    Certificate,
    _holes,
    classify,
    equation_residuals,
    residuals_vanish,
)
from .construction import THIRD, RatioSequence, cantor_approximation
from .diffsets import Code, code_str, scaled_gap, scaled_interval, validate_code
from .errors import AssumptionError, SpecValidationError
from .gapforest import gap_family, gap_union_partial, small_ratio_count
from .gapmeasure import gap_union_measure, small_ratio_indices
from .intervals import minkowski_diff
from .lattice import IntervalUnion, diff_approximation
from .records import Record


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
