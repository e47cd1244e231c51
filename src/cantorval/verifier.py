"""Certificate verification: every claim of a certificate recomputed from scratch.

`verify_certificate` reclassifies the certified sequence and compares field by
field, then runs the verdict's checks at a depth: a full interval's
approximations against the hull; a finite union's stable union, its coded
pieces, its stabilization and its measure; a Cantor set's strictly falling
measure; a Cantorval's cover equations and, at base 0, its closed-form and
partial measures and the family gaps against the holes of the approximation.
Every verdict ends with the pairwise Minkowski oracle and the approximation
against its coded pieces. Only `verify` and library callers run this module;
`cantorval.classify` still resolves its names, and those of `cover`, whose
covering witnesses no check here uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import lcm
from operator import lt

from .budget import charge_power, resolve_budget
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
from .construction import RatioSequence, cantor_approximation
from .errors import AssumptionError, SpecValidationError
from .gapforest import gap_family, gap_union_partial, small_ratio_count
from .gapmeasure import gap_union_measure, small_ratio_indices
from .intervals import minkowski_diff
from .lattice import IntervalUnion, diff_approximation
from .records import Record


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
    expected = sorted((lo * f, hi * f) for _, gaps in family.levels for lo, hi in zip(gaps.los, gaps.his))
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
    a time and are swept once, sorted. Every piece has width 2 d_depth, so a run
    of overlapping pieces ends wherever the next left end lies beyond the last
    piece's right end, and the runs must be the parts, end for end."""
    charge_power(3, depth, budget)
    table = seq.depth_table(depth)
    denom = table.denom
    lefts = [-denom]
    for w in table.drops:
        lefts = [x + k * w for x in lefts for k in (0, 1, 2)]
    lefts.sort()
    rights = list(map((2 * table.ints[depth]).__add__, lefts))
    cuts = list(map(lt, rights, lefts[1:]))
    scale = lcm(denom, union.denom)
    f, u = scale // denom, scale // union.denom
    runs = zip([lefts[0], *compress(lefts[1:], cuts)], [*compress(rights, cuts), rights[-1]])
    ok = [(lo * f, hi * f) for lo, hi in runs] == [(lo * u, hi * u) for lo, hi in zip(union.los, union.his)]
    return Check(name, ok, f"depth {depth}: {len(lefts)} coded pieces vs {len(union.los)} parts")


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
