"""Families of persistent gaps, their bounding codes and partial lengths.

When the ratio sequence drops below 1/3 at infinitely many depths while also
staying at or above 1/3 infinitely often, the gaps opened at the small-ratio
depths can survive every later overlap. This module builds the family of
those candidate persistent gaps one level from the last, as parallel columns
of digit-string codes, sides and ends: each gap, named by its (code, side)
pair, has three descendants (itself and the two gaps that flank the child over
it) and carries its left end, so its ends are that end plus one of two
offsets per side, integers over one denominator. It computes the
two extreme codes that bound each level, their limits and the family's
partial length. The closed-form sums, the small-ratio depths and the base
checks are `gapmeasure`'s, which `classify` runs without this module; the
names this module calls from there are bound here too.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction

from . import diffsets
from .budget import charge_power
from .construction import THIRD, RatioSequence, depth_length
from .errors import AssumptionError
from .gapmeasure import gap_union_measure, small_index_series, small_ratio_indices
from .rationals import format_scaled
from .records import Record


def small_ratio_count(seq: RatioSequence, depth: int) -> int:
    """How many of depths 1..depth have a ratio below 1/3, counted per period."""
    periods, rest = divmod(max(depth - len(seq.prefix), 0), len(seq.period))
    head = (*seq.prefix[:depth], *seq.period[:rest])
    return sum(r < THIRD for r in head) + periods * sum(r < THIRD for r in seq.period)


def first_level(seq: RatioSequence, root: Sequence[int], base: int = 0) -> int:
    """Level m of the first family generation under the root code."""
    digits = diffsets.validate_code(root)
    k = len(digits)
    if k < base:
        raise AssumptionError(f"root code length {k} must be at least the base {base}")
    # at most k - base small-ratio depths lie in (base, k], so the last one is past k
    ks = small_ratio_indices(seq, base, k - base + 1)
    return bisect_right(ks, k) + 1


def extreme_codes(
    seq: RatioSequence, root: Sequence[int], level: int, base: int = 0
) -> tuple[diffsets.Code, diffsets.Code]:
    """Leftmost and rightmost bounding codes at the given family level.

    The left code descends through 0-runs broken by single 1 digits at
    small-ratio depths; the right code mirrors it with 2-runs.
    """
    digits = diffsets.validate_code(root)
    k = len(digits)
    m = first_level(seq, digits, base)
    if level < m:
        raise ValueError(f"level {level} is below the first family level {m}")
    ks = small_ratio_indices(seq, base, level)
    left = list(digits) + [0] * (ks[m - 1] - k - 1)
    right = list(digits) + [2] * (ks[m - 1] - k - 1)
    for l in range(m, level):
        left += [1] + [0] * (ks[l] - ks[l - 1] - 1)
        right += [1] + [2] * (ks[l] - ks[l - 1] - 1)
    return tuple(left), tuple(right)


class FamilyLevel(Record):
    """One family level as parallel columns in (code, side) order: each gap's
    code as a string of ternary digits, its side, 0 left or 1 right, and its
    ends, integers over the family's denom."""

    codes: list[str]
    sides: list[int]
    los: list[int]
    his: list[int]

    def __len__(self) -> int:
        return len(self.codes)


class GapFamily(Record):
    """Family levels m..N under one root code, each a FamilyLevel."""

    root: diffsets.Code
    base: int
    denom: int
    levels: tuple[tuple[int, FamilyLevel], ...]

    def to_json(self) -> dict:
        levels = {}
        for lvl, gaps in self.levels:
            los, his = format_scaled(gaps.los, self.denom), format_scaled(gaps.his, self.denom)
            levels[str(lvl)] = [
                {"code": code, "side": side, "lo": lo, "hi": hi}
                for code, side, lo, hi in zip(gaps.codes, gaps.sides, los, his)
            ]
        return {"root": diffsets.code_str(self.root), "k0": self.base, "levels": levels}


def gap_family(
    seq: RatioSequence, root: Sequence[int], upto: int, base: int = 0, budget: int | None = None
) -> GapFamily:
    """Build family levels m..upto below the root code, each gap with its ends.

    Level m holds the two extreme gaps of its small-ratio depth. One level
    down, each gap keeps three descendants: itself, persisting through a run
    of its side's extreme digit, and the two gaps that flank the child
    interval over it. A descendant's code is its parent's plus one of three
    digit strings fixed by the level and the parent's side, and it carries
    the left end of the interval it opens under: its parent's plus the weights
    of the digits it appends. Level m + i holds 2*3^i gaps, so the budget is
    charged for all 3^(upto-m+1) - 1 up front.
    """
    digits = diffsets.validate_code(root)
    k = len(digits)
    m = first_level(seq, digits, base)
    if upto < m:
        raise ValueError(f"upto {upto} is below the first family level {m}")
    charge_power(3, upto - m + 1, budget, less=1)
    ks = small_ratio_indices(seq, base, upto)
    table = seq.depth_table(ks[-1])
    ints, km = table.ints, ks[m - 1]
    lo, _ = diffsets.scaled_interval(table, digits)
    prefix, run = diffsets.code_str(digits), km - k - 1
    # the current level's gaps, and the left end of the interval each opens under
    codes, sides = [prefix + "0" * run, prefix + "2" * run], [0, 1]
    lefts = [lo, lo + 2 * (ints[k] - ints[km - 1])]
    levels = []
    for n in range(m, upto + 1):
        kn = ks[n - 1]
        if n > m:
            prev = ks[n - 2]
            run = kn - prev - 1
            # the weight of the digit at depth prev, and the summed weights of depths prev+1..kn-1
            drop, rest = table.drops[prev - 1], ints[prev] - ints[kn - 1]
            # per parent side, the descendants in (code, side) order: a left gap
            # persists through 0s, a right one through 2s
            tails = (
                ("0" * (run + 1), "0" + "2" * run, "1" + "0" * run),
                ("1" + "2" * run, "2" + "0" * run, "2" * (run + 1)),
            )
            steps = ((0, 2 * rest, drop), (drop + 2 * rest, 2 * drop, 2 * (drop + rest)))
            codes = [code + tail for code, p in zip(codes, sides) for tail in tails[p]]
            lefts = [left + step for left, p in zip(lefts, sides) for step in steps[p]]
            sides = [side for p in sides for side in ((0, 1, 0), (1, 0, 1))[p]]
        # the gap ends on each side, as offsets from the left end
        (lo0, hi0), (lo1, hi1) = (diffsets.scaled_gap(table, 0, kn - 1, side) for side in (0, 1))
        los = [left + (lo1 if side else lo0) for left, side in zip(lefts, sides)]
        his = [left + (hi1 if side else hi0) for left, side in zip(lefts, sides)]
        levels.append((n, FamilyLevel(codes, sides, los, his)))
    return GapFamily(root=digits, base=base, denom=table.denom, levels=tuple(levels))


def gap_union_partial(seq: RatioSequence, terms: int) -> tuple[Fraction, Fraction]:
    """Partial family length over the first `terms` levels, with a certified
    bound on the omitted tail (here the bound is the exact tail)."""
    if terms < 0:
        raise ValueError("terms must be >= 0")
    total = gap_union_measure(seq)
    partial = sum(
        (
            2 * 3 ** (n - 1) * (depth_length(seq, k - 1) - 3 * depth_length(seq, k))
            for n, k in enumerate(small_ratio_indices(seq, 0, terms), 1)
        ),
        Fraction(0),
    )
    return partial, total - partial


def extreme_limits(seq: RatioSequence, root: Sequence[int], base: int = 0) -> tuple[Fraction, Fraction]:
    """Limits of the bounding gap endpoints under the root code.

    The right ends of the leftmost bounding gaps increase to the first value;
    the left ends of the rightmost bounding gaps decrease to the second. A
    strictly positive spread between them is what leaves room for a whole
    interval of the limit set inside the root's coded interval.
    """
    digits = diffsets.validate_code(root)
    m = first_level(seq, digits, base)
    iv = diffsets.diff_interval(seq, digits)
    spread = small_index_series(seq, base, growth=1, shrink=Fraction(1), start=m)
    return iv.lo + spread, iv.hi - spread
