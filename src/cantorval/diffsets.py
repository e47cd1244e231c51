"""Ternary-coded geometry of difference sets of central Cantor sets.

Subtracting one depth-n kept interval from another depends only on the
digitwise difference of their binary codes shifted into {0,1,2}, so the
depth-n difference set is a union of 3^n coded intervals of length
2*depth_length(n) inside [-1, 1]. Each coded interval has three children
anchored at its left end, center and right end; a child step with ratio
below 1/3 opens two gaps, a step with ratio at least 1/3 leaves two
overlaps instead.

The depth-n set itself, the union of those 3^n intervals, is
lattice.diff_approximation, which builds it with the shifted-copy fold
without listing them; a module `__getattr__` still resolves
`diffsets.diff_approximation` to it, for callers that look it up here.

The endpoint formulas live here once, on the integer lattice of the
sequence's depth table: scaled_interval gives a coded interval's ends and
scaled_gap the ends of the gap (or, swapped, the overlap) on one side below
it. diff_interval, gap_at and overlap_at wrap them in Fractions; gap_family
and cover_alignment read their integers directly. A gap is named by the plain
pair (code, side): the code it opens under and its side, 0 left or 1 right.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from . import intervals
from .construction import THIRD, DepthTable, RatioSequence
from .errors import AssumptionError

Code = tuple[int, ...]


def validate_code(code: Sequence[int]) -> Code:
    out = tuple(code)
    if any(d not in (0, 1, 2) for d in out):
        raise ValueError(f"ternary code digits must be 0, 1 or 2: {out}")
    return out


def code_str(code: Sequence[int]) -> str:
    return "".join(map(str, code))


def scaled_interval(table: DepthTable, digits: Code) -> tuple[int, int]:
    """Ends of the coded interval, -1 + sum of digit-weighted length drops and that
    plus 2 d_n, as integers over the depth table's denominator."""
    lo = sum(map(mul, digits, table.drops)) - table.denom
    return lo, lo + 2 * table.ints[len(digits)]


def scaled_gap(table: DepthTable, lo: int, n: int, side: int) -> tuple[int, int]:
    """Ends of the gap on one side between the children of a length-n code whose
    coded interval starts at lo, over the depth table's denominator; the overlap
    on that side, when the next ratio is at least 1/3, has the same ends swapped."""
    d, d_next = table.ints[n], table.ints[n + 1]
    if side == 0:
        return lo + 2 * d_next, lo + d - d_next
    return lo + d + d_next, lo + 2 * d - 2 * d_next


def diff_interval(seq: RatioSequence, code: Sequence[int]) -> intervals.ClosedInterval:
    """The coded interval: left endpoint -1 + sum of digit-weighted length drops."""
    digits = validate_code(code)
    table = seq.depth_table(len(digits))
    lo, hi = scaled_interval(table, digits)
    return intervals.ClosedInterval(Fraction(lo, table.denom), Fraction(hi, table.denom))


def _children(seq: RatioSequence, code: Sequence[int], side: int, kind: str) -> tuple:
    """The scaled ends of the gap on one side below a code, and the depth table's
    denominator; a gap opens there only at a next ratio below 1/3, an overlap
    only otherwise."""
    digits = validate_code(code)
    if side not in (0, 1):
        raise ValueError(f"{kind} side must be 0 or 1, got {side}")
    n = len(digits)
    ratio = seq.ratio_at(n + 1)
    if (ratio < THIRD) != (kind == "gap"):
        relation = "is not below" if kind == "gap" else "is below"
        raise AssumptionError(
            f"no {kind} below code {code_str(digits) or '(empty)'}: "
            f"ratio {ratio} at depth {n + 1} {relation} 1/3"
        )
    table = seq.depth_table(n + 1)
    lo, _ = scaled_interval(table, digits)
    return scaled_gap(table, lo, n, side), table.denom


def gap_at(seq: RatioSequence, code: Sequence[int], side: int) -> intervals.OpenInterval:
    """Open gap left between consecutive children; needs the next ratio below 1/3."""
    (lo, hi), denom = _children(seq, code, side, "gap")
    return intervals.OpenInterval(Fraction(lo, denom), Fraction(hi, denom))


def gap_bounds(seq: RatioSequence, ref: tuple[Sequence[int], int]) -> intervals.OpenInterval:
    """The gap named by its (code, side) pair, as the gap family keys it."""
    return gap_at(seq, *ref)


def overlap_at(seq: RatioSequence, code: Sequence[int], side: int) -> intervals.ClosedInterval:
    """Closed overlap of consecutive children; needs the next ratio at least 1/3."""
    (hi, lo), denom = _children(seq, code, side, "overlap")
    return intervals.ClosedInterval(Fraction(lo, denom), Fraction(hi, denom))


def __getattr__(name: str):
    """diff_approximation, defined in cantorval.lattice, is read here too."""
    if name == "diff_approximation":
        from . import lattice

        return lattice.diff_approximation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
