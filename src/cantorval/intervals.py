"""Exact set algebra over finite unions of closed rational intervals.

Endpoints are Fractions and every operation is exact. Unions are kept
normalized: parts sorted, and parts that touch or overlap are merged, so a
normalized union with more than one part has strictly separated parts.

Minkowski products are computed pairwise over parts and then merged. To keep
large enumerations fast without losing exactness, the pairwise stage scales
all endpoints to a common integer denominator and works on plain ints; the
merged result is rebuilt as Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .rationals import format_rational, parse_rational

_ZERO = Fraction(0)


@dataclass(frozen=True, order=True)
class ClosedInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"closed interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def translate(self, offset: Fraction) -> "ClosedInterval":
        return ClosedInterval(self.lo + offset, self.hi + offset)

    def scale(self, factor: Fraction) -> "ClosedInterval":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ClosedInterval(self.lo * factor, self.hi * factor)


@dataclass(frozen=True, order=True)
class OpenInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"open interval needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi


@dataclass(frozen=True)
class IntervalUnion:
    """A normalized finite union of closed intervals; may be empty."""

    parts: tuple[ClosedInterval, ...]

    def __post_init__(self):
        for a, b in zip(self.parts, self.parts[1:]):
            # strict separation: touching parts must already be merged
            if b.lo <= a.hi:
                raise ValueError(f"parts not normalized near [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}]")

    @property
    def measure(self) -> Fraction:
        return sum((p.length for p in self.parts), _ZERO)

    @property
    def hull(self) -> ClosedInterval:
        if not self.parts:
            raise ValueError("empty union has no hull")
        return ClosedInterval(self.parts[0].lo, self.parts[-1].hi)

    def contains(self, x: Fraction) -> bool:
        i = bisect_right(self.parts, x, key=lambda p: p.lo)
        return i > 0 and self.parts[i - 1].hi >= x

    def intersects_open(self, lo: Fraction, hi: Fraction) -> bool:
        """True when some part meets the open interval (lo, hi)."""
        i = bisect_right(self.parts, lo, key=lambda p: p.lo)
        if i > 0 and self.parts[i - 1].hi > lo:
            return True
        return i < len(self.parts) and self.parts[i].lo < hi

    def translate(self, offset: Fraction) -> "IntervalUnion":
        return IntervalUnion(tuple(p.translate(offset) for p in self.parts))

    def scale(self, factor: Fraction) -> "IntervalUnion":
        return IntervalUnion(tuple(p.scale(factor) for p in self.parts))

    def mirror(self) -> "IntervalUnion":
        """Reflection through 0."""
        return IntervalUnion(tuple(ClosedInterval(-p.hi, -p.lo) for p in reversed(self.parts)))

    def to_json(self) -> list[list[str]]:
        return [[format_rational(p.lo), format_rational(p.hi)] for p in self.parts]

    @classmethod
    def from_json(cls, data: Iterable[Sequence[str]]) -> "IntervalUnion":
        return normalize(
            ClosedInterval(parse_rational(pair[0]), parse_rational(pair[1])) for pair in data
        )


def normalize(intervals: Iterable[ClosedInterval]) -> IntervalUnion:
    """Sort arbitrary closed intervals and merge overlapping or touching ones."""
    items = sorted(intervals)
    if not items:
        return IntervalUnion(())
    merged = [items[0]]
    for iv in items[1:]:
        last = merged[-1]
        if iv.lo <= last.hi:
            if iv.hi > last.hi:
                merged[-1] = ClosedInterval(last.lo, iv.hi)
        else:
            merged.append(iv)
    return IntervalUnion(tuple(merged))


def complement_gaps(union: IntervalUnion, hull: ClosedInterval) -> list[OpenInterval]:
    """Open components of hull minus the union. The union must lie inside hull."""
    if not union.parts:
        return [OpenInterval(hull.lo, hull.hi)] if hull.lo < hull.hi else []
    if union.parts[0].lo < hull.lo or union.parts[-1].hi > hull.hi:
        raise ValueError("union is not contained in the hull")
    gaps = []
    if hull.lo < union.parts[0].lo:
        gaps.append(OpenInterval(hull.lo, union.parts[0].lo))
    for a, b in zip(union.parts, union.parts[1:]):
        gaps.append(OpenInterval(a.hi, b.lo))
    if union.parts[-1].hi < hull.hi:
        gaps.append(OpenInterval(union.parts[-1].hi, hull.hi))
    return gaps


def common_denominator(fracs: Iterable[Fraction]) -> int:
    # math.lcm() of no arguments is 1, the right identity here
    return lcm(*(f.denominator for f in fracs))


def scaled_endpoints(union: IntervalUnion, denom: int) -> list[tuple[int, int]]:
    """Endpoints as exact integers over the given common denominator."""
    return [
        (
            p.lo.numerator * (denom // p.lo.denominator),
            p.hi.numerator * (denom // p.hi.denominator),
        )
        for p in union.parts
    ]


def merge_scaled(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort-merge over integer endpoint pairs; touching pairs merge."""
    pairs.sort()
    merged: list[list[int]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def union_from_scaled(pairs: list[tuple[int, int]], denom: int) -> IntervalUnion:
    return IntervalUnion(
        tuple(ClosedInterval(Fraction(lo, denom), Fraction(hi, denom)) for lo, hi in pairs)
    )


def _pairwise(a: IntervalUnion, b: IntervalUnion, diff: bool) -> IntervalUnion:
    if not a.parts or not b.parts:
        raise ValueError("Minkowski product of an empty union is undefined")
    denom = lcm(
        common_denominator(p for iv in a.parts for p in (iv.lo, iv.hi)),
        common_denominator(p for iv in b.parts for p in (iv.lo, iv.hi)),
    )
    xs = scaled_endpoints(a, denom)
    ys = scaled_endpoints(b, denom)
    if diff:
        pairs = [(alo - bhi, ahi - blo) for alo, ahi in xs for blo, bhi in ys]
    else:
        pairs = [(alo + blo, ahi + bhi) for alo, ahi in xs for blo, bhi in ys]
    return union_from_scaled(merge_scaled(pairs), denom)


def minkowski_diff(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact A - B = {x - y : x in A, y in B}, computed pairwise over parts."""
    return _pairwise(a, b, diff=True)


def minkowski_sum(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact A + B = {x + y : x in A, y in B}."""
    return _pairwise(a, b, diff=False)
