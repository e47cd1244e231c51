"""Exact set algebra over finite unions of closed rational intervals.

Every operation is exact. Unions are kept normalized: parts sorted, and
parts that touch or overlap are merged, so a normalized union with more than
one part has strictly separated parts.

This module holds the Fraction-level API: closed and open intervals,
normalize (the way in from Fraction intervals to an IntervalUnion),
complement_gaps and the Minkowski sum and difference of two unions.
IntervalUnion itself, merge_scaled and the shifted-copy fold live in
lattice, on the integer lattice, so a request that only builds, measures
and prints unions never runs this module.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .lattice import IntervalUnion, merge_scaled
from .rationals import to_lattice
from .records import Record


class _Interval(Record):
    """The fields shared by closed and open intervals. Intervals are built in
    bulk, so they hold slots and spell out their constructors, which is what
    bulk building needs; they compare and hash as records."""

    __slots__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


class ClosedInterval(_Interval):
    __slots__ = ()

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"closed interval needs lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


class OpenInterval(_Interval):
    __slots__ = ()

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo >= hi:
            raise ValueError(f"open interval needs lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi


def normalize(intervals: Iterable[ClosedInterval]) -> IntervalUnion:
    """Sort arbitrary closed intervals and merge overlapping or touching ones."""
    ints, denom = to_lattice([x for p in intervals for x in (p.lo, p.hi)])
    return IntervalUnion(*merge_scaled(ints[0::2], ints[1::2]), denom)


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


def _pairwise(a: IntervalUnion, b: IntervalUnion, diff: bool) -> IntervalUnion:
    if not a.los or not b.los:
        raise ValueError("Minkowski product of an empty union is undefined")
    denom = lcm(a.denom, b.denom)
    fa, fb = denom // a.denom, denom // b.denom
    alos, ahis = [x * fa for x in a.los], [x * fa for x in a.his]
    blos, bhis = [x * fb for x in b.los], [x * fb for x in b.his]
    if diff:
        los = [x - y for x in alos for y in bhis]
        his = [x - y for x in ahis for y in blos]
    else:
        los = [x + y for x in alos for y in blos]
        his = [x + y for x in ahis for y in bhis]
    return IntervalUnion(*merge_scaled(los, his), denom)


def minkowski_diff(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact A - B = {x - y : x in A, y in B}, computed pairwise over parts."""
    return _pairwise(a, b, diff=True)


def minkowski_sum(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact A + B = {x + y : x in A, y in B}."""
    return _pairwise(a, b, diff=False)
