"""The integer-lattice kernel: unions of closed intervals stored as integers
over one denominator, the merge and the fold that build them, and the
depth-n difference-set approximation built with them.

An IntervalUnion stores its endpoints on the integer lattice: two int tuples
over one denominator, reduced so that the form is canonical, and its one
constructor takes them so; intervals.normalize is the way in from Fraction
intervals. Building, measuring, comparing, hashing and writing a union as
JSON therefore costs integer work only. The intervals module runs only for
parts, the Fraction intervals built once on first use (repr shows them), and
for from_json. Difference-set and Cantor approximations and subsum covers
are Minkowski sums of one interval with point sets, all built by one fold of
shifted copies, fold_copies. The fold, normalize and the Minkowski products
merge through one routine, merge_scaled, over integer ends sorted apart.

diff_approximation never lists the 3^n coded intervals. The depth-n set is
the Minkowski sum [-1, -1 + 2 d_n] + sum over r of {0, w_r, 2 w_r}, with
w_r = d_{r-1} - d_r, and fold_copies builds it from the finest level up,
adding the copies shifted by w_r and 2 w_r of the parts built so far. A
level whose ratio is below 1/3 only concatenates its copies; one at 1/3 or
above merges them. The cost is the sum over levels of three times the parts
built so far, not 3^n: far fewer parts when overlaps merge, and 3^n only
where every part survives. The budget still counts the 3^n coded intervals a
depth stands for.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress, islice
from math import gcd
from operator import gt, le, lt

from . import intervals
from .budget import charge_power
from .construction import RatioSequence
from .errors import SpecValidationError
from .rationals import format_scaled, parse_rational


class IntervalUnion:
    """A normalized finite union of closed intervals; may be empty.

    Part i is [los[i] / denom, his[i] / denom]. The integers share no common
    factor with denom, so equal sets have equal fields and compare and hash
    as plain tuples. The Fraction parts are built on first use of `parts`.
    """

    __slots__ = ("los", "his", "denom", "_parts")

    def __init__(self, los: Sequence[int], his: Sequence[int], denom: int):
        """The union of [los[i] / denom, his[i] / denom]: sorted, strictly separated parts."""
        g = gcd(denom, *los, *his)
        los, his = (tuple(xs) if g == 1 else tuple([x // g for x in xs]) for xs in (los, his))
        denom //= g

        def show(j: int) -> str:
            return f"[{Fraction(los[j], denom)}, {Fraction(his[j], denom)}]"

        if not all(map(le, los, his)):
            j = next(j for j in range(len(los)) if los[j] > his[j])
            raise ValueError(f"closed interval needs lo <= hi, got {show(j)}")
        # strict separation: touching parts must already be merged
        if not all(map(lt, his, los[1:])):
            j = next(j for j in range(1, len(los)) if los[j] <= his[j - 1])
            raise ValueError(f"parts not normalized near {show(j - 1)} and {show(j)}")
        self.los, self.his, self.denom, self._parts = los, his, denom, None

    @property
    def parts(self) -> tuple[intervals.ClosedInterval, ...]:
        if self._parts is None:
            d = self.denom
            self._parts = tuple(
                intervals.ClosedInterval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(self.los, self.his)
            )
        return self._parts

    def __eq__(self, other):
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self.denom == other.denom and self.los == other.los and self.his == other.his

    def __hash__(self) -> int:
        return hash((self.denom, self.los, self.his))

    def __repr__(self) -> str:
        return f"IntervalUnion(parts={self.parts!r})"

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self.his) - sum(self.los), self.denom)

    def to_json(self) -> list[list[str]]:
        los, his = (format_scaled(xs, self.denom) for xs in (self.los, self.his))
        return [[lo, hi] for lo, hi in zip(los, his)]

    @classmethod
    def from_json(cls, data) -> "IntervalUnion":
        """Parse a list of [lo, hi] rational-string pairs, in any order, and normalize it."""
        if not isinstance(data, list):
            raise SpecValidationError(f"union must be a list of [lo, hi] pairs, got {data!r}")
        parts = []
        for i, pair in enumerate(data, 1):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecValidationError(f"union part {i} must be a [lo, hi] pair, got {pair!r}")
            lo, hi = map(parse_rational, pair)
            if lo > hi:
                raise SpecValidationError(f"union part {i} needs lo <= hi, got [{lo}, {hi}]")
            parts.append(intervals.ClosedInterval(lo, hi))
        return intervals.normalize(parts)


def merge_scaled(los: list[int], his: list[int]) -> tuple[list[int], list[int]]:
    """The components of the union of the closed intervals [los[i], his[i]],
    as their sorted los and his; touching intervals merge. Sorts both
    arguments in place, so that no copy of them is held.

    With the ends sorted apart, a component ends at the k-th smallest hi
    exactly when the (k+1)-th smallest lo lies beyond it: then the k+1
    intervals that start first are the k+1 that end first.
    """
    if not los:
        return [], []
    los.sort()
    his.sort()
    cuts = bytes(map(gt, islice(los, 1, None), his))
    return [los[0], *compress(islice(los, 1, None), cuts)], [*compress(his, cuts), his[-1]]


def fold_copies(weights: Iterable[int], copies: int, lo: int, hi: int, denom: int) -> IntervalUnion:
    """The union [lo, hi] + sum over weights w of {0, w, ..., copies * w}, over denom.

    Weights come innermost first: each adds the parts built so far shifted by
    w, ..., copies * w. A weight beyond their span leaves the copies strictly
    separated, so they are only concatenated; otherwise merge_scaled merges them.
    """
    los, his = [lo], [hi]
    for w in weights:
        apart = w > his[-1] - los[0]
        shifts = [k * w for k in range(1, copies + 1)]
        los = los + [x + s for s in shifts for x in los]
        his = his + [x + s for s in shifts for x in his]
        if not apart:
            los, his = merge_scaled(los, his)
    return IntervalUnion(los, his, denom)


def diff_approximation(seq: RatioSequence, depth: int, budget: int | None = None) -> IntervalUnion:
    """Normalized union of all 3^depth coded intervals at the given depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    charge_power(3, depth, budget)
    table = seq.depth_table(depth)
    denom = table.denom
    return fold_copies(reversed(table.drops), 2, -denom, 2 * table.ints[depth] - denom, denom)
