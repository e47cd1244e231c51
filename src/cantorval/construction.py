"""Central Cantor sets driven by an eventually periodic sequence of ratios.

A RatioSequence fixes, for every depth n >= 1, the fraction ratio_at(n) of a
parent interval's length kept by each of its two children. Starting from
[0, 1], depth n leaves 2^n closed intervals of common length depth_length(n);
ratios strictly below 1/2 keep the 2^n parts strictly separated, so the
shifted-copy fold of lattice that builds each depth-n approximation only
concatenates.

Each sequence caches its depth lengths d(0..n) as Fractions, extended
lazily; the cache is the only place that multiplies ratios and takes no part
in equality, hashing, repr or JSON. depth_length, period_product and the
series sums read its Fractions. depth_table(n) puts d(0..n) on their least
lattice, with the digit weights d(r-1) - d(r), a pure function of
(sequence, n); both approximations (cantor_approximation here and
lattice.diff_approximation) and the endpoint kernel of diffsets (and through
it gap_family and cover_alignment) read such a table.

Everything is a pure function of (sequence, depth); all arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import partial

from . import intervals, lattice
from .budget import charge_power
from .errors import SpecValidationError
from .rationals import to_lattice
from .records import Record, fields_from_json

_HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _coerce_entries(label: str, entries: Iterable) -> tuple[Fraction, ...]:
    out = []
    for i, value in enumerate(entries, 1):
        try:
            frac = value if isinstance(value, Fraction) else Fraction(value)
        except (ValueError, TypeError, ZeroDivisionError):
            raise SpecValidationError(f"{label} entry {i} is not a rational: {value!r}") from None
        if not 0 < frac < _HALF:
            raise SpecValidationError(
                f"{label} entry {i} is {frac}; every ratio must lie strictly between 0 and 1/2"
            )
        out.append(frac)
    return tuple(out)


class DepthTable:
    """The depth lengths d(0..n) on their least lattice: d(r) == ints[r] / denom,
    so ints[0] == denom, and drops[r - 1] == ints[r - 1] - ints[r], the scaled
    weight of digit r. Never mutated, yet not a records.Record: nothing
    compares or prints it."""

    __slots__ = ("ints", "denom", "drops")

    def __init__(self, lengths: tuple[Fraction, ...]):
        ints, self.denom = to_lattice(lengths)
        self.ints = tuple(ints)
        self.drops = tuple(a - b for a, b in zip(ints, ints[1:]))


class RatioSequence(Record, json=True):
    """Eventually periodic ratio sequence: finite prefix, then a repeating period.

    The depth lengths cached in _lengths are not a field."""

    prefix: tuple[Fraction, ...] = ()
    period: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", _coerce_entries("prefix", self.prefix))
        object.__setattr__(self, "period", _coerce_entries("period", self.period))
        if not self.period:
            raise SpecValidationError("period must contain at least one ratio")
        object.__setattr__(self, "_lengths", (Fraction(1),))

    def _lengths_to(self, n: int) -> tuple[Fraction, ...]:
        """The cached depth lengths, reaching at least d(n). A longer tuple
        replaces the cached one whole, so no reader sees it half extended."""
        if n < 0:
            raise ValueError("depth must be >= 0")
        lengths = self._lengths
        if n >= len(lengths):
            for r in range(len(lengths), n + 1):
                lengths += (lengths[-1] * self.ratio_at(r),)
            object.__setattr__(self, "_lengths", lengths)
        return lengths

    def depth_table(self, n: int) -> DepthTable:
        """The depth table of d(0..n)."""
        return DepthTable(self._lengths_to(n)[: n + 1])

    @classmethod
    def constant(cls, value) -> "RatioSequence":
        return cls(prefix=(), period=(value,))

    def ratio_at(self, n: int) -> Fraction:
        """The ratio applied at depth n (1-based)."""
        if n < 1:
            raise ValueError(f"depth index must be >= 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.period[(n - len(self.prefix) - 1) % len(self.period)]

    @property
    def period_product(self) -> Fraction:
        """d(p + q) / d(p), with p and q the prefix and period lengths."""
        p, q = len(self.prefix), len(self.period)
        lengths = self._lengths_to(p + q)
        return lengths[p + q] / lengths[p]

    from_json = classmethod(partial(fields_from_json, label="ratio sequence"))


def depth_length(seq: RatioSequence, n: int) -> Fraction:
    """Common length of the 2^n depth-n intervals (1 at depth 0)."""
    return seq._lengths_to(n)[n]


def length_drop(seq: RatioSequence, r: int) -> Fraction:
    """depth_length(r-1) - depth_length(r), the weight carried by digit r."""
    return depth_length(seq, r - 1) - depth_length(seq, r)


def scaled_lengths(seq: RatioSequence, n: int) -> tuple[list[int], int]:
    """Depth lengths 0..n as exact integers over their least common denominator."""
    table = seq.depth_table(n)
    return list(table.ints), table.denom


def kept_interval(seq: RatioSequence, bits: Sequence[int]) -> intervals.ClosedInterval:
    """The depth-n interval selected by a binary code of left/right choices."""
    code = tuple(bits)
    if any(b not in (0, 1) for b in code):
        raise ValueError(f"binary code digits must be 0 or 1: {code}")
    lo = Fraction(0)
    for r, bit in enumerate(code, 1):
        if bit:
            lo += length_drop(seq, r)
    return intervals.ClosedInterval(lo, lo + depth_length(seq, len(code)))


def cantor_approximation(seq: RatioSequence, depth: int, budget: int | None = None) -> lattice.IntervalUnion:
    """Union of all 2^depth kept intervals, as a normalized IntervalUnion."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    charge_power(2, depth, budget)
    table = seq.depth_table(depth)
    # [0, d_n] + sum over r of {0, w_r}, with w_r = d_{r-1} - d_r
    return lattice.fold_copies(reversed(table.drops), 1, 0, table.ints[depth], table.denom)
