"""The closed-form sums over the small-ratio depths: the gap family's exact
union measure and the series behind it.

When the ratio sequence drops below 1/3 at infinitely many depths while also
staying at or above 1/3 infinitely often, the gaps opened at the small-ratio
depths can survive every later overlap. Their total length, and the spread of
the family's bounding ends, are sums over those depths whose terms repeat up
to a fixed factor once the sequence enters its periodic part, so each series
is a finite head plus geometric tails. This module holds those sums, the
small-ratio depths they run over and the base checks they need; `classify`
needs nothing else of the family, and `gapforest` builds the family itself.
"""

from __future__ import annotations

from fractions import Fraction

from .construction import THIRD, RatioSequence, depth_length
from .errors import AssumptionError

_MIXED_HYPOTHESIS = (
    "the persistent-gap analysis needs ratios below 1/3 at infinitely many depths "
    "and ratios at or above 1/3 at infinitely many depths"
)


def _require_mixed(seq: RatioSequence) -> None:
    if all(r < THIRD for r in seq.period):
        raise AssumptionError(f"every ratio is eventually below 1/3; {_MIXED_HYPOTHESIS}")
    if all(r >= THIRD for r in seq.period):
        raise AssumptionError(f"every ratio is eventually at least 1/3; {_MIXED_HYPOTHESIS}")


def require_base(seq: RatioSequence, base: int) -> None:
    """Raise AssumptionError unless base >= 0 and the ratio after it is above 1/3."""
    if base < 0:
        raise AssumptionError(f"base {base} is invalid: it must be >= 0")
    ratio = seq.ratio_at(base + 1)
    if ratio <= THIRD:
        raise AssumptionError(
            f"base {base} is invalid: ratio {ratio} at depth {base + 1} "
            "must be strictly above 1/3"
        )


def smallest_valid_base(seq: RatioSequence) -> int:
    """Least base whose next ratio is strictly above 1/3."""
    span = len(seq.prefix) + len(seq.period)
    for base in range(span):
        if seq.ratio_at(base + 1) > THIRD:
            return base
    raise AssumptionError(
        "no valid base: no ratio anywhere in the sequence is strictly above 1/3"
    )


def small_ratio_indices(seq: RatioSequence, base: int, count: int) -> list[int]:
    """First `count` depths beyond `base` whose ratio is below 1/3, ascending."""
    _require_mixed(seq)
    require_base(seq, base)
    out = []
    j = base + 1
    while len(out) < count:
        if seq.ratio_at(j) < THIRD:
            out.append(j)
        j += 1
    return out


def small_index_series(
    seq: RatioSequence, base: int, growth: int, shrink: Fraction, start: int = 1
) -> Fraction:
    """Exact sum over n >= start of growth^(n-1) * (d(k_n - 1) - shrink*d(k_n)),
    where k_n runs over the small-ratio depths beyond the base.

    Once k_n passes the prefix, consecutive blocks of terms repeat with the
    fixed factor growth^(per-period small count) * (period product), so the
    series is a finite head plus one geometric tail per block position.
    """
    prefix_len = len(seq.prefix)
    per_period = sum(1 for r in seq.period if r < THIRD)
    # at most prefix_len of the k_n lie in the prefix, so these reach one block past it
    ks = small_ratio_indices(seq, base, max(start, 1) - 1 + prefix_len + per_period)
    ratio = Fraction(growth) ** per_period * seq.period_product
    if ratio >= 1:
        raise AssumptionError(f"series does not converge: block ratio {ratio} is not below 1")
    terms = [
        (k, growth ** (n - 1) * (depth_length(seq, k - 1) - shrink * depth_length(seq, k)))
        for n, k in enumerate(ks, 1) if n >= start
    ]
    head = sum((t for k, t in terms if k <= prefix_len), Fraction(0))
    block = sum([t for k, t in terms if k > prefix_len][:per_period], Fraction(0))
    return head + block / (1 - ratio)


def gap_union_measure(seq: RatioSequence) -> Fraction:
    """Exact total length of the whole family under the empty root (base 0).

    Level n contributes 2*3^(n-1) disjoint gaps of common length
    d(k_n - 1) - 3*d(k_n).
    """
    return 2 * small_index_series(seq, 0, growth=3, shrink=Fraction(3))
