"""Interval set algebra: normalization, complements, Minkowski products, and
the fold of shifted copies behind every approximation.

Unions, normalize, the Minkowski products and the fold all run on scaled
integers and merge through merge_scaled, so the key tests here cross-check
them against a naive pure-Fraction merge that shares none of that code.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import (
    ClosedInterval,
    IntervalUnion,
    MultigeometricSeries,
    OpenInterval,
    RatioSequence,
    SpecValidationError,
    cantor_approximation,
    complement_gaps,
    diff_approximation,
    format_rational,
    minkowski_diff,
    minkowski_sum,
    normalize,
    subsum_cover,
)
from cantorval.intervals import merge_scaled
from cantorval.rationals import format_scaled, to_lattice
from strategies import ratio_entries

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=48)


@st.composite
def closed_intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return ClosedInterval(min(a, b), max(a, b))


def unions(min_size=0, max_size=6):
    return st.lists(closed_intervals(), min_size=min_size, max_size=max_size).map(normalize)


def fraction_merge(items) -> list[list[F]]:
    """Reference merge in Fractions: sort, then join overlapping or touching intervals."""
    merged: list[list[F]] = []
    for lo, hi in sorted((iv.lo, iv.hi) for iv in items):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def naive_minkowski(a: IntervalUnion, b: IntervalUnion, diff: bool) -> IntervalUnion:
    if diff:
        raw = [ClosedInterval(p.lo - q.hi, p.hi - q.lo) for p in a.parts for q in b.parts]
    else:
        raw = [ClosedInterval(p.lo + q.lo, p.hi + q.hi) for p in a.parts for q in b.parts]
    ints, denom = to_lattice([x for pair in fraction_merge(raw) for x in pair])
    return IntervalUnion(ints[0::2], ints[1::2], denom)


def brute_measure(parts, probes):
    """Sum of elementary-segment lengths covered by any input interval."""
    points = sorted({x for iv in probes for x in (iv.lo, iv.hi)})
    total = F(0)
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        if any(iv.contains(mid) for iv in parts):
            total += hi - lo
    return total


class TestBasics:
    def test_closed_interval_rejects_reversed(self):
        with pytest.raises(ValueError):
            ClosedInterval(F(1), F(0))

    def test_open_interval_rejects_degenerate(self):
        with pytest.raises(ValueError):
            OpenInterval(F(1, 2), F(1, 2))

    def test_union_rejects_touching_parts(self):
        # parts that only touch must already be merged
        with pytest.raises(ValueError, match=r"^parts not normalized near \[0, 1\] and \[1, 2\]$"):
            IntervalUnion([0, 1], [1, 2], 1)

    def test_normalize_merges_touching(self):
        u = normalize([ClosedInterval(F(0), F(1)), ClosedInterval(F(1), F(2))])
        assert u.parts == (ClosedInterval(F(0), F(2)),)

    def test_normalize_merges_overlap_and_orders(self):
        u = normalize(
            [
                ClosedInterval(F(3), F(4)),
                ClosedInterval(F(0), F(2)),
                ClosedInterval(F(1), F(5, 2)),
            ]
        )
        assert u.parts == (
            ClosedInterval(F(0), F(5, 2)),
            ClosedInterval(F(3), F(4)),
        )

    def test_empty_union(self):
        u = normalize([])
        assert u.parts == () and u.measure == 0

    def test_complement_gaps_at_the_hull_ends(self):
        hull = ClosedInterval(F(-1), F(1))
        # an empty union leaves the open hull, or nothing when the hull is a point
        assert complement_gaps(normalize([]), hull) == [OpenInterval(F(-1), F(1))]
        assert complement_gaps(normalize([]), ClosedInterval(F(0), F(0))) == []
        u = normalize([ClosedInterval(F(-1, 2), F(0)), ClosedInterval(F(1, 4), F(1, 2))])
        assert complement_gaps(u, hull) == [
            OpenInterval(F(-1), F(-1, 2)),
            OpenInterval(F(0), F(1, 4)),
            OpenInterval(F(1, 2), F(1)),
        ]
        for lo, hi in [(F(-1, 4), F(1)), (F(-1), F(1, 4))]:
            with pytest.raises(ValueError, match="not contained"):
                complement_gaps(u, ClosedInterval(lo, hi))

    def test_json_round_trip(self):
        u = normalize([ClosedInterval(F(-1, 3), F(2, 7)), ClosedInterval(F(1), F(3, 2))])
        assert IntervalUnion.from_json(u.to_json()) == u


class TestProperties:
    @given(st.lists(closed_intervals(), max_size=6))
    def test_normalize_idempotent_and_exact_measure(self, items):
        u = normalize(items)
        assert normalize(u.parts) == u
        assert u.measure == brute_measure(items, items)

    @given(unions(min_size=1))
    def test_complement_partitions_hull(self, u):
        hull = ClosedInterval(u.parts[0].lo, u.parts[-1].hi)
        gaps = complement_gaps(u, hull)
        assert u.measure + sum((g.length for g in gaps), F(0)) == hull.length
        # the closed gaps and the parts together fill the hull
        assert normalize([*u.parts, *(ClosedInterval(g.lo, g.hi) for g in gaps)]) == normalize([hull])

    @given(unions(min_size=1, max_size=4), unions(min_size=1, max_size=4))
    def test_minkowski_diff_matches_naive(self, a, b):
        assert minkowski_diff(a, b) == naive_minkowski(a, b, diff=True)

    @given(unions(min_size=1, max_size=4), unions(min_size=1, max_size=4))
    def test_minkowski_sum_matches_naive(self, a, b):
        assert minkowski_sum(a, b) == naive_minkowski(a, b, diff=False)

    @given(unions(min_size=1, max_size=4), unions(min_size=1, max_size=4))
    def test_diff_is_mirrored_swap(self, a, b):
        d, swapped = minkowski_diff(a, b), minkowski_diff(b, a)
        assert d.denom == swapped.denom
        assert d.los == tuple(-x for x in reversed(swapped.his))
        assert d.his == tuple(-x for x in reversed(swapped.los))

    @given(unions(min_size=1, max_size=4), rationals)
    def test_translate_shifts_diff(self, a, c):
        point = normalize([ClosedInterval(c, c)])
        shifted = minkowski_diff(minkowski_sum(a, point), a)
        assert shifted == minkowski_sum(minkowski_diff(a, a), point)

    @given(unions(min_size=1, max_size=4))
    def test_diff_contains_zero_and_is_symmetric(self, a):
        d = minkowski_diff(a, a)
        assert any(p.contains(F(0)) for p in d.parts)
        assert d.los == tuple(-x for x in reversed(d.his))


def loop_merge(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The per-pair sort-merge that merge_scaled replaced: the oracle for its sweep."""
    merged: list[list[int]] = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


class TestScaledPipeline:
    def test_merge_scaled_matches_normalize(self):
        pairs = [(4, 7), (0, 2), (2, 3), (9, 10)]
        merged = IntervalUnion(*merge_scaled([4, 0, 2, 9], [7, 2, 3, 10]), 6)
        direct = normalize([ClosedInterval(F(lo, 6), F(hi, 6)) for lo, hi in pairs])
        assert merged == direct

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 12)), max_size=12))
    def test_merge_scaled_matches_the_pair_loop(self, starts):
        # zero widths, touching and nested intervals all occur on this small range
        pairs = [(lo, lo + width) for lo, width in starts]
        los, his = merge_scaled([lo for lo, _ in pairs], [hi for _, hi in pairs])
        assert list(zip(los, his)) == loop_merge(pairs)

    def test_minkowski_empty_raises(self):
        u = normalize([ClosedInterval(F(0), F(1))])
        with pytest.raises(ValueError):
            minkowski_diff(u, normalize([]))
        with pytest.raises(ValueError):
            minkowski_sum(normalize([]), u)


def fraction_fold(lo: F, hi: F, weights, copies: int) -> list[list[F]]:
    """[lo, hi] + sum over weights w of {0, w, ..., copies * w}, in Fractions:
    one level at a time, outermost first, each merged by fraction_merge."""
    parts = [[lo, hi]]
    for w in weights:
        parts = fraction_merge(ClosedInterval(a + k * w, b + k * w) for k in range(copies + 1) for a, b in parts)
    return parts


def fraction_parts(u: IntervalUnion) -> list[list[F]]:
    return [[p.lo, p.hi] for p in u.parts]


THIRD = F(1, 3)
small_ratios = ratio_entries().filter(lambda r: r < THIRD)
# a ratio of exactly 1/3 makes neighbouring copies touch, so they must merge
any_ratios = st.one_of(st.just(THIRD), ratio_entries())


@st.composite
def fold_sequences(draw):
    """Prefixes, all-small and mixed periods, and periods holding 1/3."""
    entries = any_ratios if draw(st.booleans()) else small_ratios
    prefix = tuple(draw(st.lists(any_ratios, max_size=2)))
    return RatioSequence(prefix=prefix, period=tuple(draw(st.lists(entries, min_size=1, max_size=3))))


@st.composite
def fold_series(draw):
    """Nonincreasing series whose terms fall above, at or below their remainders."""
    terms = sorted(draw(st.lists(st.fractions(F(1, 20), 1), min_size=1, max_size=4)), reverse=True)
    split = draw(st.integers(0, len(terms) - 1))
    prefix, block = terms[:split], terms[split:]
    # at most block[-1] / block[0], so the series stays nonincreasing across blocks
    ratio = draw(st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(3, 4)))) * block[-1] / block[0]
    return MultigeometricSeries(prefix=tuple(prefix), block=tuple(block), ratio=ratio)


class TestFoldAgainstFractions:
    """diff_approximation, cantor_approximation and subsum_cover all come from
    lattice.fold_copies; here they meet a fold that never calls
    merge_scaled or normalize."""

    @settings(max_examples=60, deadline=None)
    @given(fold_sequences(), st.integers(0, 7))
    # every level's three copies touch end to end: the union is [-1, 1]
    @example(RatioSequence(prefix=(), period=(THIRD,)), 7)
    @example(RatioSequence(prefix=(F(1, 4),), period=(THIRD, F(2, 5))), 6)
    @example(RatioSequence(prefix=(F(2, 5),), period=(F(1, 4), F(1, 5))), 7)
    def test_approximations_match(self, seq, depth):
        d = [F(1)]
        for r in range(1, depth + 1):
            d.append(d[-1] * seq.ratio_at(r))
        weights = [d[r - 1] - d[r] for r in range(1, depth + 1)]
        assert fraction_parts(diff_approximation(seq, depth)) == fraction_fold(F(-1), 2 * d[depth] - 1, weights, 2)
        assert fraction_parts(cantor_approximation(seq, depth)) == fraction_fold(F(0), d[depth], weights, 1)

    @settings(max_examples=60, deadline=None)
    @given(fold_series(), st.integers(0, 7))
    # each term 2^-j equals its remainder, so every copy touches: the union is [0, 2]
    @example(MultigeometricSeries(block=(F(1),), ratio=F(1, 2)), 7)
    def test_subsum_cover_matches(self, series, depth):
        weights = [series.term(j) for j in range(1, depth + 1)]
        want = fraction_fold(F(0), series.remainder(depth), weights, 1)
        assert fraction_parts(subsum_cover(series, depth)) == want


class TestLattice:
    @given(st.lists(closed_intervals(), max_size=8), st.integers(min_value=1, max_value=6))
    def test_scaled_union_matches_fraction_merge(self, items, factor):
        expected = fraction_merge(items)
        # a multiple of the least denominator, so that the constructor must reduce
        denom = factor * lcm(*(x.denominator for pair in expected for x in pair))
        los = [int(lo * denom) for lo, _ in expected]
        his = [int(hi * denom) for _, hi in expected]
        u = IntervalUnion(los, his, denom)
        ref = normalize(items)
        assert u.parts == ref.parts == tuple(ClosedInterval(lo, hi) for lo, hi in expected)
        assert u.measure == ref.measure == sum((hi - lo for lo, hi in expected), F(0))
        want_json = [[format_rational(lo), format_rational(hi)] for lo, hi in expected]
        assert u.to_json() == ref.to_json() == want_json
        assert u == ref and hash(u) == hash(ref) and repr(u) == repr(ref)
        assert repr(u) == f"IntervalUnion(parts={tuple(ClosedInterval(lo, hi) for lo, hi in expected)!r})"
        for j in range(1, len(expected)):
            touching = his[:]
            touching[j - 1] = los[j]
            with pytest.raises(ValueError, match="parts not normalized"):
                IntervalUnion(los, touching, denom)

    def test_same_set_over_denominators_6_and_12(self):
        a = IntervalUnion([-3, 1], [-1, 4], 6)
        b = IntervalUnion([-6, 2], [-2, 8], 12)
        assert a == b and hash(a) == hash(b)
        assert (b.los, b.his, b.denom) == ((-3, 1), (-1, 4), 6)
        assert b.to_json() == [["-1/2", "-1/6"], ["1/6", "2/3"]]
        assert a == normalize([ClosedInterval(F(1, 6), F(2, 3)), ClosedInterval(F(-1, 2), F(-1, 6))])

    def test_to_lattice_cases(self):
        assert to_lattice([F(3), F(-2), F(0)]) == ([3, -2, 0], 1)
        assert to_lattice([F(1, 6), F(-3, 4), F(2)]) == ([2, -9, 24], 12)
        assert to_lattice([]) == ([], 1)

    @given(st.lists(rationals, max_size=8))
    def test_to_lattice_inverts_format_scaled(self, values):
        ints, denom = to_lattice(values)
        assert denom == lcm(*(v.denominator for v in values))
        assert format_scaled(ints, denom) == [format_rational(v) for v in values]

    def test_lattice_invariant_messages(self):
        with pytest.raises(ValueError, match=r"^closed interval needs lo <= hi, got \[1/3, 0\]$"):
            IntervalUnion([1], [0], 3)
        with pytest.raises(ValueError, match=r"^parts not normalized near \[0, 1\] and \[1, 3/2\]$"):
            IntervalUnion([0, 2], [2, 3], 2)

    @pytest.mark.parametrize(
        "data, words",
        [
            ("x", "must be a list"),
            ([["1"]], "part 1 must be a [lo, hi] pair"),
            ([["0", "1"], "01"], "part 2 must be a [lo, hi] pair"),
            ([["1", "0"]], "part 1 needs lo <= hi, got [1, 0]"),
            ([["0", 1]], "not a rational literal"),
        ],
    )
    def test_from_json_rejects_malformed_unions(self, data, words):
        with pytest.raises(SpecValidationError) as exc:
            IntervalUnion.from_json(data)
        assert words in str(exc.value)
