"""Ternary-coded difference intervals, their approximations, gaps, overlaps."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import (
    AssumptionError,
    ClosedInterval,
    DepthBudgetError,
    RatioSequence,
    cantor_approximation,
    code_str,
    complement_gaps,
    depth_length,
    diff_approximation,
    diff_interval,
    gap_at,
    gap_bounds,
    kept_interval,
    length_drop,
    minkowski_diff,
    normalize,
    overlap_at,
)
from cantorval.construction import THIRD
from cantorval.diffsets import validate_code
from specimens import EX1, EX1_LEVEL1_GAP0
from strategies import ratio_sequences


def defined_interval(seq, code):
    """The coded interval straight from its definition, in plain Fractions:
    left end -1 + sum of digit * (d_{r-1} - d_r), length 2 d_n."""
    lengths = [F(1)]
    for r in range(1, len(code) + 1):
        lengths.append(lengths[-1] * seq.ratio_at(r))
    lo = -1 + sum((d * (lengths[r - 1] - lengths[r]) for r, d in enumerate(code, 1)), F(0))
    return lo, lo + 2 * lengths[-1]


class TestCodes:
    def test_validate_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            validate_code((0, 3))
        with pytest.raises(ValueError):
            validate_code((-1,))

    def test_code_str_round_trip(self):
        assert code_str((0, 2, 1, 2)) == "0212"

    @pytest.mark.parametrize("ref", [((0,), 2), ((3,), 0)], ids=["side-2", "digit-3"])
    def test_gap_bounds_rejects_bad_ref(self, ref):
        with pytest.raises(ValueError):
            gap_bounds(EX1, ref)


class TestDiffIntervals:
    def test_root_interval(self):
        assert diff_interval(EX1, ()) == ClosedInterval(F(-1), F(1))

    def test_anchoring_and_length(self):
        code = (0, 2, 1)
        iv = diff_interval(EX1, code)
        lo = -1 + sum(d * length_drop(EX1, r) for r, d in enumerate(code, 1))
        assert iv.lo == lo
        assert iv.length == 2 * depth_length(EX1, len(code))

    @settings(max_examples=40)
    @given(ratio_sequences(), st.integers(1, 5), st.data())
    def test_code_is_kept_difference(self, seq, n, data):
        t = data.draw(st.tuples(*[st.integers(0, 1)] * n))
        p = data.draw(st.tuples(*[st.integers(0, 1)] * n))
        s = tuple(a - b + 1 for a, b in zip(t, p))
        upper = kept_interval(seq, t)
        lower = kept_interval(seq, p)
        assert diff_interval(seq, s) == ClosedInterval(
            upper.lo - lower.hi, upper.hi - lower.lo
        )


class TestDiffApproximation:
    def test_depth_zero(self):
        assert diff_approximation(EX1, 0).parts == (ClosedInterval(F(-1), F(1)),)

    @settings(max_examples=30, deadline=None)
    @given(ratio_sequences(), st.integers(0, 5))
    def test_matches_minkowski_oracle(self, seq, n):
        c = cantor_approximation(seq, n)
        assert diff_approximation(seq, n) == minkowski_diff(c, c)

    @settings(max_examples=30, deadline=None)
    @given(ratio_sequences(), st.integers(0, 5))
    def test_symmetric_and_nested(self, seq, n):
        u = diff_approximation(seq, n)
        assert u.los == tuple(-x for x in reversed(u.his))
        coarser = diff_approximation(seq, max(n - 1, 0))
        assert normalize([*coarser.parts, *u.parts]) == coarser

    # a ratio of exactly 1/3 makes neighbouring copies touch at one point
    @example(RatioSequence.constant(THIRD), 6)
    @example(RatioSequence(prefix=(F(1, 4),), period=(THIRD, F(2, 5))), 7)
    @example(RatioSequence(prefix=(), period=(THIRD, F(1, 5), F(7, 15))), 7)
    @settings(max_examples=40, deadline=None)
    @given(ratio_sequences(), st.integers(0, 7))
    def test_equals_brute_force_code_union(self, seq, n):
        brute = normalize(diff_interval(seq, s) for s in product((0, 1, 2), repeat=n))
        assert diff_approximation(seq, n) == brute

    # the CLI's approx refuses on this part's denominator before the fold
    @example(RatioSequence.constant(THIRD), 3)
    @settings(max_examples=40, deadline=None)
    @given(ratio_sequences(), st.integers(1, 7))
    def test_first_part_is_the_first_piece_exactly_below_a_last_ratio_under_a_third(self, seq, n):
        first = diff_approximation(seq, n).parts[0]
        assert (first == ClosedInterval(F(-1), -1 + 2 * depth_length(seq, n))) == (seq.ratio_at(n) < THIRD)

    def test_budget_counts_every_coded_interval(self):
        with pytest.raises(DepthBudgetError) as exc:
            diff_approximation(RatioSequence.constant(F(1, 4)), 16, budget=10**6)
        assert exc.value.needed == 3**16

    def test_budget_refuses_any_depth_without_building_the_count(self):
        quarter = RatioSequence.constant(F(1, 4))
        with pytest.raises(DepthBudgetError) as exc:
            diff_approximation(quarter, 64, budget=10)
        assert exc.value.needed == 3**64
        # past exponent 64 the count is named by its formula; 3^(10^18) is never built
        for depth, budget in ((65, 10), (10**18, None), (70, 3**70 - 1)):
            with pytest.raises(DepthBudgetError, match=rf"needs 3\*\*{depth} intervals") as exc:
                diff_approximation(quarter, depth, budget=budget)
            assert exc.value.needed == f"3**{depth}"
        with pytest.raises(DepthBudgetError) as exc:
            cantor_approximation(quarter, 10**18)
        assert exc.value.needed == f"2**{10**18}"


class TestGapsAndOverlaps:
    @settings(max_examples=60, deadline=None)
    @given(
        ratio_sequences(),
        st.lists(st.lists(st.integers(0, 2), max_size=8), min_size=1, max_size=6),
    )
    def test_endpoints_match_definition_deep_codes_first(self, drawn, codes):
        # a fresh sequence, queried deepest code first, so that shallower
        # queries read a table that was extended past them
        seq = RatioSequence(prefix=drawn.prefix, period=drawn.period)
        for code in sorted(map(tuple, codes), key=len, reverse=True):
            assert diff_interval(seq, code) == ClosedInterval(*defined_interval(seq, code))
            # children of the code, and the holes or overlaps between neighbours
            kids = [defined_interval(seq, code + (t,)) for t in (0, 1, 2)]
            if seq.ratio_at(len(code) + 1) < THIRD:
                for side in (0, 1):
                    g = gap_at(seq, code, side)
                    assert (g.lo, g.hi) == (kids[side][1], kids[side + 1][0])
                with pytest.raises(AssumptionError):
                    overlap_at(seq, code, 0)
            else:
                for side in (0, 1):
                    z = overlap_at(seq, code, side)
                    assert (z.lo, z.hi) == (kids[side + 1][0], kids[side][1])
                with pytest.raises(AssumptionError):
                    gap_at(seq, code, 1)

    def test_level_one_gap_matches_frozen_endpoints(self):
        g = gap_at(EX1, (0,), side=0)
        assert (g.lo, g.hi) == EX1_LEVEL1_GAP0

    def test_gap_is_a_hole(self):
        g = gap_at(EX1, (0,), side=0)
        hull = ClosedInterval(F(-1), F(1))
        for depth in (2, 5):
            holes = complement_gaps(diff_approximation(EX1, depth), hull)
            assert any(h.lo <= g.lo and g.hi <= h.hi for h in holes)

    def test_gap_bounds_matches_gap_at(self):
        assert gap_bounds(EX1, ((0,), 0)) == gap_at(EX1, (0,), 0)

    def test_gap_needs_small_ratio(self):
        # depth 1 ratio is 7/15 >= 1/3: no gap opens there
        with pytest.raises(AssumptionError):
            gap_at(EX1, (), side=0)

    def test_overlap_needs_large_ratio(self):
        with pytest.raises(AssumptionError):
            overlap_at(EX1, (0,), side=0)

    def test_overlap_zone_inside_parent(self):
        z = overlap_at(EX1, (), side=0)
        parent = diff_interval(EX1, ())
        d, d_next = depth_length(EX1, 0), depth_length(EX1, 1)
        assert z == ClosedInterval(parent.lo + d - d_next, parent.lo + 2 * d_next)
        assert z.length == 3 * d_next - d

    def test_gap_and_children_tile_consistently(self):
        # the two gaps under a code are exactly the parent minus its children
        code = (1,)
        parent = diff_interval(EX1, code)
        children = [diff_interval(EX1, code + (t,)) for t in (0, 1, 2)]
        gaps = [gap_at(EX1, code, side) for side in (0, 1)]
        total = sum((c.length for c in children), F(0)) + sum(
            (g.length for g in gaps), F(0)
        )
        assert total == parent.length
