"""Persistent gap family: recursion, counts, extremes, exact series sums."""

from fractions import Fraction as F
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from cantorval import (
    AssumptionError,
    ClosedInterval,
    DepthBudgetError,
    RatioSequence,
    code_str,
    complement_gaps,
    diff_approximation,
    extreme_codes,
    extreme_limits,
    first_level,
    format_rational,
    gap_bounds,
    gap_family,
    gap_union_measure,
    gap_union_partial,
    small_index_series,
    small_ratio_indices,
    smallest_valid_base,
)
from cantorval.gapforest import small_ratio_count
from specimens import (
    CANTOR_SMALL,
    EX1,
    EX1_EXTREME_LEFT,
    EX1_EXTREME_RIGHT,
    EX1_GAP_UNION,
    EX1_K,
    EX1_LEVEL_SIZES,
    EX1_LIMITS,
    EX1_P2,
    EX1_PARTIAL_MEASURES,
    EX1_Q2,
    EX2,
    EX2_MEASURE,
    EX3,
    EX3_MEASURE,
    FULL_TWO_FIFTHS,
    gap_refs,
)
from strategies import ratio_entries, ratio_sequences

THIRD = F(1, 3)


@st.composite
def mixed_with_base(draw):
    """A sequence whose period mixes both kinds of ratio, with a prefix, and a
    valid base: a depth-(base + 1) ratio strictly above 1/3."""
    prefix = draw(st.lists(ratio_entries(), max_size=3))
    small = THIRD - F(1, draw(st.integers(4, 60)))
    large = THIRD + F(1, draw(st.integers(7, 60)))
    rest = draw(st.lists(ratio_entries(), max_size=2))
    period = draw(st.permutations([small, large, *rest]))
    seq = RatioSequence(prefix=tuple(prefix), period=tuple(period))
    span = len(seq.prefix) + len(seq.period)
    bases = [b for b in range(span) if seq.ratio_at(b + 1) > THIRD]
    return seq, draw(st.sampled_from(bases))


@st.composite
def family_requests(draw):
    """A mixed sequence, a root at least as long as its smallest valid base, and
    a family level of at most 4 at or past the root's first level."""
    seq = draw(ratio_sequences().filter(lambda s: min(s.period) < THIRD < max(s.period)))
    base = smallest_valid_base(seq)
    root = tuple(draw(st.lists(st.integers(0, 2), min_size=base, max_size=base + 2)))
    upto = draw(st.integers(first_level(seq, root, base), 4))
    return seq, root, upto, base


def rebuilt_levels(seq, root, upto, base, denom):
    """Family levels built the long way: each level starts from its two extreme
    gaps and adds the two flanking gaps over every gap of every earlier level,
    each mapped to its ends from gap_bounds over denom."""
    m = first_level(seq, root, base)
    ks = small_ratio_indices(seq, base, upto)
    levels = {}
    for n in range(m, upto + 1):
        kn = ks[n - 1]
        gaps = [(root + (0,) * (kn - len(root) - 1), 0), (root + (2,) * (kn - len(root) - 1), 1)]
        for l in range(m, n):
            run = kn - ks[l - 1] - 1
            for code, side in levels[l]:
                gaps.append((code + (side + 1,) + (0,) * run, 0))
                gaps.append((code + (side,) + (2,) * run, 1))
        levels[n] = {}
        for ref in gaps:
            bounds = gap_bounds(seq, ref)
            levels[n][ref] = (bounds.lo * denom, bounds.hi * denom)
    return tuple(levels.items())


def plain_terms(seq, base, growth, shrink, count):
    """(k_n, growth^(n-1) * (d(k_n - 1) - shrink*d(k_n))) for n = 1..count, with
    every d a plain product of ratios."""
    out = []
    d_prev = F(1)
    j = 0
    while len(out) < count:
        j += 1
        d_here = d_prev * seq.ratio_at(j)
        if j > base and seq.ratio_at(j) < THIRD:
            out.append((j, growth ** len(out) * (d_prev - shrink * d_here)))
        d_prev = d_here
    return out


class TestBaseAndIndices:
    def test_examples_have_base_zero(self):
        for seq in (EX1, EX2, EX3):
            assert smallest_valid_base(seq) == 0

    def test_prefixed_sequence_can_need_larger_base(self):
        seq = RatioSequence(prefix=(F(1, 4), F(1, 5)), period=EX1.period)
        assert smallest_valid_base(seq) == 2

    def test_pure_regimes_are_rejected(self):
        with pytest.raises(AssumptionError):
            smallest_valid_base(CANTOR_SMALL)
        with pytest.raises(AssumptionError):
            gap_union_measure(FULL_TWO_FIFTHS)
        with pytest.raises(AssumptionError):
            gap_union_measure(CANTOR_SMALL)

    def test_small_ratio_indices(self):
        assert small_ratio_indices(EX1, 0, 5) == [2, 4, 6, 8, 10]
        assert small_ratio_indices(EX2, 0, 4) == [3, 6, 9, 12]
        assert small_ratio_indices(EX3, 0, 6) == [2, 3, 5, 6, 8, 9]

    @settings(max_examples=100, deadline=None)
    @given(ratio_sequences(), st.integers(0, 60))
    def test_small_ratio_count_counts_ratios_below_a_third(self, seq, depth):
        direct = sum(seq.ratio_at(j) < THIRD for j in range(1, depth + 1))
        assert small_ratio_count(seq, depth) == direct


class TestFamily:
    def test_level_sizes(self):
        levels = dict(gap_family(EX1, (), 4).levels)
        for n, size in EX1_LEVEL_SIZES.items():
            gaps = levels[n]
            assert len(gaps) == len(gaps.codes) == len(gaps.sides) == len(gaps.los) == len(gaps.his) == size
        assert 5 not in levels

    def test_budget_counts_every_gap_before_building(self):
        # levels 1..7 hold 2 + 6 + ... + 2*3^6 = 3^7 - 1 gaps
        family = gap_family(EX1, (), 7, budget=3**7 - 1)
        assert sum(len(gaps) for _, gaps in family.levels) == 3**7 - 1
        with pytest.raises(DepthBudgetError) as exc:
            gap_family(EX1, (), 7, budget=3**7 - 2)
        assert exc.value.needed == 3**7 - 1
        with pytest.raises(DepthBudgetError) as exc:
            gap_family(EX1, (), 10**9)
        assert exc.value.needed == f"3**{10**9} - 1"

    def test_codes_have_level_length_and_small_tail(self):
        for n, gaps in gap_family(EX1, (), 3).levels:
            for code, side in zip(gaps.codes, gaps.sides):
                assert len(code) == EX1_K[n] - 1 and set(code) <= set("012")
                assert side in (0, 1)

    def test_gaps_strictly_separated_and_persistent(self):
        family = gap_family(EX1, (), 3)
        bounds = sorted(
            (gap_bounds(EX1, ref) for _, gaps in family.levels for ref in gap_refs(gaps)), key=attrgetter("lo")
        )
        for a, b in zip(bounds, bounds[1:]):
            assert a.hi < b.lo
        # every family gap is a hole of the deepest approximation
        holes = complement_gaps(diff_approximation(EX1, EX1_K[3]), ClosedInterval(F(-1), F(1)))
        for g in bounds:
            assert any(h.lo <= g.lo and g.hi <= h.hi for h in holes)

    def test_family_is_whole_complement_at_level_depths(self):
        hull = ClosedInterval(F(-1), F(1))
        for n in (1, 2, 3):
            family = gap_family(EX1, (), n)
            expected = sorted(
                (g.lo, g.hi)
                for _, gaps in family.levels
                for g in (gap_bounds(EX1, ref) for ref in gap_refs(gaps))
            )
            union = diff_approximation(EX1, EX1_K[n])
            actual = [(g.lo, g.hi) for g in complement_gaps(union, hull)]
            assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(family_requests())
    def test_levels_carry_the_ends_of_gap_bounds(self, request_):
        seq, root, upto, base = request_
        family = gap_family(seq, root, upto, base)
        rows = {}
        built = []
        for n, gaps in family.levels:
            refs = gap_refs(gaps)
            rows[str(n)] = [
                {
                    "code": code_str(ref[0]),
                    "side": ref[1],
                    "lo": format_rational(gap_bounds(seq, ref).lo),
                    "hi": format_rational(gap_bounds(seq, ref).hi),
                }
                for ref in sorted(refs)
            ]
            built.append((n, dict(zip(refs, zip(gaps.los, gaps.his)))))
        assert family.to_json() == {"root": code_str(root), "k0": base, "levels": rows}
        # the same gaps as every level built from all earlier ones; dicts compare unordered
        assert tuple(built) == rebuilt_levels(seq, root, upto, base, family.denom)

    @settings(max_examples=60, deadline=None)
    @given(family_requests())
    def test_levels_are_sorted_columns_of_digit_strings(self, request_):
        seq, root, upto, base = request_
        family = gap_family(seq, root, upto, base)
        m = first_level(seq, root, base)
        ks = small_ratio_indices(seq, base, upto)
        assert [n for n, _ in family.levels] == list(range(m, upto + 1))
        for n, gaps in family.levels:
            assert len(gaps.codes) == len(gaps.sides) == len(gaps.los) == len(gaps.his) == 2 * 3 ** (n - m)
            for code in gaps.codes:
                assert len(code) == ks[n - 1] - 1 and set(code) <= set("012")
                assert code.startswith(code_str(root))
            # digit strings of one length sort as their digit tuples do
            rows = list(zip(gaps.codes, gaps.sides))
            assert rows == sorted(rows) and set(gaps.sides) <= {0, 1}
            for ref, lo, hi in zip(gap_refs(gaps), gaps.los, gaps.his):
                bounds = gap_bounds(seq, ref)
                assert (lo, hi) == (bounds.lo * family.denom, bounds.hi * family.denom)

    def test_first_level_at_deeper_roots(self):
        assert first_level(EX1, ()) == 1
        # a root of length k_1 = 2 starts growing gaps at level 2
        assert first_level(EX1, (0, 1)) == 2
        with pytest.raises(AssumptionError, match="root code length 1 must be at least the base 2"):
            first_level(EX1, (0,), base=2)

    def test_to_json_rows_sorted(self):
        family = gap_family(EX1, (), 2)
        data = family.to_json()
        for level_rows in data["levels"].values():
            los = [F(row["lo"]) for row in level_rows]
            assert los == sorted(los)


class TestExtremes:
    def test_extreme_codes(self):
        assert extreme_codes(EX1, (), 1) == ((0,), (2,))
        assert extreme_codes(EX1, (), 2) == (EX1_P2, EX1_Q2)

    def test_extreme_gap_ends_match_frozen_values(self):
        levels = {n: gap_refs(gaps) for n, gaps in gap_family(EX1, (), 2).levels}
        for n in (1, 2):
            left_code, right_code = extreme_codes(EX1, (), n)
            left, right = (left_code, 0), (right_code, 1)
            assert left in levels[n] and right in levels[n]
            assert gap_bounds(EX1, left).hi == EX1_EXTREME_RIGHT[n]
            assert gap_bounds(EX1, right).lo == EX1_EXTREME_LEFT[n]
            # they are the innermost gaps of their level on either side of 0
            bounds = [gap_bounds(EX1, ref) for ref in levels[n]]
            assert gap_bounds(EX1, left) == max(
                (b for b in bounds if b.hi < 0), key=lambda b: b.hi
            )
            assert gap_bounds(EX1, right) == min(
                (b for b in bounds if b.lo > 0), key=lambda b: b.lo
            )

    def test_limits_are_exact_and_positive(self):
        lo, hi = extreme_limits(EX1, ())
        assert (lo, hi) == EX1_LIMITS
        assert lo < hi


class TestSeriesSums:
    def test_gap_union_measures(self):
        assert gap_union_measure(EX1) == EX1_GAP_UNION
        assert gap_union_measure(EX2) == 2 - EX2_MEASURE
        assert gap_union_measure(EX3) == 2 - EX3_MEASURE

    def test_partials_telescope_to_total(self):
        for n, depth_measure in EX1_PARTIAL_MEASURES.items():
            partial, remaining = gap_union_partial(EX1, n)
            assert partial == 2 - depth_measure
            assert partial + remaining == EX1_GAP_UNION

    def test_plain_tail_sum(self):
        # sum of d_{k_n - 1} - d_{k_n} over all levels: the extreme spread
        total = small_index_series(EX1, 0, 1, F(1))
        assert total == F(2, 5)
        with pytest.raises(AssumptionError, match="series does not converge"):
            small_index_series(EX1, 0, growth=100, shrink=F(1))

    @settings(max_examples=60)
    @given(mixed_with_base(), st.sampled_from([(1, F(1)), (3, F(3))]))
    def test_series_telescopes_and_scales_past_the_prefix(self, seq_base, growth_shrink):
        seq, base = seq_base
        growth, shrink = growth_shrink
        per_period = sum(1 for r in seq.period if r < THIRD)
        rho = F(growth) ** per_period
        for r in seq.period:
            rho *= r
        last = len(seq.prefix) + per_period + 2
        terms = plain_terms(seq, base, growth, shrink, last + per_period)

        def series(start):
            return small_index_series(seq, base, growth, shrink, start)

        # S(s) - S(s + 1) is term s, across the prefix/period boundary
        for s in range(1, last + 1):
            assert series(s) - series(s + 1) == terms[s - 1][1]
        # past the prefix, shifting by one period's small ratios scales by rho
        for s in range(1, last + 1):
            if terms[s - 1][0] > len(seq.prefix):
                assert series(s + per_period) == rho * series(s)

    def test_mixed_prefix_series(self):
        seq = RatioSequence(prefix=(F(2, 5), F(1, 4)), period=EX1.period)
        # head term at k_1 = 2 plus the periodic tail starting at k_2 = 4
        assert smallest_valid_base(seq) == 0
        total = small_index_series(seq, 0, 1, F(1))
        partial, remaining = gap_union_partial(seq, 3)
        assert remaining > 0
        assert partial + remaining == gap_union_measure(seq)
        assert total > 0
