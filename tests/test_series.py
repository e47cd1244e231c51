"""Subsum sets of fast convergent series and doubling patterns."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import (
    AssumptionError,
    DoublingPattern,
    IntervalUnion,
    MultigeometricSeries,
    SpecValidationError,
    cantor_approximation,
    cantorval_measure,
    difference_measure,
    is_fast_convergent,
    kakeya_classify,
    multigeometric_form,
    ratios_from_series,
    series_from_pattern,
    series_from_ratios,
    small_ratio_indices,
    subsum_cover,
)
from specimens import (
    EX1,
    EX1_MEASURE,
    EX1_PATTERN,
    EX2,
    EX2_MEASURE,
    EX2_PATTERN,
    EX3,
    EX3_MEASURE,
    EX3_PATTERN,
    INCONCLUSIVE_SERIES_JSON,
)
from strategies import ratio_sequences


class TestMultigeometricSeries:
    def test_rejects_nonpositive_terms(self):
        with pytest.raises(SpecValidationError):
            MultigeometricSeries(prefix=(F(0),), block=(F(1),), ratio=F(1, 3))

    def test_rejects_bad_ratio(self):
        with pytest.raises(SpecValidationError):
            MultigeometricSeries(block=(F(1),), ratio=F(3, 2))

    def test_rejects_increasing_terms(self):
        with pytest.raises(SpecValidationError):
            MultigeometricSeries(prefix=(F(1, 2), F(1)), block=(F(1, 4),), ratio=F(1, 3))
        # an increase hidden at the block boundary is also caught
        with pytest.raises(SpecValidationError):
            MultigeometricSeries(block=(F(1, 10), F(1)), ratio=F(1, 2))

    def test_terms_and_total(self):
        s = MultigeometricSeries(prefix=(F(2),), block=(F(1), F(1, 2)), ratio=F(1, 4))
        assert [s.term(j) for j in range(1, 6)] == [F(2), F(1), F(1, 2), F(1, 4), F(1, 8)]
        assert s.total == 2 + F(3, 2) / (1 - F(1, 4)) == 4

    def test_remainder_telescopes(self):
        s = MultigeometricSeries(prefix=(F(2),), block=(F(1), F(1, 2)), ratio=F(1, 4))
        assert s.remainder(0) == s.total
        for n in range(1, 8):
            assert s.remainder(n - 1) - s.remainder(n) == s.term(n)

    def test_json_round_trip(self):
        s = MultigeometricSeries.from_json(INCONCLUSIVE_SERIES_JSON)
        assert s.to_json() == INCONCLUSIVE_SERIES_JSON
        with pytest.raises(SpecValidationError):
            MultigeometricSeries.from_json({"block": ["1"], "ratio": "1/3", "x": 1})


class TestRatioBridge:
    @settings(max_examples=40)
    @given(ratio_sequences())
    def test_round_trip_is_identity(self, seq):
        series = series_from_ratios(seq)
        assert series.total == 1
        assert is_fast_convergent(series)
        assert ratios_from_series(series) == seq

    @settings(max_examples=40)
    @given(ratio_sequences())
    @example(EX1)
    def test_terms_are_depth_drops(self, seq):
        series = series_from_ratios(seq)
        d_prev = F(1)
        for j in range(1, 9):
            d_here = d_prev * seq.ratio_at(j)
            assert series.term(j) == d_prev - d_here
            d_prev = d_here

    def test_slow_series_has_no_ratio_form(self):
        slow = MultigeometricSeries.from_json(INCONCLUSIVE_SERIES_JSON)
        with pytest.raises(AssumptionError, match="fast convergent"):
            ratios_from_series(slow)

    @pytest.mark.parametrize("seq", [EX1, EX2, EX3], ids=["ex1", "ex2", "ex3"])
    def test_doubling_law_at_small_ratio_depths(self, seq):
        # terms are x_1/3^(j-1), doubled exactly at the small-ratio depths
        series = series_from_ratios(seq)
        x1 = series.term(1)
        ks = set(small_ratio_indices(seq, 0, 6))
        for j in range(1, max(ks) + 1):
            factor = 2 if j in ks else 1
            assert series.term(j) == factor * x1 / 3 ** (j - 1)


class TestKakeya:
    def test_fast_series_gives_cantor_set(self):
        s = MultigeometricSeries(block=(F(1),), ratio=F(1, 3))
        assert is_fast_convergent(s)
        assert kakeya_classify(s) == "CantorSet"

    def test_eventually_fast_series_gives_cantor_set(self):
        # the first term falls short of its remainder and every later one exceeds
        # its own: by Kakeya's theorem the subsum set is still a Cantor set
        s = MultigeometricSeries(prefix=(F(1),), block=(F(1),), ratio=F(1, 3))
        assert not is_fast_convergent(s)
        assert all(s.term(j) > s.remainder(j) for j in range(2, 8))
        assert kakeya_classify(s) == "CantorSet"

    def test_critical_series_gives_interval(self):
        s = MultigeometricSeries(block=(F(1),), ratio=F(1, 2))
        assert kakeya_classify(s) == "FiniteIntervalUnion"

    def test_alternating_comparison_is_inconclusive(self):
        # the second is the Guthrie-Nymann series 3/4, 1/2, 3/16, 1/8, ..., whose
        # subsum set is a Cantorval
        for s in (
            MultigeometricSeries.from_json(INCONCLUSIVE_SERIES_JSON),
            MultigeometricSeries(block=(F(3, 4), F(1, 2)), ratio=F(1, 4)),
        ):
            assert s.term(1) < s.remainder(1)
            assert s.term(2) > s.remainder(2)
            assert kakeya_classify(s) == "Inconclusive"


class TestSubsumCover:
    def test_depth_zero_is_total_span(self):
        series = series_from_ratios(EX1)
        cover = subsum_cover(series, 0)
        assert [(p.lo, p.hi) for p in cover.parts] == [(F(0), F(1))]

    def test_cover_is_scaled_construction(self):
        series = series_from_ratios(EX1)
        for n in range(7):
            assert subsum_cover(series, n) == cantor_approximation(EX1, n)

    def test_cover_scales_with_total(self):
        series, seq, _ = series_from_pattern(EX1_PATTERN)
        assert series.total == F(15, 8)
        for n in range(5):
            u, t = cantor_approximation(seq, n), series.total
            expected = IntervalUnion(
                [x * t.numerator for x in u.los], [x * t.numerator for x in u.his], u.denom * t.denominator
            )
            assert subsum_cover(series, n) == expected


@st.composite
def multigeometric_series(draw):
    """Nonincreasing series, fast convergent or not: sorted small rationals cut
    into a prefix and a block, with a ratio that keeps the next block below."""
    terms = st.builds(F, st.integers(1, 6), st.integers(1, 6))
    terms = sorted(draw(st.lists(terms, min_size=1, max_size=5)), reverse=True)
    cut = draw(st.integers(0, len(terms) - 1))
    prefix, block = terms[:cut], terms[cut:]
    ratio = min(block[-1] / block[0], draw(st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(3, 4)])))
    return MultigeometricSeries(prefix=tuple(prefix), block=tuple(block), ratio=ratio)


def _merge_fractions(intervals):
    """Sort closed Fraction intervals and merge those that overlap or touch."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(pair) for pair in merged]


class TestSubsumCoverBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(multigeometric_series(), st.integers(0, 8))
    # every copy touches the parts before it
    @example(MultigeometricSeries(block=(F(1),), ratio=F(1, 2)), 6)
    # a part of a copy lies inside a longer part before it
    @example(MultigeometricSeries(block=(F(1), F(5, 6)), ratio=F(1, 5)), 5)
    def test_matches_union_over_all_subsets(self, series, n):
        terms = [series.term(j) for j in range(1, n + 1)]
        tail = series.remainder(n)
        sums = [sum(chosen, F(0)) for chosen in product(*((F(0), t) for t in terms))]
        expected = _merge_fractions((s, s + tail) for s in sums)
        assert [(p.lo, p.hi) for p in subsum_cover(series, n).parts] == expected


class TestDoublingPattern:
    def test_first_position_must_stay_plain(self):
        with pytest.raises(AssumptionError, match="position 1"):
            DoublingPattern(prefix_bits=(1,), period_bits=(0, 1))
        with pytest.raises(AssumptionError, match="position 1"):
            DoublingPattern(prefix_bits=(), period_bits=(1, 0))

    def test_period_needs_both_kinds(self):
        with pytest.raises(AssumptionError):
            DoublingPattern(prefix_bits=(0,), period_bits=(1, 1))
        with pytest.raises(AssumptionError):
            DoublingPattern(prefix_bits=(), period_bits=(0, 0))

    def test_bits_validated(self):
        with pytest.raises(SpecValidationError):
            DoublingPattern(prefix_bits=(2,), period_bits=(0, 1))

    def test_bit_wraps_periodically(self):
        p = DoublingPattern(prefix_bits=(0, 0), period_bits=(0, 1, 1))
        assert [p.bit(j) for j in range(1, 9)] == [0, 0, 0, 1, 1, 0, 1, 1]

    def test_json_round_trip(self):
        p = DoublingPattern.from_json({"prefix_bits": "00", "period_bits": "011"})
        assert p == DoublingPattern(prefix_bits=(0, 0), period_bits=(0, 1, 1))
        assert p.to_json() == {"prefix_bits": "00", "period_bits": "011"}
        with pytest.raises(SpecValidationError):
            DoublingPattern.from_json({"period_bits": "012"})


class TestPatternBridge:
    @pytest.mark.parametrize(
        "pattern,seq,want",
        [
            (EX1_PATTERN, EX1, EX1_MEASURE),
            (EX2_PATTERN, EX2, EX2_MEASURE),
            (EX3_PATTERN, EX3, EX3_MEASURE),
        ],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_patterns_induce_the_examples(self, pattern, seq, want):
        series, induced, cert = series_from_pattern(pattern)
        assert induced == seq
        assert cert.verdict == "Cantorval"
        assert cert.measure == want
        assert series.total * cert.measure == 3
        assert difference_measure(pattern) == 3

    def test_pattern_with_prefix(self):
        pattern = DoublingPattern(prefix_bits=(0, 0), period_bits=(0, 1))
        series, induced, cert = series_from_pattern(pattern)
        assert len(induced.prefix) == 2 and len(induced.period) == 2
        assert difference_measure(pattern) == 3

    @pytest.mark.parametrize(
        "pattern,epsilons,want",
        [
            (EX1_PATTERN, (1, 2), EX1_MEASURE),
            (EX2_PATTERN, (1, 1, 2), EX2_MEASURE),
            (EX3_PATTERN, (1, 2, 2), EX3_MEASURE),
        ],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_multigeometric_form(self, pattern, epsilons, want):
        form = multigeometric_form(pattern)
        assert form.epsilons == epsilons
        assert form.ratio == F(1, 3 ** len(epsilons))
        assert form.measure == want

    def test_multigeometric_form_needs_pure_period(self):
        with pytest.raises(AssumptionError):
            multigeometric_form(DoublingPattern(prefix_bits=(0,), period_bits=(0, 1)))

    def test_form_measure_matches_classifier(self):
        for pattern in (EX1_PATTERN, EX2_PATTERN, EX3_PATTERN):
            _, seq, _ = series_from_pattern(pattern)
            assert multigeometric_form(pattern).measure == cantorval_measure(seq)
