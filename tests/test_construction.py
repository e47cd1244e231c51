"""Ratio sequences and the iterated two-piece construction."""

from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import (
    ClosedInterval,
    DepthBudgetError,
    RatioSequence,
    SpecValidationError,
    cantor_approximation,
    depth_length,
    depth_stack,
    diff_approximation,
    gap_at,
    gap_family,
    kept_interval,
    length_drop,
    normalize,
)
from cantorval.construction import scaled_lengths
from specimens import EX1, EX1_LENGTHS
from strategies import ratio_sequences


class TestRatioSequence:
    def test_rejects_out_of_range(self):
        with pytest.raises(SpecValidationError):
            RatioSequence(prefix=(), period=(F(1, 2),))
        with pytest.raises(SpecValidationError):
            RatioSequence(prefix=(F(0),), period=(F(1, 3),))
        with pytest.raises(SpecValidationError):
            RatioSequence(prefix=(), period=(F(-1, 4),))
        with pytest.raises(SpecValidationError, match="period entry 1 is not a rational: 'x'"):
            RatioSequence(period=("x",))

    def test_rejects_empty_period(self):
        with pytest.raises(SpecValidationError):
            RatioSequence(prefix=(F(1, 4),), period=())

    def test_ratio_at_wraps_periodically(self):
        seq = RatioSequence(prefix=(F(1, 4),), period=(F(1, 3), F(2, 5)))
        got = [seq.ratio_at(n) for n in range(1, 7)]
        assert got == [F(1, 4), F(1, 3), F(2, 5), F(1, 3), F(2, 5), F(1, 3)]

    @settings(max_examples=40)
    @given(ratio_sequences(), st.integers(0, 8))
    @example(EX1, 0)
    def test_period_product(self, seq, warm):
        # the product reads the depth table, whatever depth it already reaches
        depth_length(seq, warm)
        want = F(1)
        for r in seq.period:
            want *= r
        assert seq.period_product == want

    def test_constant(self):
        seq = RatioSequence.constant(F(1, 3))
        assert seq.prefix == () and seq.period == (F(1, 3),)

    def test_json_round_trip_and_unknown_keys(self):
        data = EX1.to_json()
        assert RatioSequence.from_json(data) == EX1
        with pytest.raises(SpecValidationError):
            RatioSequence.from_json({"period": ["1/3"], "extra": 1})
        with pytest.raises(SpecValidationError):
            RatioSequence.from_json({"prefix": []})


class TestLengths:
    def test_depth_lengths_match_frozen_values(self):
        for n, want in EX1_LENGTHS.items():
            assert depth_length(EX1, n) == want

    def test_length_drop_telescopes(self):
        for r in range(1, 8):
            assert length_drop(EX1, r) == depth_length(EX1, r - 1) - depth_length(EX1, r)

    def test_kept_interval_addressing(self):
        assert kept_interval(EX1, ()) == ClosedInterval(F(0), F(1))
        d1 = depth_length(EX1, 1)
        assert kept_interval(EX1, (0,)) == ClosedInterval(F(0), d1)
        assert kept_interval(EX1, (1,)) == ClosedInterval(1 - d1, F(1))
        # left endpoint is the sum of the chosen drops
        iv = kept_interval(EX1, (1, 0, 1))
        assert iv.lo == length_drop(EX1, 1) + length_drop(EX1, 3)
        assert iv.length == depth_length(EX1, 3)


class TestDepthTable:
    def test_warmed_table_keeps_identity(self):
        warm = RatioSequence(prefix=(F(1, 4),), period=EX1.period)
        fresh = RatioSequence(prefix=(F(1, 4),), period=EX1.period)
        before = (repr(warm), warm.to_json())
        depth_length(warm, 30)
        gap_at(warm, (0, 1), 0)
        assert warm == fresh and hash(warm) == hash(fresh)
        assert {warm: "found"}[fresh] == "found"
        assert (repr(warm), warm.to_json()) == before == (repr(fresh), fresh.to_json())

    def test_warmed_table_keeps_gap_records_equal(self):
        seq = RatioSequence(prefix=(), period=EX1.period)
        before = gap_family(seq, (), 2), depth_stack(seq, 3)
        diff_approximation(seq, 12)
        assert before[0].denom == 405
        assert (gap_family(seq, (), 2), depth_stack(seq, 3)) == before

    @settings(max_examples=40)
    @given(ratio_sequences(), st.integers(0, 8), st.integers(0, 6))
    def test_scaled_lengths_use_least_denominator_after_extension(self, seq, n, extra):
        lengths = [F(1)]
        for r in range(1, n + 1):
            lengths.append(lengths[-1] * seq.ratio_at(r))
        depth_length(seq, n + extra)
        ints, denom = scaled_lengths(seq, n)
        assert [F(x, denom) for x in ints] == lengths
        assert denom == lcm(*(d.denominator for d in lengths))

    @settings(max_examples=60)
    @given(ratio_sequences(), st.integers(0, 8), st.lists(st.integers(0, 14), max_size=5))
    def test_table_depends_only_on_its_depth(self, seq, n, warm_up):
        fresh = RatioSequence(seq.prefix, seq.period).depth_table(n)
        for depth in warm_up:
            seq.depth_table(depth)
        table = seq.depth_table(n)
        for name in ("ints", "denom", "drops"):
            assert getattr(table, name) == getattr(fresh, name), name
        lengths = [F(1)]
        for r in range(1, n + 1):
            lengths.append(lengths[-1] * seq.ratio_at(r))
        assert table.denom == lcm(*(d.denominator for d in lengths))


class TestApproximation:
    def test_part_count_and_measure(self):
        for n in range(7):
            u = cantor_approximation(EX1, n)
            assert len(u.parts) == 2**n
            assert u.measure == 2**n * depth_length(EX1, n)

    def test_budget_enforced(self):
        with pytest.raises(DepthBudgetError):
            cantor_approximation(EX1, 12, budget=100)

    @settings(max_examples=40)
    @given(ratio_sequences(), st.integers(0, 6))
    def test_matches_brute_force_enumeration(self, seq, n):
        brute = normalize(
            kept_interval(seq, bits) for bits in product((0, 1), repeat=n)
        )
        assert cantor_approximation(seq, n) == brute

    @settings(max_examples=40)
    @given(ratio_sequences(), st.integers(0, 6))
    def test_nested_and_symmetric(self, seq, n):
        u = cantor_approximation(seq, n)
        assert u.los[0] == 0 and u.his[-1] == u.denom
        # symmetric under x -> 1 - x
        assert u.los == tuple(u.denom - x for x in reversed(u.his))
        finer = cantor_approximation(seq, n + 1)
        assert normalize([*u.parts, *finer.parts]) == u
