"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every equality below is exact rational equality; the only tolerances are
the stated wall-clock bounds.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from operator import attrgetter

import pytest

from cantorval import (
    AssumptionError,
    ClosedInterval,
    DoublingPattern,
    IntervalUnion,
    RatioSequence,
    cantor_approximation,
    classify,
    complement_gaps,
    cover_alignment,
    cover_offset,
    depth_length,
    diff_approximation,
    diff_interval,
    difference_measure,
    equation_residuals,
    extreme_codes,
    extreme_limits,
    gap_bounds,
    gap_family,
    minkowski_diff,
    normalize,
    residuals_vanish,
    series_from_pattern,
    series_from_ratios,
    ratios_from_series,
    small_ratio_indices,
    subsum_cover,
)
from cantorval.cli import main as cli_main
from specimens import (
    EX1,
    EX1_MEASURE,
    EX1_PARTIAL_MEASURES,
    EX1_PERTURBED,
    EX2,
    EX2_MEASURE,
    EX3,
    EX3_MEASURE,
    gap_refs,
)

EXAMPLES = [(EX1, EX1_MEASURE), (EX2, EX2_MEASURE), (EX3, EX3_MEASURE)]


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:>2} FAIL — {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:>2} PASS — {label}")


def random_entry(rng):
    q = rng.randint(5, 40)
    return F(rng.randint(1, (q - 1) // 2), q)


def random_sequence(rng, max_prefix=2, max_period=4):
    prefix = tuple(random_entry(rng) for _ in range(rng.randint(0, max_prefix)))
    period = tuple(random_entry(rng) for _ in range(rng.randint(1, max_period)))
    return RatioSequence(prefix=prefix, period=period)


def random_pattern(rng, max_period=8):
    while True:
        prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
        period = tuple(rng.randint(0, 1) for _ in range(rng.randint(2, max_period)))
        try:
            return DoublingPattern(prefix_bits=prefix, period_bits=period)
        except AssumptionError:
            continue


def test_criterion_01_example_reproduction(capsys):
    with criterion(capsys, 1, "three example specs classify to their exact measures"):
        for seq, want in EXAMPLES:
            start = time.perf_counter()
            cert = classify(seq)
            elapsed = time.perf_counter() - start
            assert cert.verdict == "Cantorval"
            assert cert.measure == want
            assert elapsed < 1.0


def test_criterion_02_pattern_universality(capsys):
    with criterion(capsys, 2, "20 random doubling patterns: S * measure = 3 exactly"):
        rng = random.Random(20260822)
        start = time.perf_counter()
        for _ in range(20):
            pattern = random_pattern(rng)
            series, _, cert = series_from_pattern(pattern)
            assert cert.measure is not None
            assert series.total * cert.measure == 3
            assert difference_measure(pattern) == 3
        assert time.perf_counter() - start < 10.0


def test_criterion_03_oracle_equivalence(capsys):
    with criterion(capsys, 3, "50 random specs: coded enumeration equals pairwise product"):
        rng = random.Random(31415926)
        start = time.perf_counter()
        for _ in range(50):
            seq = random_sequence(rng)
            for n in range(9):
                points = cantor_approximation(seq, n)
                assert diff_approximation(seq, n) == minkowski_diff(points, points)
        assert time.perf_counter() - start < 60.0


def test_criterion_04_pure_regime_criteria(capsys):
    with criterion(capsys, 4, "all-large ratios fill [-1,1]; small prefix stabilizes at depth 1"):
        hull = normalize([diff_interval(RatioSequence.constant(F(1, 3)), ())])
        for value in (F(1, 3), F(2, 5), F(49, 100)):
            seq = RatioSequence.constant(value)
            assert classify(seq).verdict == "FullInterval"
            for n in range(11):
                assert diff_approximation(seq, n) == hull

        seq = RatioSequence(prefix=(F(1, 4),), period=(F(2, 5),))
        expected = normalize(diff_interval(seq, (s,)) for s in (0, 1, 2))
        cert = classify(seq)
        assert cert.verdict == "FiniteIntervalUnion"
        assert cert.stable_depth == 1
        assert cert.union == expected
        assert cert.measure == expected.measure
        for n in range(1, 7):
            assert diff_approximation(seq, n) == expected


def test_criterion_05_partial_measures(capsys):
    with criterion(capsys, 5, "partial measures at depth k_N match the closed form, N = 1..5"):
        ks = small_ratio_indices(EX1, 0, 5)
        running = F(2)
        for n, kn in enumerate(ks, 1):
            running -= 2 * 3 ** (n - 1) * (
                depth_length(EX1, kn - 1) - 3 * depth_length(EX1, kn)
            )
            assert diff_approximation(EX1, kn).measure == running
            assert running == EX1_PARTIAL_MEASURES[n]


def test_criterion_06_gap_forest(capsys):
    with criterion(capsys, 6, "family counts, disjointness, extreme ends, positive limits"):
        start = time.perf_counter()
        ks = small_ratio_indices(EX1, 0, 4)
        levels = {n: gap_refs(gaps) for n, gaps in gap_family(EX1, (), 4).levels}
        spread = F(0)
        for n in range(1, 5):
            gaps = [gap_bounds(EX1, ref) for ref in levels[n]]
            assert len(gaps) == 2 * 3 ** (n - 1)
            holes = complement_gaps(diff_approximation(EX1, ks[n - 1]), ClosedInterval(F(-1), F(1)))
            for g in gaps:
                assert any(h.lo <= g.lo and g.hi <= h.hi for h in holes)
            all_so_far = sorted(
                (
                    gap_bounds(EX1, ref)
                    for lvl, refs in levels.items()
                    if lvl <= n
                    for ref in refs
                ),
                key=attrgetter("lo"),
            )
            for a, b in zip(all_so_far, all_so_far[1:]):
                assert a.hi < b.lo
            spread += depth_length(EX1, ks[n - 1] - 1) - depth_length(EX1, ks[n - 1])
            left_code, right_code = extreme_codes(EX1, (), n)
            left, right = (left_code, 0), (right_code, 1)
            assert left in levels[n] and right in levels[n]
            assert gap_bounds(EX1, left).hi == -1 + spread
            assert gap_bounds(EX1, right).lo == 1 - spread
        lo, hi = extreme_limits(EX1, ())
        assert (lo, hi) == (F(-3, 5), F(3, 5))
        assert lo < hi
        assert time.perf_counter() - start < 30.0


def test_criterion_07_cover_alignment(capsys):
    with criterion(capsys, 7, "every non-family gap sits in its witness at the exact offset"):
        for seq, _ in EXAMPLES:
            for level in range(1, 5):
                checked, failures = cover_alignment(seq, level)
                assert checked > 0
                assert failures == []


def test_criterion_08_equation_system(capsys):
    with criterion(capsys, 8, "residuals vanish and offsets solve the three-line system"):
        for seq, _ in EXAMPLES:
            assert residuals_vanish(equation_residuals(seq, 0))
            ks = [0] + small_ratio_indices(seq, 0, 7)
            for n in range(1, 7):
                delta_n = cover_offset(seq, n)
                delta_next = cover_offset(seq, n + 1)
                for r in range(ks[n - 1] + 1, ks[n]):
                    assert 3 * depth_length(seq, r) - depth_length(seq, r - 1) == delta_n
                assert 4 * depth_length(seq, ks[n]) == delta_n + delta_next
                assert (
                    depth_length(seq, ks[n] - 1) - depth_length(seq, ks[n])
                    == delta_n - delta_next
                )
        perturbed = classify(EX1_PERTURBED)
        assert perturbed.verdict == "Unknown"
        assert any(e.value != 0 for e in perturbed.residuals)


def test_criterion_09_series_round_trips(capsys):
    with criterion(capsys, 9, "series round trips and subsum covers scale the construction"):
        rng = random.Random(27182818)
        for _ in range(20):
            seq = random_sequence(rng)
            assert ratios_from_series(series_from_ratios(seq)) == seq
        drops = series_from_ratios(EX1)
        pattern_series, induced, _ = series_from_pattern(
            DoublingPattern(prefix_bits=(), period_bits=(0, 1))
        )
        assert pattern_series.total == F(15, 8)
        for n in range(11):
            assert subsum_cover(drops, n) == cantor_approximation(EX1, n)
            u, t = cantor_approximation(induced, n), pattern_series.total
            assert subsum_cover(pattern_series, n) == IntervalUnion(
                [x * t.numerator for x in u.los], [x * t.numerator for x in u.his], u.denom * t.denominator
            )


def test_criterion_10_negative_controls(capsys, tmp_path):
    with criterion(capsys, 10, "bad patterns, pure regimes, and tampered certificates rejected"):
        with pytest.raises(AssumptionError, match="position 1"):
            DoublingPattern(prefix_bits=(1,), period_bits=(0, 1))
        from cantorval import gap_union_measure, smallest_valid_base

        with pytest.raises(AssumptionError, match="eventually below 1/3"):
            gap_union_measure(RatioSequence.constant(F(1, 4)))
        with pytest.raises(AssumptionError, match="eventually at least 1/3"):
            gap_union_measure(RatioSequence.constant(F(2, 5)))
        with pytest.raises(AssumptionError):
            smallest_valid_base(RatioSequence.constant(F(1, 4)))

        cert = classify(EX1).to_json()
        cert["measure"] = "7/5"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        assert cli_main(["verify", "--spec", str(bad)]) == 1
        good = tmp_path / "fresh.json"
        good.write_text(json.dumps(classify(EX1).to_json()), encoding="utf-8")
        assert cli_main(["verify", "--spec", str(good)]) == 0
