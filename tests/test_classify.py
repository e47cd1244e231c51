"""Trichotomy decisions, cover equations, witnesses, and certificates."""

import itertools
import sys
import time
from bisect import bisect_right
from fractions import Fraction as F
from math import lcm
from operator import lt

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorval import (
    AssumptionError,
    Certificate,
    Check,
    ClosedInterval,
    DepthBudgetError,
    IntervalUnion,
    RatioSequence,
    VERDICT_CANTOR,
    VERDICT_CANTORVAL,
    VERDICT_FINITE,
    VERDICT_FULL,
    VERDICT_UNKNOWN,
    cantorval_measure,
    classify,
    complement_gaps,
    cover_alignment,
    cover_offset,
    cover_witness,
    depth_length,
    depth_report,
    diff_approximation,
    diff_interval,
    equation_residuals,
    gap_at,
    normalize,
    residuals_vanish,
    small_ratio_indices,
    verification_passed,
    verify_certificate,
)
from specimens import (
    CANTOR_SMALL,
    EX1,
    EX1_DELTAS,
    EX1_K,
    EX1_MEASURE,
    EX1_PERTURBED,
    EX2,
    EX2_MEASURE,
    EX3,
    EX3_MEASURE,
    FINITE,
    FINITE_MEASURE,
    FINITE_UNION,
    FULL_ALMOST_HALF,
    FULL_THIRD,
    FULL_TWO_FIFTHS,
)
from strategies import ratio_sequences

from cantorval.verifier import _coded_pieces_check

MIXED_PREFIXED = RatioSequence(prefix=(F(1, 4),), period=EX1.period)
THIRD = F(1, 3)


def recursive_witness(digits, side, ks, root_len):
    """Reference witness construction, by recursion on the parent gap: the last
    movable digit either steps toward the gap, or, at a small-ratio depth, hands
    over to the parent gap's witness; padding puts 1 at the small-ratio depths
    in between and the side's extreme digit everywhere else."""
    kn = len(digits) + 1
    n = ks.index(kn) + 1
    if side == 0:
        movable = [j for j in range(1, kn) if digits[j - 1] > 0]
    else:
        movable = [j for j in range(1, kn) if digits[j - 1] < 2]
    last = movable[-1] if movable else 0
    if last <= root_len:
        raise ValueError("gap is a base member of the persistent family; no witness exists")
    if last in ks:
        l = ks.index(last) + 1
        parent = recursive_witness(digits[: last - 1], digits[last - 1] - 1 + side, ks, root_len)
    else:
        l = bisect_right(ks, last)
        step = -1 if side == 0 else 1
        parent = digits[: last - 1] + (digits[last - 1] + step,)
    mid = set(ks[l : n - 1])
    filler = 2 if side == 0 else 0
    tail = tuple(1 if j in mid else filler for j in range(len(parent) + 1, kn + 1))
    return parent + tail


@st.composite
def witness_requests(draw):
    """A mixed sequence, a valid base of at most 2 and a root of length at most 2."""
    seq = draw(
        ratio_sequences().filter(
            lambda s: any(r < THIRD for r in s.period) and any(r >= THIRD for r in s.period)
        )
    )
    bases = [b for b in range(3) if seq.ratio_at(b + 1) > THIRD]
    assume(bases)
    root = tuple(draw(st.lists(st.integers(0, 2), max_size=2)))
    return seq, draw(st.sampled_from(bases)), root


class TestResiduals:
    def test_example_residuals_vanish_with_expected_cases(self):
        entries = equation_residuals(EX1, 0)
        assert residuals_vanish(entries)
        assert [(e.index, e.case) for e in entries] == [(1, ">=,<"), (2, "<,>=")]
        # without a base, the smallest valid one, 0
        assert equation_residuals(EX1) == entries

    def test_all_three_cases_appear_in_longer_period(self):
        entries = equation_residuals(EX2, 0)
        assert residuals_vanish(entries)
        assert {e.case for e in entries} == {">=,>=", ">=,<", "<,>="}

    def test_perturbation_breaks_the_system(self):
        entries = equation_residuals(EX1_PERTURBED, 0)
        assert not residuals_vanish(entries)
        assert any(e.value != 0 for e in entries)


class TestOffsets:
    def test_frozen_offsets(self):
        for n, want in EX1_DELTAS.items():
            assert cover_offset(EX1, n) == want

    def test_offset_consistency_line(self):
        # delta_1 + delta_2 = 4 d_2
        assert cover_offset(EX1, 1) + cover_offset(EX1, 2) == 4 * depth_length(EX1, 2) == F(4, 9)

    @pytest.mark.parametrize("seq", [EX1, EX2, EX3], ids=["ex1", "ex2", "ex3"])
    def test_three_line_system(self, seq):
        from cantorval import small_ratio_indices

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


class TestClassify:
    @pytest.mark.parametrize("seq", [FULL_THIRD, FULL_TWO_FIFTHS, FULL_ALMOST_HALF])
    def test_full_interval(self, seq):
        cert = classify(seq)
        assert cert.verdict == VERDICT_FULL
        assert cert.measure == 2

    def test_finite_union(self):
        cert = classify(FINITE)
        assert cert.verdict == VERDICT_FINITE
        assert cert.stable_depth == 1
        assert cert.measure == FINITE_MEASURE
        assert cert.union is not None
        assert [(p.lo, p.hi) for p in cert.union.parts] == FINITE_UNION

    def test_cantor_set(self):
        cert = classify(CANTOR_SMALL)
        assert cert.verdict == VERDICT_CANTOR
        assert cert.measure == 0

    @pytest.mark.parametrize(
        "seq,want",
        [(EX1, EX1_MEASURE), (EX2, EX2_MEASURE), (EX3, EX3_MEASURE)],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_cantorval_examples(self, seq, want):
        cert = classify(seq)
        assert cert.verdict == VERDICT_CANTORVAL
        assert cert.base == 0
        assert cert.measure == want
        assert cantorval_measure(seq) == want

    def test_unknown_when_residuals_fail(self):
        cert = classify(EX1_PERTURBED)
        assert cert.verdict == VERDICT_UNKNOWN
        assert cert.measure is None
        assert cert.report is not None and len(cert.report) > 0
        assert any(e.value != 0 for e in cert.residuals)
        with pytest.raises(AssumptionError, match="cover equation fails at index 1"):
            cantorval_measure(EX1_PERTURBED)

    def test_unknown_without_a_valid_base(self):
        # mixed, but no ratio lies strictly above 1/3, so no cover equation has a base
        cert = classify(RatioSequence(period=(F(1, 3), F(1, 4))))
        assert (cert.verdict, cert.base, cert.residuals) == (VERDICT_UNKNOWN, None, None)
        assert len(cert.report) == 6
        assert verification_passed(verify_certificate(cert, depth=4))

    def test_prefixed_cantorval_has_no_closed_form_measure(self):
        cert = classify(MIXED_PREFIXED)
        assert cert.verdict == VERDICT_CANTORVAL
        assert cert.base == 1
        assert cert.measure is None
        with pytest.raises(AssumptionError):
            cantorval_measure(MIXED_PREFIXED)

    def test_explicit_invalid_base_is_rejected(self):
        with pytest.raises(AssumptionError):
            classify(EX1, base=1)
        with pytest.raises(AssumptionError, match="base -1 is invalid: it must be >= 0"):
            classify(EX1, base=-1)

    def test_certificate_json_round_trip(self):
        for seq in (EX1, FINITE, CANTOR_SMALL, FULL_THIRD, EX1_PERTURBED):
            cert = classify(seq)
            data = cert.to_json()
            again = Certificate.from_json(data)
            assert again == cert
            assert again.to_json() == data


class TestDepthReport:
    def test_measures_decrease_toward_limit(self):
        rows = depth_report(EX1, 6)
        measures = [row.measure for row in rows]
        assert measures[1] == F(26, 15)
        assert all(a >= b for a, b in zip(measures, measures[1:]))
        assert all(row.measure > EX1_MEASURE for row in rows)

    def test_stable_flag_for_finite_union(self):
        rows = depth_report(FINITE, 4)
        assert [row.stable for row in rows] == [False, True, True, True]

    @settings(max_examples=40, deadline=None)
    @given(ratio_sequences(), st.integers(1, 5))
    def test_gap_counts_match_complement_gaps(self, seq, max_depth):
        hull = ClosedInterval(F(-1), F(1))
        for row in depth_report(seq, max_depth):
            gaps = complement_gaps(diff_approximation(seq, row.depth), hull)
            assert row.gap_count == len(gaps)
            assert row.largest_gap == max((g.length for g in gaps), default=F(0))


class TestWitness:
    def test_hand_checked_witness_level_one(self):
        witness = cover_witness(EX1, (1,), 0)
        assert witness == (0, 2)
        gap = gap_at(EX1, (1,), 0)
        cover = diff_interval(EX1, witness)
        assert cover.lo <= gap.lo and gap.hi <= cover.hi
        inset_left = gap.lo - cover.lo
        inset_right = cover.hi - gap.hi
        assert EX1_DELTAS[2] in (inset_left, inset_right)

    def test_hand_checked_witness_level_two(self):
        witness = cover_witness(EX1, (1, 1, 0), 0)
        assert witness == (0, 2, 2, 2)
        gap = gap_at(EX1, (1, 1, 0), 0)
        cover = diff_interval(EX1, witness)
        assert cover.lo <= gap.lo and gap.hi <= cover.hi
        assert EX1_DELTAS[3] in (gap.lo - cover.lo, cover.hi - gap.hi)

    @settings(max_examples=60, deadline=None)
    @given(witness_requests())
    def test_witness_matches_recursive_construction(self, request_):
        seq, base, root = request_
        ks = small_ratio_indices(seq, base, 3)
        for kn in ks:
            # every code of length kn - 1 under the root, while there are few
            if not 0 <= kn - 1 - len(root) <= 6:
                continue
            for tail in itertools.product((0, 1, 2), repeat=kn - 1 - len(root)):
                code = root + tail
                for side in (0, 1):
                    try:
                        expected = recursive_witness(code, side, ks, len(root))
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            cover_witness(seq, code, side, base, root)
                        assert str(info.value) == str(exc)
                    else:
                        assert cover_witness(seq, code, side, base, root) == expected

    def test_family_member_has_no_witness(self):
        with pytest.raises(ValueError):
            cover_witness(EX1, (0,), 0)
        with pytest.raises(ValueError, match="gap code must extend the root code"):
            cover_witness(EX1, (0, 1, 0), 0, root=(1,))

    def test_no_gap_at_large_ratio_depth(self):
        with pytest.raises(AssumptionError):
            cover_witness(EX1, (0, 1), 0)  # depth 3 has ratio 7/15
        # depth 2 has ratio 5/21, but lies at or below the base
        with pytest.raises(AssumptionError, match="depth 2 is not a small-ratio depth beyond base 2"):
            cover_witness(EX1, (0,), 0, base=2)

    @pytest.mark.parametrize("seq", [EX1, EX2, EX3], ids=["ex1", "ex2", "ex3"])
    def test_alignment_holds_at_first_levels(self, seq):
        for level in (1, 2):
            checked, failures = cover_alignment(seq, level)
            assert checked > 0
            assert failures == []

    def test_alignment_fails_for_perturbed_spec(self):
        checked, failures = cover_alignment(EX1_PERTURBED, 1)
        assert checked > 0
        assert failures != []

    def test_alignment_charges_before_listing_depths(self):
        start = time.monotonic()
        with pytest.raises(DepthBudgetError):
            cover_alignment(EX1, 10**8, budget=10)
        assert time.monotonic() - start < 0.5


class TestVerify:
    @pytest.mark.parametrize(
        "seq",
        [EX1, EX2, FINITE, CANTOR_SMALL, FULL_TWO_FIFTHS, EX1_PERTURBED],
        ids=["ex1", "ex2", "finite", "cantor", "full", "unknown"],
    )
    def test_fresh_certificates_verify(self, seq):
        cert = classify(seq)
        checks = verify_certificate(cert, depth=6)
        assert verification_passed(checks), [c for c in checks if not c.passed]

    def test_cantor_certificate_needs_depth_one(self, monkeypatch):
        cert = classify(CANTOR_SMALL)

        def no_work(*args, **kwargs):
            raise AssertionError("verification started before the depth was checked")

        # the verifier's own binding; the package's classify is the function, not the submodule
        monkeypatch.setattr(sys.modules["cantorval.verifier"], "classify", no_work)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            verify_certificate(cert, depth=0)

    def test_tampered_measure_fails(self):
        cert = classify(EX1)
        bad = Certificate(**{**vars(cert), "measure": F(7, 5)})
        checks = verify_certificate(bad, depth=4)
        failed = {c.name for c in checks if not c.passed}
        assert "measure-matches" in failed and "closed-form-measure" in failed

    def test_tampered_verdict_fails(self):
        cert = classify(CANTOR_SMALL)
        bad = Certificate(**{**vars(cert), "verdict": VERDICT_FULL})
        assert not verification_passed(verify_certificate(bad, depth=4))

    def test_tampered_union_fails(self):
        cert = classify(FINITE)
        bad = Certificate(**{**vars(cert), "union": normalize([ClosedInterval(F(-1), F(1))])})
        assert not verification_passed(verify_certificate(bad, depth=4))

    @pytest.mark.parametrize(
        "parts",
        [
            [(-1, 1)],  # the pieces lie inside, with holes between them
            [(-1, F(-3, 4)), *FINITE_UNION[1:]],  # a piece sticks out
            [*FINITE_UNION, (F(3, 8), F(3, 8))],  # no piece lies in a point
        ],
        ids=["holes", "too-short", "point"],
    )
    def test_union_unlike_its_coded_pieces_fails(self, parts):
        cert = classify(FINITE)
        union = normalize([ClosedInterval(F(lo), F(hi)) for lo, hi in parts])
        checks = verify_certificate(Certificate(**{**vars(cert), "union": union}), depth=4)
        assert "union-equals-coded-pieces" in {c.name for c in checks if not c.passed}

    def test_merge_that_joins_near_parts_fails_the_coded_pieces(self, monkeypatch):
        def joins_one_unit_apart(los, his):
            los.sort()
            his.sort()
            cuts = [lo > hi + 1 for lo, hi in zip(los[1:], his)]
            return [los[0], *itertools.compress(los[1:], cuts)], [*itertools.compress(his, cuts), his[-1]]

        seq = RatioSequence(prefix=(F(1, 5), F(1, 3), F(1, 4)), period=(F(1, 3),))
        assert len(classify(seq).union.los) == 21
        monkeypatch.setattr("cantorval.lattice.merge_scaled", joins_one_unit_apart)
        cert = classify(seq)
        assert len(cert.union.los) == 3
        checks = {c.name: c.passed for c in verify_certificate(cert, depth=7)}
        assert not checks["union-equals-coded-pieces"]
        # both enumerations merge through the planted bug, and at depth 7 the
        # lattice is fine enough that the approximation keeps its true parts
        assert checks["pairwise-oracle-agrees"]
        assert checks["approximation-equals-coded-pieces"]


def coded_pieces_piece_by_piece(seq, union, depth):
    """Reference coded-pieces check, one piece at a time: bisection finds the
    part each sorted coded piece must lie in, a running reach per part must
    take in each piece without a hole, and every part must be reached to its
    right end. This is the loop verify ran before its one sweep."""
    table = seq.depth_table(depth)
    lefts = sorted(-table.denom + sum(d * w for d, w in zip(code, table.drops))
                   for code in itertools.product((0, 1, 2), repeat=depth))
    scale = lcm(table.denom, union.denom)
    f, u = scale // table.denom, scale // union.denom
    width = 2 * table.ints[depth] * f
    los, his = [x * u for x in union.los], [x * u for x in union.his]
    reach = list(los)
    for lo in lefts:
        lo *= f
        i = bisect_right(los, lo) - 1
        if i < 0 or lo + width > his[i] or lo > reach[i]:
            return False
        reach[i] = max(reach[i], lo + width)
    return reach == his and all(map(lt, los, his))


@settings(max_examples=80, deadline=None)
@given(ratio_sequences(), st.integers(0, 6), st.data())
def test_coded_pieces_sweep_agrees_with_the_piece_by_piece_check(seq, depth, data):
    true = diff_approximation(seq, depth)
    los, his, denom = list(true.los), list(true.his), true.denom
    unions = [true, diff_approximation(seq, depth + 1)]
    i = data.draw(st.integers(0, len(los) - 1), label="part")
    # the part dropped, and joined with its right neighbour
    unions.append(IntervalUnion(los[:i] + los[i + 1 :], his[:i] + his[i + 1 :], denom))
    if i + 1 < len(los):
        unions.append(IntervalUnion(los[: i + 1] + los[i + 2 :], his[:i] + his[i + 1 :], denom))
    # one end of the part moved by one lattice unit, where the parts stay a union
    ends = data.draw(st.sampled_from([los, his]), label="end")
    ends[i] += data.draw(st.sampled_from([-1, 1]), label="step")
    try:
        unions.append(IntervalUnion(los, his, denom))
    except ValueError:
        pass
    for union in unions:
        expected = coded_pieces_piece_by_piece(seq, union, depth)
        detail = f"depth {depth}: {3**depth} coded pieces vs {len(union.los)} parts"
        assert _coded_pieces_check("coded", seq, union, depth, None) == Check("coded", expected, detail)
    assert coded_pieces_piece_by_piece(seq, true, depth)
