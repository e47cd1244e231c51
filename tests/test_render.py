"""Depth-stack renderings against per-cell and per-end Fraction oracles."""

import re
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from cantorval import (
    AssumptionError,
    ascii_depth_stack,
    depth_stack,
    diff_approximation,
    gap_bounds,
    gap_family,
    small_ratio_indices,
    smallest_valid_base,
    svg_depth_stack,
)
from strategies import ratio_sequences

THIRD = F(1, 3)


def family_gaps(seq, depth):
    """Open (lo, hi) of every persistent gap opened at depths 1..depth, by depth,
    read from gap_bounds; empty when the sequence has no family under the empty root."""
    count = sum(seq.ratio_at(j) < THIRD for j in range(1, depth + 1))
    try:
        if smallest_valid_base(seq) != 0 or count == 0:
            return {}
        family = gap_family(seq, (), count)
        ks = small_ratio_indices(seq, 0, count)
    except AssumptionError:
        return {}
    return {
        k: [(g.lo, g.hi) for g in (gap_bounds(seq, ref) for ref in family.level(n))]
        for n, k in enumerate(ks, 1)
    }


def rows(seq, depth):
    """(depth, closed parts, family gaps open at that depth) for depths 0..depth."""
    by_depth = family_gaps(seq, depth)
    for n in range(depth + 1):
        parts = [(p.lo, p.hi) for p in diff_approximation(seq, n).parts]
        gaps = sorted(g for k, level in by_depth.items() if k <= n for g in level)
        yield n, parts, gaps


class TestRenderOracle:
    @settings(max_examples=60, deadline=None)
    @given(ratio_sequences(), st.integers(0, 6), st.integers(2, 200))
    def test_ascii_cells_match_fraction_loop(self, seq, depth, width):
        expected = ["legend: # closed part   = persistent gap   . hole"]
        for n, parts, gaps in rows(seq, depth):
            cells = []
            for j in range(width):
                cell_lo, cell_hi = F(2 * j, width) - 1, F(2 * j + 2, width) - 1
                if any(lo < cell_hi and cell_lo < hi for lo, hi in parts):
                    cells.append("#")
                elif any(lo < cell_hi and cell_lo < hi for lo, hi in gaps):
                    cells.append("=")
                else:
                    cells.append(".")
            expected.append(f"{n:>3} |{''.join(cells)}|")
        assert ascii_depth_stack(depth_stack(seq, depth), width) == "\n".join(expected) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(ratio_sequences(), st.integers(0, 6))
    def test_svg_rects_match_fraction_ends(self, seq, depth):
        def x_px(v):
            return round(40 + float((v + 1) / 2) * 748, 2)

        def rects(pairs):
            return [(x_px(lo), max(round(x_px(hi) - x_px(lo), 2), 0.5)) for lo, hi in pairs]

        expected = {"part": [], "gap": []}
        for _, parts, gaps in rows(seq, depth):
            expected["part"] += rects(parts)
            expected["gap"] += rects(gaps)
        svg = svg_depth_stack(depth_stack(seq, depth))
        for kind, want in expected.items():
            found = re.findall(rf'<rect class="{kind}" x="([^"]+)" y="[^"]+" width="([^"]+)"', svg)
            assert [(float(x), float(w)) for x, w in found] == want
