"""Depth-stack renderings of difference-set approximations.

One row per depth: the closed parts of the approximation as filled bars,
with the holes that belong to the persistent gap family marked separately
from holes that may still close at later depths. All geometry stays exact;
endpoints are rounded only at the final mapping to character cells or pixel
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import THIRD, RatioSequence
from .diffsets import diff_approximation
from .errors import AssumptionError
from .gapforest import gap_family, small_ratio_indices, smallest_valid_base
from .intervals import ClosedInterval, IntervalUnion, OpenInterval


@dataclass(frozen=True)
class StackRow:
    depth: int
    union: IntervalUnion
    family_gaps: tuple[OpenInterval, ...]

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "parts": self.union.to_json(),
            "family_gaps": [
                [str(g.lo), str(g.hi)] for g in self.family_gaps
            ],
        }


@dataclass(frozen=True)
class DepthStack:
    hull: ClosedInterval
    rows: tuple[StackRow, ...]

    def to_json(self) -> dict:
        return {
            "hull": [str(self.hull.lo), str(self.hull.hi)],
            "rows": [row.to_json() for row in self.rows],
        }


def _small_ratio_count(seq: RatioSequence, depth: int) -> int:
    """How many of depths 1..depth have a ratio below 1/3, counted per period."""
    periods, rest = divmod(max(depth - len(seq.prefix), 0), len(seq.period))
    head = (*seq.prefix[:depth], *seq.period[:rest])
    return sum(r < THIRD for r in head) + periods * sum(r < THIRD for r in seq.period)


def _family_gaps_by_level(
    seq: RatioSequence, depth: int, budget: int | None
) -> dict[int, list[OpenInterval]]:
    """Persistent gaps keyed by the depth at which they first open.

    Empty when the sequence has no persistent family under the empty root:
    its smallest valid base is not 0, or it does not mix both kinds of ratio
    forever.
    """
    try:
        base = smallest_valid_base(seq)
        count = _small_ratio_count(seq, depth) - _small_ratio_count(seq, base)
        if count <= 0:
            return {}
        # the family is charged before its depths are listed
        family = gap_family(seq, root=(), upto=count, base=base, budget=budget)
        ks = small_ratio_indices(seq, base, count)
    except AssumptionError:
        return {}
    d = family.denom
    return {
        k: [OpenInterval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in sorted(family.level(n).values())]
        for n, k in enumerate(ks, 1)
    }


def depth_stack(seq: RatioSequence, depth: int, budget: int | None = None) -> DepthStack:
    """Difference-set approximations at depths 0..depth, with each row
    carrying every persistent gap already open at that depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    by_level = _family_gaps_by_level(seq, depth, budget)
    rows = []
    opened: list[OpenInterval] = []
    for n in range(depth + 1):
        union = diff_approximation(seq, n, budget)
        opened.extend(by_level.get(n, []))
        opened.sort(key=lambda g: g.lo)
        rows.append(StackRow(depth=n, union=union, family_gaps=tuple(opened)))
    return DepthStack(hull=ClosedInterval(Fraction(-1), Fraction(1)), rows=tuple(rows))


def ascii_depth_stack(stack: DepthStack, width: int = 64) -> str:
    """Character-cell view: '#' covered, '=' persistent gap, '.' other hole."""
    if width < 2:
        raise ValueError("width must be >= 2")
    lo, hi = stack.hull.lo, stack.hull.hi
    span = hi - lo
    lines = ["legend: # closed part   = persistent gap   . hole"]
    for row in stack.rows:
        cells = []
        for j in range(width):
            cell_lo = lo + span * Fraction(j, width)
            cell_hi = lo + span * Fraction(j + 1, width)
            if row.union.intersects_open(cell_lo, cell_hi):
                cells.append("#")
            elif any(g.lo < cell_hi and cell_lo < g.hi for g in row.family_gaps):
                cells.append("=")
            else:
                cells.append(".")
        lines.append(f"{row.depth:>3} |{''.join(cells)}|")
    return "\n".join(lines) + "\n"


_SVG_STYLE = (
    "text{font-family:monospace;font-size:11px;fill:#333333;}"
    ".part{fill:#2b4a8b;}.gap{fill:#d9480f;}.track{fill:#eeeeee;}"
)


def svg_depth_stack(stack: DepthStack, width: int = 800, row_height: int = 22) -> str:
    """Self-contained SVG: one row of rectangles per depth."""
    pad_left, pad_right, pad_top = 40, 12, 10
    inner = width - pad_left - pad_right
    if inner < 10:
        raise ValueError("width too small")
    height = pad_top * 2 + row_height * len(stack.rows)
    lo, span = stack.hull.lo, stack.hull.hi - stack.hull.lo

    def x_px(value: Fraction) -> float:
        return round(pad_left + float((value - lo) / span) * inner, 2)

    bar = row_height - 8
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_SVG_STYLE}</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, row in enumerate(stack.rows):
        y = pad_top + i * row_height
        text_y = y + bar - 2
        lines.append(f'<text x="4" y="{text_y}">{row.depth}</text>')
        lines.append(
            f'<rect class="track" x="{pad_left}" y="{y}" width="{inner}" height="{bar}"/>'
        )
        for part in row.union.parts:
            x0, x1 = x_px(part.lo), x_px(part.hi)
            w = max(round(x1 - x0, 2), 0.5)
            lines.append(f'<rect class="part" x="{x0}" y="{y}" width="{w}" height="{bar}"/>')
        for gap in row.family_gaps:
            x0, x1 = x_px(gap.lo), x_px(gap.hi)
            w = max(round(x1 - x0, 2), 0.5)
            gy = y + bar // 3
            lines.append(
                f'<rect class="gap" x="{x0}" y="{gy}" width="{w}" height="{bar - 2 * (bar // 3)}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
