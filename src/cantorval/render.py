"""Depth-stack renderings of difference-set approximations.

One row per depth: the closed parts of the approximation as filled bars,
with the holes that belong to the persistent gap family marked separately
from holes that may still close at later depths. Every end stays an integer
over its denominator; character cells come from integer division, and floats
appear only at the final mapping to SVG pixel coordinates.
"""

from __future__ import annotations

from operator import itemgetter

from .construction import RatioSequence
from .errors import AssumptionError
from .gapforest import gap_family, small_ratio_count
from .gapmeasure import small_ratio_indices
from .lattice import IntervalUnion, diff_approximation
from .rationals import format_scaled
from .records import Record


class StackRow(Record):
    depth: int
    union: IntervalUnion
    family_gaps: tuple[tuple[int, int], ...]  # open (lo, hi) over DepthStack.gap_denom, by lo


class DepthStack(Record):
    gap_denom: int
    rows: tuple[StackRow, ...]

    def to_json(self) -> dict:
        rows = []
        for row in self.rows:
            ends = format_scaled([x for gap in row.family_gaps for x in gap], self.gap_denom)
            gaps = [[lo, hi] for lo, hi in zip(ends[0::2], ends[1::2])]
            rows.append({"depth": row.depth, "parts": row.union.to_json(), "family_gaps": gaps})
        return {"hull": ["-1", "1"], "rows": rows}


def depth_stack(seq: RatioSequence, depth: int, budget: int | None = None) -> DepthStack:
    """Difference-set approximations at depths 0..depth, with each row
    carrying every persistent gap already open at that depth.

    A row has no family gaps when the sequence has no persistent family under
    the empty root: 0 is not a valid base for it, or it does not mix both
    kinds of ratio forever.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    opened_at: dict[int, list[tuple[int, int]]] = {}
    denom = 1
    try:
        count = small_ratio_count(seq, depth)
        if count > 0:
            # the family is charged before its depths are listed
            family = gap_family(seq, root=(), upto=count, budget=budget)
            ks = small_ratio_indices(seq, 0, count)
            opened_at = {k: sorted(zip(gaps.los, gaps.his)) for k, (_, gaps) in zip(ks, family.levels)}
            denom = family.denom
    except AssumptionError:
        pass
    rows = []
    opened: list[tuple[int, int]] = []
    for n in range(depth + 1):
        union = diff_approximation(seq, n, budget)
        opened.extend(opened_at.get(n, ()))
        opened.sort(key=itemgetter(0))
        rows.append(StackRow(depth=n, union=union, family_gaps=tuple(opened)))
    return DepthStack(gap_denom=denom, rows=tuple(rows))


def ascii_depth_stack(stack: DepthStack, width: int = 64) -> str:
    """Character-cell view: '#' covered, '=' persistent gap, '.' other hole.

    Cell j is the open interval (-1 + 2j/width, -1 + 2(j+1)/width), so a closed
    part or open gap (lo, hi) over denom meets cells floor(t(lo)) to ceil(t(hi)) - 1
    of t(x) = (x/denom + 1) * width/2.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    lines = ["legend: # closed part   = persistent gap   . hole"]
    for row in stack.rows:
        cells = bytearray(b"." * width)
        # parts are painted last: a cell a part meets is '#' whatever else meets it
        marks = (
            (b"=", row.family_gaps, stack.gap_denom),
            (b"#", zip(row.union.los, row.union.his), row.union.denom),
        )
        for mark, pairs, denom in marks:
            for lo, hi in pairs:
                first = (lo + denom) * width // (2 * denom)
                stop = -(-(hi + denom) * width // (2 * denom))
                cells[first:stop] = mark * (stop - first)
        lines.append(f"{row.depth:>3} |{cells.decode()}|")
    return "\n".join(lines) + "\n"


_SVG_STYLE = (
    "text{font-family:monospace;font-size:11px;fill:#333333;}"
    ".part{fill:#2b4a8b;}.gap{fill:#d9480f;}.track{fill:#eeeeee;}"
)


def svg_depth_stack(stack: DepthStack) -> str:
    """Self-contained SVG, 800 pixels wide: one 22-pixel row of rectangles per depth."""
    width, row_height, pad_left, pad_right, pad_top = 800, 22, 40, 12, 10
    inner = width - pad_left - pad_right
    height = pad_top * 2 + row_height * len(stack.rows)

    def x_px(value: int, denom: int) -> float:
        # an int/int division is correctly rounded, so this is float of the exact (value/denom + 1)/2
        return round(pad_left + (value + denom) / (2 * denom) * inner, 2)

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
        union = row.union
        for kind, pairs, denom, top, tall in (
            ("part", zip(union.los, union.his), union.denom, y, bar),
            ("gap", row.family_gaps, stack.gap_denom, y + bar // 3, bar - 2 * (bar // 3)),
        ):
            for lo, hi in pairs:
                x0, x1 = x_px(lo, denom), x_px(hi, denom)
                w = max(round(x1 - x0, 2), 0.5)
                lines.append(f'<rect class="{kind}" x="{x0}" y="{top}" width="{w}" height="{tall}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
