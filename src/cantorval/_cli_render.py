"""The `render` command, imported only when it runs."""

from __future__ import annotations

from ._cli_common import _check_digits, _depth, _lambda_spec, _load_input, _union_rows
from .render import ascii_depth_stack, depth_stack, svg_depth_stack


def cmd_render(args, budget):
    seq = _lambda_spec(_load_input(args.spec))
    stack = depth_stack(seq, _depth(args, 5), budget)
    if args.format != "json":
        return {"text": ascii_depth_stack, "svg": svg_depth_stack}[args.format](stack), 0
    # DepthStack.to_json(), with each row's parts and family gaps written by cli._json from the lattice
    _check_digits(stack.gap_denom, *(row.union.denom for row in stack.rows))
    rows = []
    for row in stack.rows:
        parts = _union_rows(row.union.los, row.union.his, row.union.denom)
        gaps = _union_rows([lo for lo, _ in row.family_gaps], [hi for _, hi in row.family_gaps], stack.gap_denom)
        rows.append({"depth": row.depth, "parts": parts, "family_gaps": gaps})
    return {"hull": ["-1", "1"], "rows": rows}, 0
