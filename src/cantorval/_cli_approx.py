"""The `approx` command, imported only when it runs."""

from __future__ import annotations

from collections.abc import Iterator

from . import lattice
from ._cli_common import _check_digits, _chunks, _depth, _lambda_spec, _load_input, _union_rows
from .budget import charge_power
from .construction import THIRD, depth_length
from .rationals import format_rational


def cmd_approx(args, budget):
    seq = _lambda_spec(_load_input(args.spec))
    depth = _depth(args, 4)
    charge_power(3, depth, budget)
    if depth and seq.ratio_at(depth) < THIRD:
        # the leftmost part is then exactly [-1, -1 + 2 d_n], so the reduced
        # denominator of 2 d_n divides union.denom: the same refusal, before the fold
        _check_digits((2 * depth_length(seq, depth)).denominator)
    union = lattice.diff_approximation(seq, depth, budget)
    _check_digits(union.denom)
    if args.format == "text":
        return _union_text(union), 0
    parts = _union_rows(union.los, union.his, union.denom)
    return {"depth": depth, "count": len(union.los), "measure": format_rational(union.measure), "parts": parts}, 0


def _union_text(union: lattice.IntervalUnion) -> Iterator[str]:
    return _chunks("[%d/%d, %d/%d]\n", _union_rows(union.los, union.his, union.denom))
