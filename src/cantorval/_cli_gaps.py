"""The `gaps` command, imported only when it runs, and the gap family's bulk
rows."""

from __future__ import annotations

from ._cli_common import _check_digits, _depth, _lambda_spec, _load_input, _Rows
from .diffsets import code_str
from .errors import AssumptionError
from .gapforest import gap_family
from .gapmeasure import smallest_valid_base

# a family gap's JSON row template at indent {0}, with keys sorted
_GAP_ROW = '{{{0}  "code": "%s",{0}  "hi": "%d/%d",{0}  "lo": "%d/%d",{0}  "side": %d{0}}}'


def _level_rows(gaps, denom: int) -> _Rows:
    def cut(a: int, b: int) -> list:
        return [gaps.codes[a:b], gaps.his[a:b], gaps.los[a:b], gaps.sides[a:b]]

    return _Rows(template=_GAP_ROW, count=len(gaps), denom=denom, cut=cut)


def _family_rows(family) -> dict:
    """A GapFamily's to_json(), with each level's gaps as _Rows on the family's lattice."""
    levels = {str(n): _level_rows(gaps, family.denom) for n, gaps in family.levels}
    return {"k0": family.base, "levels": levels, "root": code_str(family.root)}


def cmd_gaps(args, budget):
    seq = _lambda_spec(_load_input(args.spec))
    base = smallest_valid_base(seq)
    if base > 0:
        raise AssumptionError(f"the gap family under the empty root needs k0 = 0, got k0 = {base}")
    # the root family starts at level 1
    levels = _depth(args, 3, minimum=1)
    family = gap_family(seq, (), levels, budget=budget)
    if args.format == "json":
        _check_digits(family.denom)
        return _family_rows(family), 0
    # the text body prints counts only
    lines = [f"k0: {family.base}"]
    for n, gaps in family.levels:
        lines.append(f"level {n}: {len(gaps)} gaps")
    return "\n".join(lines) + "\n", 0
