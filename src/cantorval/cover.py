"""The covering constructions behind the Cantorval criterion, for library
callers: the two extreme codes that bound each family level and their limits,
the covering witness of a gap outside the family, and the exhaustive check
that each such gap sits inside its witness at exactly the cover offset. No
CLI command runs this module; `cantorval.classify` still resolves its names.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .budget import charge
from .construction import THIRD, RatioSequence
from .diffsets import Code, code_str, diff_interval, scaled_gap, scaled_interval, validate_code
from .errors import AssumptionError
from .gapforest import first_level, gap_family
from .gapmeasure import small_index_series, small_ratio_indices


def extreme_codes(
    seq: RatioSequence, root: Sequence[int], level: int, base: int = 0
) -> tuple[Code, Code]:
    """Leftmost and rightmost bounding codes at the given family level.

    The left code descends through 0-runs broken by single 1 digits at
    small-ratio depths; the right code mirrors it with 2-runs.
    """
    digits = validate_code(root)
    k = len(digits)
    m = first_level(seq, digits, base)
    if level < m:
        raise ValueError(f"level {level} is below the first family level {m}")
    ks = small_ratio_indices(seq, base, level)
    left = list(digits) + [0] * (ks[m - 1] - k - 1)
    right = list(digits) + [2] * (ks[m - 1] - k - 1)
    for l in range(m, level):
        left += [1] + [0] * (ks[l] - ks[l - 1] - 1)
        right += [1] + [2] * (ks[l] - ks[l - 1] - 1)
    return tuple(left), tuple(right)


def extreme_limits(seq: RatioSequence, root: Sequence[int], base: int = 0) -> tuple[Fraction, Fraction]:
    """Limits of the bounding gap endpoints under the root code.

    The right ends of the leftmost bounding gaps increase to the first value;
    the left ends of the rightmost bounding gaps decrease to the second. A
    strictly positive spread between them is what leaves room for a whole
    interval of the limit set inside the root's coded interval.
    """
    digits = validate_code(root)
    m = first_level(seq, digits, base)
    iv = diff_interval(seq, digits)
    spread = small_index_series(seq, base, growth=1, shrink=Fraction(1), start=m)
    return iv.lo + spread, iv.hi - spread


def _witness_digits(digits: Code, side: int, ks: list[int], root_len: int) -> Code:
    """Pure code construction of the covering witness for a non-family gap.

    When the last movable digit of the gap's code falls strictly between two
    small-ratio depths, stepping it toward the gap and padding gives the
    witness. At a small-ratio depth, the witness is the parent gap's, padded,
    so the loop goes on from the parent. Padding puts 1 at the intermediate
    small-ratio depths and the side's extreme digit everywhere else.
    """
    end = len(digits) + 1
    tail: Code = ()
    while True:
        last = end - 1
        while last > 0 and digits[last - 1] == 2 * side:
            last -= 1
        if last <= root_len:
            raise ValueError("gap is a base member of the persistent family; no witness exists")
        filler = 2 - 2 * side
        tail = tuple(1 if j in ks and j < end else filler for j in range(last + 1, end + 1)) + tail
        if last not in ks:
            return digits[: last - 1] + (digits[last - 1] + 2 * side - 1,) + tail
        side, end = digits[last - 1] - 1 + side, last


def cover_witness(
    seq: RatioSequence, code: Sequence[int], side: int, base: int = 0, root: Sequence[int] = ()
) -> Code:
    """Code of the interval that covers a non-family gap with the exact inset."""
    digits = validate_code(code)
    root_digits = validate_code(root)
    if digits[: len(root_digits)] != root_digits:
        raise ValueError("gap code must extend the root code")
    kn = len(digits) + 1
    if seq.ratio_at(kn) >= THIRD:
        raise AssumptionError(
            f"no gap below code {code_str(digits)}: ratio at depth {kn} is not below 1/3"
        )
    # the kn-th small-ratio depth beyond the base is already >= kn
    ks = small_ratio_indices(seq, base, kn)
    if kn not in ks:
        raise AssumptionError(f"depth {kn} is not a small-ratio depth beyond base {base}")
    return _witness_digits(digits, side, ks, len(root_digits))


def cover_alignment(
    seq: RatioSequence,
    level: int,
    base: int = 0,
    root: Sequence[int] = (),
    budget: int | None = None,
) -> tuple[int, list[str]]:
    """Exhaustively check one family level: every gap outside the family must
    sit inside its witness interval at exactly the cover offset.

    Returns (number of gaps checked, failure descriptions).
    """
    digits = validate_code(root)
    # the family is charged before the depths up to its level are listed
    gaps = gap_family(seq, digits, level, base, budget).levels[-1][1]
    members = {(tuple(map(int, code)), side) for code, side in zip(gaps.codes, gaps.sides)}
    ks = small_ratio_indices(seq, base, level + 1)
    kn = ks[level - 1]
    charge(2 * 3 ** (kn - 1 - len(digits)), budget)
    # twice the next level's cover offset, 3 d(k) + d(k - 1), over the table's denominator
    k = ks[level]
    table = seq.depth_table(k)
    twice_offset = 3 * table.ints[k] + table.ints[k - 1]
    # the left end of each code's interval in the walk's order, carried one digit at a time
    lefts = [scaled_interval(table, digits)[0]]
    for w in table.drops[len(digits) : kn - 1]:
        lefts = [x + step for x in lefts for step in (0, w, 2 * w)]

    checked = 0
    failures: list[str] = []
    for tail, left in zip(itertools.product((0, 1, 2), repeat=kn - 1 - len(digits)), lefts):
        code = digits + tail
        for side in (0, 1):
            if (code, side) in members:
                continue
            checked += 1
            witness = _witness_digits(code, side, ks, len(digits))
            w_left, w_right = scaled_interval(table, witness)
            g_left, g_right = scaled_gap(table, left, kn - 1, side)
            aligned = 2 * (g_left - w_left) == twice_offset or 2 * (w_right - g_right) == twice_offset
            if not (aligned and w_left <= g_left and g_right <= w_right):
                failures.append(
                    f"gap code={code_str(code)} side={side} witness={code_str(witness)}"
                )
    return checked, failures
