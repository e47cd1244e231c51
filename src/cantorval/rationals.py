"""Exact rationals in the "p/q" wire format.

Only integer and p/q literals are accepted; decimal and float notation is
rejected so that no inexact value can enter through a spec file.
"""

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv

from .errors import SpecValidationError

# ASCII digits only, and nothing after the literal, not even a newline
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")
# the slots of a fill_rows template, each %d/%d as one
_SLOT_RE = re.compile(r"%d/%d|%[ds]")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SpecValidationError(
            f"not a rational literal: {text!r} (expected 'p/q' or an integer)"
        )
    try:
        return Fraction(text)
    except ValueError:  # an integer past the interpreter's limit on decimal digits
        raise SpecValidationError(f"rational literal of {len(text)} characters has too many digits") from None


def parse_rational_list(label: str, values) -> list[Fraction]:
    if not isinstance(values, list):
        raise SpecValidationError(f"{label} must be a list of rationals, got {values!r}")
    return [parse_rational(x) for x in values]


def format_rational(value: Fraction) -> str:
    return str(value)


def fill_rows(row: str, columns: list, denom: int) -> str:
    """`row` once per entry of the columns, filled by one %-format: its %s, %d
    and %d/%d slots take the columns in order, and a %d/%d slot writes its
    column's integers over denom as reduced rationals, each gcd and division
    mapped in C: the reduced numerator, then "/q", or nothing for a whole
    number, a suffix made once per distinct gcd."""
    count = len(columns[0])
    slots = _SLOT_RE.findall(row)
    width = len(slots) + slots.count("%d/%d")
    terms = [0] * (width * count)
    k = 0
    for slot, column in zip(slots, columns):
        if slot == "%d/%d":
            gs = list(map(gcd, column, repeat(denom)))
            terms[k::width] = map(floordiv, column, gs)
            suffixes = {g: "" if g == denom else f"/{denom // g}" for g in set(gs)}
            terms[k + 1 :: width] = map(suffixes.__getitem__, gs)
            k += 2
        else:
            terms[k::width] = column
            k += 1
    return row.replace("%d/%d", "%d%s") * count % tuple(terms)


def format_scaled(numerators: list[int], denom: int) -> list[str]:
    """format_rational(Fraction(x, denom)) for each numerator x, without building
    the Fractions."""
    return fill_rows("%d/%d,", [numerators], denom).split(",")[:-1]


def to_lattice(values: list[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator, which is 1 for
    no values: the inverse of format_scaled."""
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom
