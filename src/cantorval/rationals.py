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

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SpecValidationError(
            f"not a rational literal: {text!r} (expected 'p/q' or an integer)"
        )
    return Fraction(text)


def parse_rational_list(label: str, values) -> list[Fraction]:
    if not isinstance(values, list):
        raise SpecValidationError(f"{label} must be a list of rationals, got {values!r}")
    return [parse_rational(x) for x in values]


def format_rational(value: Fraction) -> str:
    return str(value)


def format_scaled(numerators: list[int], denom: int) -> list[str]:
    """format_rational(Fraction(x, denom)) for each numerator x, without building
    the Fractions: the gcds and divisions are mapped in C and every string is cut
    from one %-format."""
    gs = list(map(gcd, numerators, repeat(denom)))
    terms = [0] * (2 * len(gs))
    terms[0::2] = map(floordiv, numerators, gs)
    terms[1::2] = map(floordiv, repeat(denom), gs)
    # only a whole number reduces to denominator 1, and "/1," occurs nowhere else
    return ("%d/%d," * len(gs) % tuple(terms)).replace("/1,", ",").split(",")[:-1]


def to_lattice(values: list[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator, which is 1 for
    no values: the inverse of format_scaled."""
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom
