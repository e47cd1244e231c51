"""Wire-format rationals: strict p/q parsing, canonical formatting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from cantorval import SpecValidationError, format_rational, parse_rational
from cantorval.rationals import fill_rows


def test_accepts_integer_and_fraction_literals():
    assert parse_rational("7/15") == F(7, 15)
    assert parse_rational("-3") == F(-3)
    assert parse_rational("-2/5") == F(-2, 5)
    assert parse_rational("0") == F(0)


@pytest.mark.parametrize(
    "text",
    [
        "0.5", "1e-3", "1/0", "1/-2", "", "7 / 15", "a/b", None, 5, 0.5,
        pytest.param("1/" + "9" * 4400, id="4400-digits"),
        pytest.param("1/4\n", id="trailing-newline"),
        pytest.param("\u0661/3", id="arabic-indic-digit"),
    ],
)
def test_rejects_everything_else(text):
    with pytest.raises(SpecValidationError):
        parse_rational(text)


@given(st.fractions(max_denominator=10**6))
def test_round_trip_is_identity(value):
    assert parse_rational(format_rational(value)) == value


@given(
    st.lists(st.tuples(st.text("012", max_size=5), st.integers(-(10**6), 10**6), st.integers(0, 1)), max_size=20),
    st.integers(1, 10**4),
)
def test_fill_rows_matches_fraction_strings(rows, denom):
    codes, nums, sides = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    # "/1" may stand anywhere in the template, a whole number's slot before it too
    text = fill_rows("<%s %d/%d/1 %d>", [codes, nums, sides], denom)
    assert text == "".join(f"<{c} {F(n, denom)}/1 {s}>" for c, n, s in rows)
