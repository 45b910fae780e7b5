from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from echcap.scalars import (
    exact_sqrt,
    format_rational,
    half_integer_power,
    is_integral,
    parse_rational,
)


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(3)) == "3/1"


@given(st.fractions(min_value=-1000, max_value=1000))
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_is_integral():
    assert is_integral(Fraction(4))
    assert not is_integral(Fraction(1, 2))


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


@given(st.fractions(min_value=0, max_value=100))
def test_exact_sqrt_consistent(q):
    root = exact_sqrt(q)
    if root is not None:
        assert root * root == q


def test_half_integer_power():
    # B^(-i/2) for the quasi-flat weights
    assert half_integer_power(Fraction(64), -1) == Fraction(1, 8)
    assert half_integer_power(Fraction(4096), -2) == Fraction(1, 4096)
    assert half_integer_power(Fraction(9), 3) == 27
    assert half_integer_power(Fraction(2), -1) is None  # sqrt(2) irrational
    assert half_integer_power(Fraction(2), -2) == Fraction(1, 2)
