"""Exact rational scalars and the "p/q" wire format.

All coordinates, weights and capacities in the exact engines are
``fractions.Fraction`` values; this module only adds the serialization and
the handful of root/power helpers the rest of the package needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Scalar = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer string "p") into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form; integers are written "p/1"."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def is_integral(value: Fraction) -> bool:
    return Fraction(value).denominator == 1


def exact_sqrt(value: Fraction) -> Fraction | None:
    """The exact square root of ``value`` if it is rational, else None."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    value = Fraction(value)
    rn = isqrt(value.numerator)
    rd = isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def half_integer_power(base: Fraction, half_steps: int) -> Fraction | None:
    """``base ** (half_steps / 2)`` when rational, else None.

    ``half_steps`` may be negative.  Used for the quasi-flat weights
    ``a_i = B_i ** (-i/2)``, which are rational iff ``sqrt(B_i)`` is rational
    whenever ``i`` is odd.
    """
    base = Fraction(base)
    if base <= 0:
        raise ValueError("power base must be positive")
    negative = half_steps < 0
    half_steps = abs(half_steps)
    whole, rem = divmod(half_steps, 2)
    result = base**whole
    if rem:
        root = exact_sqrt(base)
        if root is None:
            return None
        result *= root
    return 1 / result if negative else result
