"""Exact rational scalars and the "p/q" wire format.

All coordinates, weights and capacities in the exact engines are
``fractions.Fraction`` values; this module only adds the serialization, the
handful of root/power helpers the rest of the package needs, and the way
to integers over one common denominator and back.  ``integer_form`` is the
package's one lcm of denominators.  ``fractions_over`` builds the DP
sweep's c_k list: it reduces every value against the common denominator
in numpy and then fills the two slots of each ``Fraction`` directly, as
CPython's own ``Fraction._from_coprime_ints`` (3.12+) does:
``Fraction(v, den)`` spends most of its time on a per-call gcd and
argument checks that a reduced, positive pair does not need.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm

import numpy as np

Scalar = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer string "p") into a Fraction; anything
    else, q = 0 included, raises ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string \"p/q\", got {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def integer_form(values) -> tuple:
    """(ints, D): the sequence of Fractions ``values`` times D, the lcm of
    their denominators, as a tuple of integers; D = 1 when it is empty."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


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


def fractions_over(values: np.ndarray, den: int) -> list:
    """A fresh list equal to ``[Fraction(int(v), den) for v in values]``,
    for a 1-D integer array ``values`` (int32, int64 or object dtype) and an
    integer ``den`` >= 1.

    The gcds and quotients run in numpy, in int64 when ``den`` is below
    2^62 (the DP's own int64 bound) and on Python integers (object dtype)
    otherwise, since numpy refuses a Python integer wider than the array's
    dtype.  With ``den`` = 1 there is nothing to reduce.  Each pair is coprime
    with a positive denominator, so the objects are made by
    ``object.__new__`` and their ``_numerator`` and ``_denominator`` slots
    set in C-level ``map`` passes, with no Python code per element.
    """
    if den == 1:
        nums = values.tolist()
        dens = repeat(1)
    else:
        if values.dtype != object:
            values = values.astype(np.int64 if den < 2**62 else object, copy=False)
        g = np.gcd(values, den)
        nums = (values // g).tolist()
        dens = (den // g).tolist()
    out = list(map(object.__new__, repeat(Fraction, len(values))))
    deque(map(setattr, out, repeat("_numerator"), nums), maxlen=0)
    deque(map(setattr, out, repeat("_denominator"), dens), maxlen=0)
    return out
