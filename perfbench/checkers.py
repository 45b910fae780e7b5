"""Independent reference computations for the benchmark's output checks.

Nothing here imports echcap: each function recomputes a quantity from its
definition, so that a wrong engine cannot be confirmed by itself.

* ``two_class_capacity``: c_k of a multiset with one or two weight classes.
  For one class of n equal balls the best use of a budget is closed form
  (spend it on the cheapest units first); the other class is enumerated.
* ``lattice_values`` / ``lattice_value``: the sorted values {m a + n b : m, n >= 0} of an
  ellipsoid E(a, b), listed directly.
* ``shoelace_area``: area of a moment region from its boundary vertices.
* ``witness_cost`` / ``witness_value``: budget and value of a normal-form
  witness, from (weight, copies, level, promoted) alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def unit_cost(copies: int, units: int) -> int:
    """Cheapest budget for ``units`` capacity units spread over ``copies``
    equal balls: each ball at level d costs d^2 + d, so the units go evenly,
    base level d = units // copies and r = units % copies balls one higher."""
    d, r = divmod(units, copies)
    return copies * (d * d + d) + 2 * r * (d + 1)


def max_units(copies: int, budget: int) -> int:
    """Largest number of units ``copies`` equal balls hold within ``budget``."""
    d = (math.isqrt(4 * (budget // copies) + 1) - 1) // 2  # max d: d^2 + d <= budget // copies
    r = min(copies - 1, (budget - copies * (d * d + d)) // (2 * (d + 1)))
    return copies * d + r


def two_class_capacity(classes, k: int) -> Fraction:
    """Exact c_k of the ball union described by ``classes``, a list of one
    or two (weight, copies) pairs: max sum d_j w_j over per-ball levels d_j
    with sum (d_j^2 + d_j) <= 2k."""
    if not 1 <= len(classes) <= 2:
        raise ValueError("two_class_capacity takes one or two weight classes")
    budget = 2 * k
    den = math.lcm(*(Fraction(w).denominator for w, _ in classes))
    scaled = [(int(Fraction(w) * den), int(n)) for w, n in classes]
    if len(scaled) == 1:
        s, n = scaled[0]
        return Fraction(max_units(n, budget) * s, den)
    # Enumerate the class that can hold fewer units; the other is closed form.
    (s1, n1), (s2, n2) = sorted(scaled, key=lambda c: max_units(c[1], budget))
    best = 0
    for u1 in range(max_units(n1, budget) + 1):
        value = u1 * s1 + max_units(n2, budget - unit_cost(n1, u1)) * s2
        if value > best:
            best = value
    return Fraction(best, den)


def quasiflat_classes(B, scale=1):
    """(weight, copies) classes of the parameter vector ``B``: B_i^(i+1)
    balls of size B_i^(-i/2), times ``scale``.  Odd i needs B_i a perfect
    square; the benchmark only uses such vectors."""
    classes = []
    for i, b in enumerate(B, start=1):
        b = int(b)
        root = math.isqrt(b)
        if i % 2 and root * root != b:
            raise ValueError(f"B_{i} = {b} is not a perfect square")
        size = Fraction(1, root**i) if i % 2 else Fraction(1, b ** (i // 2))
        classes.append((size * scale, b ** (i + 1)))
    return classes


def _lattice(a, b, count: int):
    """At least ``count`` of the smallest values of {m a + n b : m, n >= 0},
    unsorted, as integers over the common denominator, and that denominator."""
    a, b = Fraction(a), Fraction(b)
    den = math.lcm(a.denominator, b.denominator)
    av, bv = int(a * den), int(b * den)
    # The triangle m av + n bv <= t has area t^2 / (2 av bv) and holds at
    # least that many lattice points, so this t lists at least ``count``.
    t = math.isqrt(2 * av * bv * count) + 1
    parts = [
        np.arange(n * bv, t + 1, av, dtype=np.int64) for n in range(t // bv + 1)
    ]
    values = np.concatenate(parts)
    if len(values) < count:
        raise AssertionError("lattice listing came up short")
    return values, den


def lattice_values(a, b, count: int) -> list:
    """The ``count`` smallest values of {m a + n b : m, n >= 0}, with
    multiplicity, in increasing order, as Fractions."""
    values, den = _lattice(a, b, count)
    return [Fraction(int(v), den) for v in np.sort(values)[:count]]


def lattice_value(a, b, k: int) -> Fraction:
    """The (k+1)-st smallest value of {m a + n b}, with multiplicity."""
    values, den = _lattice(a, b, k + 1)
    return Fraction(int(np.partition(values, k)[k]), den)


def shoelace_area(vertices) -> Fraction:
    """Area of the region under a boundary polyline that runs from the
    y-axis to the x-axis, closed through the origin."""
    pts = [(Fraction(0), Fraction(0))] + [(Fraction(x), Fraction(y)) for x, y in vertices]
    twice = sum(
        x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])
    )
    return abs(twice) / 2


def multiset_area(classes) -> Fraction:
    """Volume of a ball union: sum m w^2 / 2."""
    return sum((Fraction(m) * Fraction(w) ** 2 / 2 for w, m in classes), Fraction(0))


def witness_cost(assignments) -> int:
    """Budget of normal-form class assignments (copies n, level d,
    promoted r): sum n (d^2 + d) + 2 r (d + 1)."""
    return sum(
        n * (d * d + d) + 2 * r * (d + 1) for _, n, d, r in assignments
    )


def witness_value(assignments) -> Fraction:
    """Value of normal-form class assignments: sum (n d + r) w."""
    return sum(
        ((n * d + r) * Fraction(w) for w, n, d, r in assignments), Fraction(0)
    )
