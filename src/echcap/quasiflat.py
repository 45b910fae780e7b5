"""Parameter vectors, the weight-level quasi-flat construction, and the
change-of-variables pipeline from (R^n, sup-norm) into admissible parameters.

A parameter vector (B_1, ..., B_N) encodes the union of ellipsoids
E(B_i^{-i/2}, B_i^{1+i/2}); its weight multiset has B_i^{i+1} copies of
B_i^{-i/2}.  The chart maps R^n into admissible vectors in three stages:
a folding map into the positive cone, an invertible integer linear map, and
coordinatewise exponentiation (an isometry onto the log metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import DimensionMismatchError, RepresentabilityError
from .geometry import MomentProfile
from .scalars import Scalar, half_integer_power, integer_form, is_integral
from .weights import WeightMultiset, realize

DEFAULT_THRESHOLD = Fraction(64)
DEFAULT_PRECISION = 200  # bits


@dataclass(frozen=True)
class AdmissibilityRecord:
    """Which admissibility constraints a parameter vector satisfies."""

    threshold: Scalar
    above_threshold: tuple  # B_k >= threshold, per index
    growth: tuple  # B_k^2 <= B_{k+1}, per consecutive pair
    integral_powers: tuple  # B_k^{k+1} integral, per index
    exact_mode: tuple  # a_k = B_k^{-k/2} rational, per index

    @property
    def admissible(self) -> bool:
        return all(self.above_threshold) and all(self.growth) and all(
            self.integral_powers
        )

    @property
    def exact_representable(self) -> bool:
        return all(self.exact_mode) and all(self.integral_powers)


@dataclass(frozen=True)
class ParameterVector:
    B: tuple

    def __init__(self, B: Sequence):
        values = tuple(Fraction(b) for b in B)
        if not values:
            raise ValueError("parameter vector needs at least one entry")
        if any(b <= 0 for b in values):
            raise ValueError("parameters must be positive")
        object.__setattr__(self, "B", values)

    def __len__(self):
        return len(self.B)

    def __iter__(self):
        return iter(self.B)


def validate_parameters(
    v: ParameterVector, threshold=DEFAULT_THRESHOLD
) -> AdmissibilityRecord:
    """Reporting operation: never raises on inadmissible input."""
    threshold = Fraction(threshold)
    B = v.B
    return AdmissibilityRecord(
        threshold=threshold,
        above_threshold=tuple(b >= threshold for b in B),
        growth=tuple(B[i] ** 2 <= B[i + 1] for i in range(len(B) - 1)),
        integral_powers=tuple(
            is_integral(B[i] ** (i + 2)) for i in range(len(B))
        ),
        exact_mode=tuple(
            half_integer_power(B[i], -(i + 1)) is not None for i in range(len(B))
        ),
    )


def build_weights(v: ParameterVector) -> WeightMultiset:
    """Weight multiset of the ellipsoid union: B_i^{i+1} copies of
    B_i^{-i/2} for i = 1..N."""
    entries = []
    for index, b in enumerate(v.B, start=1):
        a = half_integer_power(b, -index)
        if a is None:
            raise RepresentabilityError(
                f"a_{index} = B_{index}^(-{index}/2) is irrational "
                f"(B_{index} = {b}); exact mode needs a rational square root"
            )
        mult = b ** (index + 1)
        if not is_integral(mult):
            raise RepresentabilityError(
                f"multiplicity B_{index}^{index + 1} = {mult} is not an integer"
            )
        entries.append((a, int(mult)))
    return WeightMultiset(entries)


def build_domain(v: ParameterVector) -> MomentProfile:
    """Explicit concave realization of the quasi-flat weights (desk scale)."""
    return realize(build_weights(v))


# ---------------------------------------------------------------------------
# Change of variables
# ---------------------------------------------------------------------------


def _linear_coefficient(row: int, col: int, dim: int) -> int:
    """Matrix entry of the doubling map, 1-indexed, acting on (x_1..x_dim).

    Row 1 is all ones; row i+1 has coefficient 2^i + 2^{i-1-j} on x_{dim-j}
    for j < i and 2^i on the remaining coordinates.
    """
    if row == 1:
        return 1
    i = row - 1
    j = dim - col
    if j < i:
        return 2**i + 2 ** (i - 1 - j)
    return 2**i


def map_linear(x: Sequence) -> tuple:
    """The invertible doubling map on Q_{2n}; exact on rational input.

    On inputs with all coordinates >= 3 the image satisfies
    y_{i+1} >= 2 y_i >= 12.  The point is scaled to integers by the lcm of
    its denominators, so each row is an integer sum with one division."""
    xs = [Fraction(v) for v in x]
    dim = len(xs)
    if dim == 0 or dim % 2:
        raise DimensionMismatchError("input dimension must be a positive even number")
    if any(v <= 0 for v in xs):
        raise ValueError("coordinates must be positive")
    ints, den = integer_form(xs)
    return tuple(
        Fraction(
            sum(_linear_coefficient(row, col, dim) * ints[col - 1] for col in range(1, dim + 1)),
            den,
        )
        for row in range(1, dim + 1)
    )


def map_linear_inverse(y: Sequence) -> tuple:
    """Inverse of map_linear: x_{2n-j} = y_{j+2} - 2 y_{j+1}, then x_1 from
    the first row.  Raises when the point is outside the image cone."""
    ys = [Fraction(v) for v in y]
    dim = len(ys)
    if dim == 0 or dim % 2:
        raise DimensionMismatchError("input dimension must be a positive even number")
    xs = [Fraction(0)] * dim
    for j in range(dim - 1):
        xs[dim - 1 - j] = ys[j + 1] - 2 * ys[j]
    xs[0] = ys[0] - sum(xs[1:])
    if any(v <= 0 for v in xs):
        raise ValueError("point lies outside the image cone (nonpositive coordinate)")
    return tuple(xs)


def fold(x: Sequence) -> tuple:
    """R^n -> Q_{2n}: x_i maps to (3 + max(x_i, 0), 3 + max(-x_i, 0))."""
    out = []
    for v in x:
        v = Fraction(v)
        out.append(3 + max(v, Fraction(0)))
        out.append(3 + max(-v, Fraction(0)))
    return tuple(out)


def q_metric(x: Sequence, y: Sequence, precision: int = DEFAULT_PRECISION):
    """max |ln(x_i / y_i)| on positive vectors, at the given binary precision."""
    _check_precision(precision)
    if len(x) != len(y):
        raise DimensionMismatchError(
            f"dimension mismatch: {len(x)} vs {len(y)}"
        )
    with mpmath.workprec(precision):
        best = mpmath.mpf(0)
        for xi, yi in zip(x, y):
            ratio = _to_mpf(xi) / _to_mpf(yi)
            if ratio <= 0:
                raise ValueError("coordinates must be positive")
            best = max(best, abs(mpmath.log(ratio)))
        return best


def _check_precision(precision: int):
    if precision < 1:
        raise ValueError(f"precision must be >= 1 bit, got {precision}")


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


@dataclass(frozen=True)
class ChartPoint:
    """Result of the three-stage chart at one point of R^n."""

    x: tuple
    folded: tuple  # exact, in Q_2n
    y: tuple  # exact image of the linear stage
    B: tuple  # parameter coordinates: Fractions (exact snap) or mpf
    snap_errors: tuple  # per coordinate, metric distance moved by snapping
    snapped: bool

    def parameters(self) -> ParameterVector:
        return ParameterVector(self.B)


def chart_embed(
    x: Sequence, snap: str = "exact", precision: int = DEFAULT_PRECISION
) -> ChartPoint:
    """Fold, apply the doubling map, exponentiate; in "exact" snap mode each
    e^{y_j} is rounded to the nearest admissible parameter (a perfect
    square, so B^{j+1} is integral and every weight is rational).

    The work runs at ``precision`` bits, and at least 64 bits past the
    integer part of the largest |y_j|.  The snap error 2 ln m - y_j is the
    difference of two numbers of about that size, so this keeps 64 bits of
    it; at 1 bit both the root and the error round, and the error reads 0."""
    _check_precision(precision)
    if snap not in ("exact", "approx"):
        raise ValueError(f"unknown snap mode {snap!r}")
    folded = fold(x)
    y = map_linear(folded)
    floor_bits = math.ceil(max(abs(v) for v in y)).bit_length() + 64
    with mpmath.workprec(max(precision, floor_bits)):
        b = []
        errors = []
        for yj in y:
            yv = _to_mpf(yj)
            if snap == "exact":
                m = max(1, int(mpmath.nint(mpmath.exp(yv / 2))))
                b.append(Fraction(m * m))
                errors.append(abs(2 * mpmath.log(m) - yv))
            else:
                b.append(mpmath.exp(yv))
                errors.append(mpmath.mpf(0))
        return ChartPoint(
            x=tuple(Fraction(v) for v in x),
            folded=folded,
            y=y,
            B=tuple(b),
            snap_errors=tuple(errors),
            snapped=(snap == "exact"),
        )
