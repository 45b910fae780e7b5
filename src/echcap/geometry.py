"""Exact moment-plane geometry of concave toric domains.

A concave toric domain is encoded by its moment region: the part of the
first quadrant below a convex, strictly decreasing piecewise-linear function
running from (0, B) on the y-axis to (A, 0) on the x-axis.  Ellipsoids
E(a, b) are the triangles with legs a and b.

Everything here is exact; no floats.  Coordinates come in and go out as
``Fraction`` values, but the work runs in Python integers: a profile
scales its vertices once, by the lcm D of their denominators
(``scalars.integer_form``), and keeps the integer vertices next to the
Fractions.  The profile checks, the radial walk and the inclusion scale
compare integer cross products, and
only the scalar they return is built as a Fraction, once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateRegionError
from .scalars import Scalar, integer_form


@dataclass(frozen=True)
class Ellipsoid:
    """E(a, b), normalized so that a <= b."""

    a: Scalar
    b: Scalar

    def __post_init__(self):
        a = Fraction(self.a)
        b = Fraction(self.b)
        if a <= 0 or b <= 0:
            raise DegenerateRegionError("ellipsoid axes must be positive")
        if a > b:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def ball(cls, a) -> "Ellipsoid":
        return cls(Fraction(a), Fraction(a))

    def profile(self) -> "MomentProfile":
        return MomentProfile([(0, self.b), (self.a, 0)])


def _kept_vertices(pts: Sequence) -> list:
    """Check integer points (x, y) as a profile's vertices and return the
    indices of the vertices to keep.

    Raises ``DegenerateRegionError`` unless the points run from the y-axis
    to the x-axis with x strictly increasing, y strictly decreasing and
    the slopes nondecreasing (a convex profile).  Convexity and
    collinearity both come from one cross product per vertex triple: with
    (dx1, dy1) and (dx2, dy2) the edges into and out of a vertex, its
    slopes satisfy dy1/dx1 <= dy2/dx2 exactly when dx1*dy2 - dy1*dx2 >= 0,
    since every dx is positive, and the vertex is collinear with its
    neighbours, and dropped, when the product is 0.
    """
    n = len(pts)
    if n < 2:
        raise DegenerateRegionError("profile needs at least two vertices")
    if pts[0][0] != 0:
        raise DegenerateRegionError("first vertex must lie on the y-axis")
    if pts[-1][1] != 0:
        raise DegenerateRegionError("last vertex must lie on the x-axis")
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x2 <= x1:
            raise DegenerateRegionError("x-coordinates must strictly increase")
        if y2 >= y1:
            raise DegenerateRegionError("y-coordinates must strictly decrease")
    if pts[0][1] <= 0 or pts[-1][0] <= 0:
        raise DegenerateRegionError("region has zero area")
    keep = [0]
    for i in range(1, n - 1):
        (x0, y0), (x1, y1), (x2, y2) = pts[i - 1], pts[i], pts[i + 1]
        turn = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        if turn < 0:
            raise DegenerateRegionError(
                "profile is not convex: slopes must be nondecreasing"
            )
        if turn:
            keep.append(i)
    keep.append(n - 1)
    return keep


class MomentProfile:
    """Piecewise-linear convex boundary profile in the moment plane.

    Vertices are normalized on construction: exact rationals, collinear
    interior vertices removed.  Construction rejects anything that is not a
    strictly decreasing convex profile from the y-axis to the x-axis.
    The profile also keeps its vertices scaled to integers over one common
    denominator, for the integer arithmetic of this module and of the
    weight expansion.
    """

    __slots__ = ("vertices", "_scaled")

    def __init__(self, vertices: Iterable[Sequence]):
        pts = [
            (
                x if type(x) is Fraction else Fraction(x),
                y if type(y) is Fraction else Fraction(y),
            )
            for x, y in vertices
        ]
        coords, den = integer_form([c for p in pts for c in p])
        ints = list(zip(coords[::2], coords[1::2]))
        keep = _kept_vertices(ints)
        object.__setattr__(self, "vertices", tuple(pts[i] for i in keep))
        object.__setattr__(self, "_scaled", (tuple(ints[i] for i in keep), den))

    @classmethod
    def _from_scaled(cls, pts: Sequence, den: int) -> "MomentProfile":
        """The profile with vertices pts / den, for integer points that
        ``_kept_vertices`` has checked and that keep all their vertices."""
        self = object.__new__(cls)
        object.__setattr__(
            self, "vertices", tuple((Fraction(x, den), Fraction(y, den)) for x, y in pts)
        )
        object.__setattr__(self, "_scaled", (tuple(pts), den))
        return self

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("MomentProfile is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, as for WeightMultiset
        return (MomentProfile, (self.vertices,))

    def __eq__(self, other):
        return isinstance(other, MomentProfile) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self.vertices)
        return f"MomentProfile([{pts}])"

    @property
    def x_extent(self) -> Scalar:
        return self.vertices[-1][0]

    @property
    def y_extent(self) -> Scalar:
        return self.vertices[0][1]


Region = Union[MomentProfile, Ellipsoid]


def as_profile(region: Region) -> MomentProfile:
    if isinstance(region, Ellipsoid):
        return region.profile()
    return region


def area(region: Region) -> Scalar:
    """Exact area of the moment region (the symplectic volume of the domain)."""
    if isinstance(region, Ellipsoid):
        return region.a * region.b / 2
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(region.vertices, region.vertices[1:]):
        total += (x2 - x1) * (y1 + y2) / 2
    return total


def scale(region: Region, t) -> Region:
    """Multiply all moment-plane coordinates by t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    if isinstance(region, Ellipsoid):
        return Ellipsoid(region.a * t, region.b * t)
    return MomentProfile([(x * t, y * t) for x, y in region.vertices])


def _radials(pts: Sequence, directions: Sequence) -> list:
    """The radial of the integer profile ``pts`` along each u of
    ``directions``, as a pair (n, d) of positive integers with radial
    n / d.  The directions are nonzero integer first-quadrant vectors
    sorted by decreasing angle (from the y-axis toward the x-axis, as a
    profile's vertices are).

    The boundary's segments are sorted the same way, so one pointer walks
    forward over them: it passes segment i once the ray lies clockwise of
    the segment's far end, and the ray meets the segment it stops at.  The
    crossing is the line of that segment cut with the ray, so a whole list
    costs O(V + len(directions)).
    """
    last = len(pts) - 2  # index of the final segment
    i = 0
    out = []
    for ux, uy in directions:
        if uy == 0:
            out.append((pts[-1][0], ux))
            continue
        if ux == 0:
            out.append((pts[0][1], uy))
            continue
        while i < last and ux * pts[i + 1][1] > uy * pts[i + 1][0]:
            i += 1
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        dx, dy = x2 - x1, y1 - y2  # both positive
        out.append((dy * x1 + dx * y1, dy * ux + dx * uy))
    return out


def _largest_ratio(pairs: list) -> tuple:
    """The pair (n, d) of ``pairs`` with the largest n / d (all d > 0)."""
    n, d = pairs[0]
    for a, b in pairs[1:]:
        if a * d > n * b:
            n, d = a, b
    return n, d


def radial(region: Region, direction: Sequence) -> Scalar:
    """Largest t with t * direction inside the region (direction in the
    closed first quadrant, not the origin)."""
    ux, uy = Fraction(direction[0]), Fraction(direction[1])
    if ux < 0 or uy < 0 or (ux == 0 and uy == 0):
        raise ValueError("direction must be a nonzero first-quadrant vector")
    pts, den = as_profile(region)._scaled
    u, du = integer_form((ux, uy))
    # scaling the profile by den and the direction by du scales the radial
    # by den / du
    n, d = _radials(pts, [u])[0]
    return Fraction(n * du, d * den)


def inclusion_scale(inner: Region, outer: Region) -> Scalar:
    """Minimal T with inner a subset of T * outer.

    For piecewise-linear star-shaped regions the supremum of the radial
    ratio radial(inner, u) / radial(outer, u) is attained at a vertex
    direction of one of the two profiles.  At a profile's own vertex its
    radial is exactly 1, so T is the larger of the inner radials at the
    outer vertices and the reciprocal of the least outer radial at the
    inner vertices.  Each list comes from one forward walk over the other
    profile's integer segments (``_radials``), since both vertex lists run
    by decreasing angle.  With p and q scaled by dp and dq, both
    candidates carry the factor dq / dp, so they compare by
    cross-multiplication and T is built as a Fraction once.
    """
    p, dp = as_profile(inner)._scaled
    q, dq = as_profile(outer)._scaled
    n1, d1 = _largest_ratio(_radials(p, q))
    n2, d2 = _largest_ratio([(d, n) for n, d in _radials(q, p)])
    if n2 * d1 > n1 * d2:
        n1, d1 = n2, d2
    return Fraction(n1 * dq, d1 * dp)
