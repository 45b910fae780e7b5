"""Exact moment-plane geometry of concave toric domains.

A concave toric domain is encoded by its moment region: the part of the
first quadrant below a convex, strictly decreasing piecewise-linear function
running from (0, B) on the y-axis to (A, 0) on the x-axis.  Ellipsoids
E(a, b) are the triangles with legs a and b.  Everything here is exact
rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateRegionError
from .scalars import Scalar, format_rational, parse_rational


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

    def to_dict(self) -> dict:
        return {
            "type": "ellipsoid",
            "a": format_rational(self.a),
            "b": format_rational(self.b),
        }


class MomentProfile:
    """Piecewise-linear convex boundary profile in the moment plane.

    Vertices are normalized on construction: exact rationals, collinear
    interior vertices removed.  Construction rejects anything that is not a
    strictly decreasing convex profile from the y-axis to the x-axis.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Sequence]):
        pts = [
            (
                x if type(x) is Fraction else Fraction(x),
                y if type(y) is Fraction else Fraction(y),
            )
            for x, y in vertices
        ]
        if len(pts) < 2:
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
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])
        ]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 < s1:
                raise DegenerateRegionError(
                    "profile is not convex: slopes must be nondecreasing"
                )
        # Drop collinear interior vertices for a canonical form: a vertex is
        # collinear with its kept neighbours exactly when the slopes on its
        # two sides agree.
        cleaned = [pts[0]]
        cleaned.extend(p for p, s1, s2 in zip(pts[1:], slopes, slopes[1:]) if s1 != s2)
        cleaned.append(pts[-1])
        object.__setattr__(self, "vertices", tuple(cleaned))

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

    def to_dict(self) -> dict:
        return {
            "type": "profile",
            "vertices": [
                [format_rational(x), format_rational(y)] for x, y in self.vertices
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MomentProfile":
        return cls(
            [(parse_rational(x), parse_rational(y)) for x, y in data["vertices"]]
        )


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


def _radials(profile: MomentProfile, directions: Sequence) -> list:
    """radial(profile, u) for each u of ``directions``, which must be
    nonzero first-quadrant vectors sorted by decreasing angle (from the
    y-axis toward the x-axis, as a profile's vertices are).

    The boundary's segments are sorted the same way, so one pointer walks
    forward over them: it passes segment i once the ray lies clockwise of
    the segment's far end, and the ray meets the segment it stops at.  The
    crossing is the line of that segment cut with the ray, in exact
    arithmetic, so a whole list costs O(V + len(directions)).
    """
    pts = profile.vertices
    last = len(pts) - 2  # index of the final segment
    i = 0
    out = []
    for ux, uy in directions:
        if uy == 0:
            out.append(profile.x_extent / ux)
            continue
        if ux == 0:
            out.append(profile.y_extent / uy)
            continue
        while i < last and ux * pts[i + 1][1] > uy * pts[i + 1][0]:
            i += 1
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        c = (y2 - y1) * x1 - (x2 - x1) * y1
        out.append(c / ((y2 - y1) * ux - (x2 - x1) * uy))
    return out


def radial(region: Region, direction: Sequence) -> Scalar:
    """Largest t with t * direction inside the region (direction in the
    closed first quadrant, not the origin)."""
    ux, uy = Fraction(direction[0]), Fraction(direction[1])
    if ux < 0 or uy < 0 or (ux == 0 and uy == 0):
        raise ValueError("direction must be a nonzero first-quadrant vector")
    return _radials(as_profile(region), [(ux, uy)])[0]


def inclusion_scale(inner: Region, outer: Region) -> Scalar:
    """Minimal T with inner a subset of T * outer.

    For piecewise-linear star-shaped regions the supremum of the radial
    ratio radial(inner, u) / radial(outer, u) is attained at a vertex
    direction of one of the two profiles.  At a profile's own vertex its
    radial is exactly 1, so T is the larger of the inner radials at the
    outer vertices and the reciprocal of the least outer radial at the
    inner vertices.  Each list comes from one forward walk over the other
    profile's segments (``_radials``), since both vertex lists run by
    decreasing angle.
    """
    p = as_profile(inner)
    q = as_profile(outer)
    return max(max(_radials(p, q.vertices)), 1 / min(_radials(q, p.vertices)))
