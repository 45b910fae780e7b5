"""Weight expansions of concave toric domains and their inverses.

The weight expansion is the greedy ball packing of a moment region: the
largest corner triangle conv{(0,0), (c,0), (0,c)} contributing a weight c,
with the two leftover pieces sheared back into concave position and
recursed.  ``realize`` inverts the recursion, gluing triangles back
together so that ``weight_expansion(realize(w)) == w`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonterminationError, RealizationLimitError
from .geometry import Ellipsoid, MomentProfile
from .scalars import Scalar, format_rational, parse_rational

DEFAULT_STEP_LIMIT = 10**6
DEFAULT_REALIZATION_LIMIT = 10**4


class WeightMultiset:
    """Run-length-encoded multiset of ball weights, strictly descending."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Sequence]):
        merged: dict[Fraction, int] = {}
        for w, mult in entries:
            w = Fraction(w)
            mult = int(mult)
            if w <= 0:
                raise ValueError("weights must be positive")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            merged[w] = merged.get(w, 0) + mult
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(merged.items(), key=lambda e: e[0], reverse=True)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("WeightMultiset is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, which copy and pickle would
        # otherwise bypass by setting the slot directly
        return (WeightMultiset, (self.entries,))

    def __eq__(self, other):
        return isinstance(other, WeightMultiset) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join(f"{w} x {m}" for w, m in self.entries)
        return f"WeightMultiset({{{body}}})"

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def total_area(self) -> Scalar:
        return sum((m * w * w / 2 for w, m in self.entries), Fraction(0))

    def scaled(self, t) -> "WeightMultiset":
        t = Fraction(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return WeightMultiset((w * t, m) for w, m in self.entries)

    def union(self, other: "WeightMultiset") -> "WeightMultiset":
        return WeightMultiset(list(self.entries) + list(other.entries))

    def to_dict(self) -> dict:
        # Multiplicities as decimal strings: they exceed 64 bits for
        # quasi-flat instances.
        return {
            "type": "weights",
            "entries": [[format_rational(w), str(m)] for w, m in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightMultiset":
        return cls(
            (parse_rational(w), int(m)) for w, m in data["entries"]
        )


@dataclass
class ExpansionTrace:
    """One greedy step: the corner triangle size and the sheared children.

    ``children`` holds (shear label, subtrace) pairs; the y-axis leftover
    ("upper") is always recursed before the x-axis one ("lower").
    ``repeat`` > 1 records a run of identical steps on triangular residuals
    (the Euclidean-quotient chain), bulked for speed.
    """

    size: Scalar
    children: list = field(default_factory=list)
    repeat: int = 1

    def leaf_sizes(self) -> list:
        out = [self.size] * self.repeat
        for _, child in self.children:
            out.extend(child.leaf_sizes())
        return out

    def depth(self) -> int:
        return 1 + max((child.depth() for _, child in self.children), default=0)


def ellipsoid_weights(e: Ellipsoid) -> WeightMultiset:
    """Weight sequence of E(a, b) by the Euclidean quotient recursion:
    w(a, b) = {a x floor(b/a)} then recurse on (b mod a, a)."""
    entries = []
    a, b = e.a, e.b
    while a > 0:
        q, r = divmod(b, a)
        entries.append((a, int(q)))
        a, b = r, a
    return WeightMultiset(entries)


def _split(profile: MomentProfile, c: Fraction, sums: list):
    """Leftover regions after removing the corner triangle of size c,
    sheared into concave position, with ``sums`` the x + y of each vertex.
    Returns (upper, lower), either None."""
    verts = profile.vertices

    # Upper piece: boundary up to the first point where x + y == c, then
    # the shear (x, y) -> (x, x + y - c) puts it against the axes.
    upper_pts = []
    for i, (x, y) in enumerate(verts):
        if sums[i] > c:
            upper_pts.append((x, sums[i] - c))
        else:
            if i > 0:
                # First touch may be interior to the segment ending here:
                # solve x + f(x) = c on it.
                x1, y1 = verts[i - 1]
                t = (c - sums[i - 1]) / (sums[i] - sums[i - 1])
                upper_pts.append((x1 + t * (x - x1), Fraction(0)))
            break
    upper = MomentProfile(upper_pts) if len(upper_pts) >= 2 else None

    # Lower piece: boundary from the last point with x + y == c, sheared by
    # (x, y) -> (x + y - c, y).
    lower_pts = []
    for i in range(len(verts) - 1, -1, -1):
        x, y = verts[i]
        if sums[i] > c:
            lower_pts.append((sums[i] - c, y))
        else:
            if i < len(verts) - 1:
                y2 = verts[i + 1][1]
                t = (c - sums[i]) / (sums[i + 1] - sums[i])
                lower_pts.append((Fraction(0), y + t * (y2 - y)))
            break
    lower_pts.reverse()
    lower = MomentProfile(lower_pts) if len(lower_pts) >= 2 else None
    return upper, lower


def weight_expansion(
    profile: MomentProfile, step_limit: int = DEFAULT_STEP_LIMIT
) -> tuple[WeightMultiset, ExpansionTrace]:
    """Greedy weight expansion; exact, with a step guard.

    Uses an explicit work stack; the y-axis leftover is pushed so that it is
    processed first, making the trace deterministic.
    """
    entries: list[tuple[Fraction, int]] = []
    root = ExpansionTrace(size=Fraction(0))
    stack = [(profile, root, "root")]
    steps = 0
    while stack:
        region, parent, label = stack.pop()
        steps += 1
        if steps > step_limit:
            raise NonterminationError(
                f"weight expansion exceeded {step_limit} steps; "
                f"residual region {region!r}"
            )
        if len(region.vertices) == 2:
            # Triangular residual: the rest of the expansion is the
            # Euclidean-quotient chain, emitted run by run.
            x, y = region.x_extent, region.y_extent
            while x > 0 and y > 0:
                if y >= x:
                    c, side = x, "upper"
                    q, r = divmod(y, x)
                    x, y = x, r
                else:
                    c, side = y, "lower"
                    q, r = divmod(x, y)
                    x, y = r, y
                node = ExpansionTrace(size=c, repeat=int(q))
                parent.children.append((label, node))
                entries.append((c, int(q)))
                parent, label = node, side
            continue
        # The head weight is the largest c with the triangle of size c
        # inside the region: the minimum of x + y over the boundary
        # polyline, attained at a vertex.
        sums = [x + y for x, y in region.vertices]
        c = min(sums)
        node = ExpansionTrace(size=c)
        parent.children.append((label, node))
        entries.append((c, 1))
        upper, lower = _split(region, c, sums)
        if lower is not None:
            stack.append((lower, node, "lower"))
        if upper is not None:
            stack.append((upper, node, "upper"))
    trace = root.children[0][1]
    return WeightMultiset(entries), trace


def realize(
    w: WeightMultiset, realization_limit: int = DEFAULT_REALIZATION_LIMIT
) -> MomentProfile:
    """A connected concave toric domain whose weight expansion is exactly w.

    Built smallest-weight-first: each step glues the current realization
    into the upper corner of the next triangle via the inverse shear
    (x, y) -> (x, y - x + c).
    """
    if len(w) > realization_limit:
        raise RealizationLimitError(
            f"{len(w)} distinct weights exceed the explicit-realization "
            f"limit {realization_limit}; work with the weight multiset directly"
        )
    profile: MomentProfile | None = None
    for weight, mult in reversed(w.entries):
        if profile is None:
            # A run of m equal weights from scratch is the triangle with
            # legs (a, m*a).
            profile = MomentProfile([(0, mult * weight), (weight, 0)])
            continue
        # Glue the first copy of the run, then apply the remaining m - 1
        # shears in one step: once the x-extent equals the weight, each
        # further glue is exactly (x, y) -> (x, y - x + weight).
        pts = [(x, y - x + weight) for x, y in profile.vertices]
        if pts[-1][0] < weight:
            pts.append((weight, Fraction(0)))
        if mult > 1:
            pts = [(x, y - (mult - 1) * (x - weight)) for x, y in pts]
        profile = MomentProfile(pts)
    assert profile is not None
    return profile
