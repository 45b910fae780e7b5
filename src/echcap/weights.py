"""Weight expansions of concave toric domains and their inverses.

The weight expansion is the greedy ball packing of a moment region: the
largest corner triangle conv{(0,0), (c,0), (0,c)} contributing a weight c,
with the two leftover pieces sheared back into concave position and
recursed.  A run of equal weights is one step: when c is an extent of
the region, taking the triangle shears the whole region, and the step
takes c as many times as those shears leave it the head weight.
``realize`` inverts the recursion, gluing each run of triangles back in
one shear, so that ``weight_expansion(realize(w))[0] == w`` exactly.  Both
run in Python integers over one common denominator, which a profile keeps
for its vertices and a ``WeightMultiset`` for its weights, and return
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonterminationError, RealizationLimitError
from .geometry import Ellipsoid, MomentProfile, _kept_vertices
from .scalars import Scalar, integer_form

DEFAULT_STEP_LIMIT = 10**6
DEFAULT_REALIZATION_LIMIT = 10**4


class WeightMultiset:
    """Run-length-encoded multiset of ball weights, strictly descending,
    with its integer form ``_scaled`` = (weights times D, copies, D), D the
    lcm of the weights' denominators, for the DPs and ``realize``."""

    __slots__ = ("entries", "_scaled")

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
        entries = tuple(sorted(merged.items(), key=lambda e: e[0], reverse=True))
        scaled, den = integer_form([w for w, _ in entries])
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_scaled", (scaled, tuple(m for _, m in entries), den))

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

    def total_area(self) -> Scalar:
        return sum((m * w * w / 2 for w, m in self.entries), Fraction(0))

    def scaled(self, t) -> "WeightMultiset":
        t = Fraction(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return WeightMultiset((w * t, m) for w, m in self.entries)

    def union(self, other: "WeightMultiset") -> "WeightMultiset":
        return WeightMultiset(list(self.entries) + list(other.entries))


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


def _split(pts: list, c: int, sums: list, q: int):
    """Leftover regions after removing the corner triangle of size c, q
    times in a row, from the integer profile ``pts``, sheared into concave
    position and checked as profiles, with ``sums`` the x + y of each
    vertex.  Returns (upper, lower) as integer vertex lists, either None.

    q > 1 only when c is the x-extent or the y-extent.  Then the first
    q - 1 triangles shear the whole region, by (x, y) -> (x, y - (c - x))
    or (x, y) -> (x - (c - y), y), and leave c its least x + y; the last
    one is an ordinary split.

    c is the least of ``sums``, so the first and the last vertex with
    x + y <= c have x + y == c: the boundary touches the triangle's
    hypotenuse at vertices, never inside a segment.  The upper piece is
    the boundary up to the first touch, sheared by (x, y) -> (x, x + y - c);
    the lower piece runs from the last touch, sheared by
    (x, y) -> (x + y - c, y).  Each touching vertex lands on an axis.
    """
    if q > 1:
        if sums[-1] == c:
            pts = [(x, y - (q - 1) * (c - x)) for x, y in pts]
        else:
            pts = [(x - (q - 1) * (c - y), y) for x, y in pts]
        sums = [x + y for x, y in pts]
    first = sums.index(c)
    last = len(sums) - 1 - sums[::-1].index(c)
    upper = lower = None
    if first > 0:
        upper = _checked([(x, s - c) for (x, _), s in zip(pts[: first + 1], sums)])
    if last < len(pts) - 1:
        lower = _checked([(s - c, y) for (_, y), s in zip(pts[last:], sums[last:])])
    return upper, lower


def _checked(pts: list) -> list:
    """The integer points checked as a profile, with collinear interior
    vertices dropped as ``MomentProfile`` drops them."""
    keep = _kept_vertices(pts)
    return pts if len(keep) == len(pts) else [pts[i] for i in keep]


def weight_expansion(
    profile: MomentProfile, step_limit: int = DEFAULT_STEP_LIMIT
) -> tuple[WeightMultiset, int]:
    """Greedy weight expansion; exact, with a step guard.

    Returns the weights and the number of steps taken.  A step takes a
    whole run of equal head weights c = min(x + y).  When c is the
    x-extent, taking the triangle shears the region by
    (x, y) -> (x, y - (c - x)), which leaves vertex i with
    x + y = s_i - (c - x_i), so c is taken q = 1 + min ⌊(s_i - c)/(c - x_i)⌋
    times, over the vertices before the last.  By convexity that minimum
    is at the vertex (x, y) before the last, where it gives
    q = ⌊y/(c - x)⌋.  The same holds with x and y swapped when c is the
    y-extent, and q = 1 otherwise.  On a triangle q is the Euclidean
    quotient.

    Runs on the profile's vertices scaled to integers over one common
    denominator D: the shears are integer-linear and every touch point is
    a vertex (see ``_split``), so every leftover piece has integer
    vertices over the same D, and each size is returned as Fraction(c, D).
    Uses an explicit work stack; the y-axis leftover is pushed so that it
    is processed first.
    """
    pts, den = profile._scaled
    counts: dict[int, int] = {}
    stack = [pts]
    steps = 0
    while stack:
        pts = stack.pop()
        steps += 1
        if steps > step_limit:
            raise NonterminationError(
                f"weight expansion exceeded {step_limit} steps; "
                f"residual region {MomentProfile._from_scaled(pts, den)!r}"
            )
        # The head weight is the largest c with the triangle of size c
        # inside the region: the minimum of x + y over the boundary
        # polyline, attained at a vertex.
        sums = [x + y for x, y in pts]
        c = min(sums)
        if sums[-1] == c:
            x, y = pts[-2]
            q = y // (c - x)
        elif sums[0] == c:
            x, y = pts[1]
            q = x // (c - y)
        else:
            q = 1
        counts[c] = counts.get(c, 0) + q
        upper, lower = _split(pts, c, sums, q)
        if lower is not None:
            stack.append(lower)
        if upper is not None:
            stack.append(upper)
    return WeightMultiset((Fraction(c, den), m) for c, m in counts.items()), steps


def realize(
    w: WeightMultiset, realization_limit: int = DEFAULT_REALIZATION_LIMIT
) -> MomentProfile:
    """A connected concave toric domain whose weight expansion is exactly w.

    Built smallest-weight-first: each run of m copies of a weight a
    glues the current realization into the upper corner of the triangle
    with legs (a, m*a) via the single inverse shear
    (x, y) -> (x, y + m*(a - x)), and closes it off with the vertex (a, 0).
    The gluing runs on the multiset's integer weights over their common
    denominator D, since the shears are integer-linear in the weights.  A
    glue cannot fail the profile check: the shear is affine, so it keeps
    every x and every turn, and the new joint at the old last vertex (b, 0),
    b the previous weight, turns strictly, from the old last slope minus m
    to the slope -m of the new edge to (a, 0), a > b.  So the vertices are
    checked once, at the end, and one ``MomentProfile`` is built from them.
    """
    if len(w) > realization_limit:
        raise RealizationLimitError(
            f"{len(w)} distinct weights exceed the explicit-realization "
            f"limit {realization_limit}; work with the weight multiset directly"
        )
    if not w.entries:
        raise ValueError("cannot realize an empty weight multiset")
    scaled, copies, den = w._scaled
    # Gluing onto the single point (0, 0) gives the first run's triangle.
    pts = [(0, 0)]
    for a, mult in zip(reversed(scaled), reversed(copies)):
        pts = [(x, y + mult * (a - x)) for x, y in pts] + [(a, 0)]
    return MomentProfile._from_scaled(_checked(pts), den)
