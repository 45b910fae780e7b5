"""Weight expansions of concave toric domains and their inverses.

The weight expansion is the greedy ball packing of a moment region: the
largest corner triangle conv{(0,0), (c,0), (0,c)} contributing a weight c,
with the two leftover pieces sheared back into concave position and
recursed.  ``realize`` inverts the recursion, gluing triangles back
together so that ``weight_expansion(realize(w)) == w`` exactly.  Both run
in Python integers over one common denominator and return Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import NonterminationError, RealizationLimitError
from .geometry import Ellipsoid, MomentProfile, _kept_vertices
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


def _split(pts: list, c: int, sums: list):
    """Leftover regions after removing the corner triangle of size c from
    the integer profile ``pts``, sheared into concave position and checked
    as profiles, with ``sums`` the x + y of each vertex.  Returns (upper,
    lower) as integer vertex lists, either None.

    c is the least of ``sums``, so the first and the last vertex with
    x + y <= c have x + y == c: the boundary touches the triangle's
    hypotenuse at vertices, never inside a segment.  The upper piece is
    the boundary up to the first touch, sheared by (x, y) -> (x, x + y - c);
    the lower piece runs from the last touch, sheared by
    (x, y) -> (x + y - c, y).  Each touching vertex lands on an axis.
    """
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
) -> tuple[WeightMultiset, ExpansionTrace]:
    """Greedy weight expansion; exact, with a step guard.

    Runs on the profile's vertices scaled to integers over one common
    denominator D: the shears are integer-linear and every touch point is
    a vertex (see ``_split``), so every leftover piece has integer
    vertices over the same D, and each size is returned as Fraction(c, D).
    Uses an explicit work stack; the y-axis leftover is pushed so that it
    is processed first, making the trace deterministic.
    """
    pts, den = profile._scaled
    counts: dict[int, int] = {}
    root = ExpansionTrace(size=Fraction(0))
    stack = [(pts, root, "root")]
    steps = 0
    while stack:
        pts, parent, label = stack.pop()
        steps += 1
        if steps > step_limit:
            raise NonterminationError(
                f"weight expansion exceeded {step_limit} steps; "
                f"residual region {MomentProfile._from_scaled(pts, den)!r}"
            )
        if len(pts) == 2:
            # Triangular residual: the rest of the expansion is the
            # Euclidean-quotient chain, emitted run by run.
            x, y = pts[1][0], pts[0][1]
            while x > 0 and y > 0:
                if y >= x:
                    c, side = x, "upper"
                    q, y = divmod(y, x)
                else:
                    c, side = y, "lower"
                    q, x = divmod(x, y)
                node = ExpansionTrace(size=Fraction(c, den), repeat=q)
                parent.children.append((label, node))
                counts[c] = counts.get(c, 0) + q
                parent, label = node, side
            continue
        # The head weight is the largest c with the triangle of size c
        # inside the region: the minimum of x + y over the boundary
        # polyline, attained at a vertex.
        sums = [x + y for x, y in pts]
        c = min(sums)
        node = ExpansionTrace(size=Fraction(c, den))
        parent.children.append((label, node))
        counts[c] = counts.get(c, 0) + 1
        upper, lower = _split(pts, c, sums)
        if lower is not None:
            stack.append((lower, node, "lower"))
        if upper is not None:
            stack.append((upper, node, "upper"))
    trace = root.children[0][1]
    return WeightMultiset((Fraction(c, den), m) for c, m in counts.items()), trace


def realize(
    w: WeightMultiset, realization_limit: int = DEFAULT_REALIZATION_LIMIT
) -> MomentProfile:
    """A connected concave toric domain whose weight expansion is exactly w.

    Built smallest-weight-first: each step glues the current realization
    into the upper corner of the next triangle via the inverse shear
    (x, y) -> (x, y - x + c).  The gluing runs in integers over the lcm D
    of the weights' denominators, since the shears are integer-linear in
    the weights; each step's vertices are checked as a profile, and one
    ``MomentProfile`` is built from them at the end.
    """
    if len(w) > realization_limit:
        raise RealizationLimitError(
            f"{len(w)} distinct weights exceed the explicit-realization "
            f"limit {realization_limit}; work with the weight multiset directly"
        )
    if not w.entries:
        raise ValueError("cannot realize an empty weight multiset")
    den = lcm(*(weight.denominator for weight, _ in w.entries))
    pts: list = []
    for weight, mult in reversed(w.entries):
        a = weight.numerator * (den // weight.denominator)
        if not pts:
            # A run of m equal weights from scratch is the triangle with
            # legs (a, m*a).
            pts = _checked([(0, mult * a), (a, 0)])
            continue
        # Glue the first copy of the run, then apply the remaining m - 1
        # shears in one step: once the x-extent equals the weight, each
        # further glue is exactly (x, y) -> (x, y - x + a).
        pts = [(x, y - x + a) for x, y in pts]
        if pts[-1][0] < a:
            pts.append((a, 0))
        if mult > 1:
            pts = [(x, y - (mult - 1) * (x - a)) for x, y in pts]
        pts = _checked(pts)
    return MomentProfile._from_scaled(pts, den)
