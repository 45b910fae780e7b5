import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from echcap.errors import DegenerateRegionError
from echcap.geometry import (
    Ellipsoid,
    MomentProfile,
    area,
    as_profile,
    inclusion_scale,
    radial,
    scale,
)
from echcap.weights import WeightMultiset, realize
from test_fraction_reference import ref_radial

positive = st.fractions(min_value=Fraction(1, 20), max_value=20)


def random_profile(draw):
    """A strictly decreasing convex profile with 2-5 vertices."""
    n = draw(st.integers(min_value=2, max_value=5))
    xs = sorted(draw(st.lists(positive, min_size=n, max_size=n, unique=True)))
    # convex decreasing: pick increasing (less negative) slopes
    slopes = sorted(
        draw(st.lists(positive, min_size=n - 1, max_size=n - 1, unique=True))
    )
    pts = [(Fraction(0), Fraction(0))]
    for i in range(n - 1):
        dx = xs[i + 1] - xs[i]
        pts.append((pts[-1][0] + dx, pts[-1][1] - slopes[n - 2 - i] * dx))
    lift = -pts[-1][1]
    return MomentProfile([(x, y + lift) for x, y in pts])


def test_ellipsoid_normalizes():
    e = Ellipsoid(3, 2)
    assert (e.a, e.b) == (2, 3)
    assert Ellipsoid.ball(5).a == 5
    with pytest.raises(DegenerateRegionError):
        Ellipsoid(0, 1)


def test_profile_validation():
    with pytest.raises(DegenerateRegionError):
        MomentProfile([(1, 2), (2, 0)])  # not starting on the y-axis
    with pytest.raises(DegenerateRegionError):
        MomentProfile([(0, 2), (1, 1)])  # not ending on the x-axis
    with pytest.raises(DegenerateRegionError):
        MomentProfile([(0, 1), (1, 2), (2, 0)])  # not decreasing
    with pytest.raises(DegenerateRegionError):
        # concave corner: slopes -1 then -2
        MomentProfile([(0, 3), (1, 2), (2, 0)])


def test_profile_drops_collinear():
    p = MomentProfile([(0, 2), (1, 1), (2, 0)])
    assert p.vertices == ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([(0, 1)], "profile needs at least two vertices"),
        ([(1, 2), (2, 1)], "first vertex must lie on the y-axis"),
        ([(0, 2), (1, 1)], "last vertex must lie on the x-axis"),
        ([(0, 2), (0, 1), (1, 0)], "x-coordinates must strictly increase"),
        ([(0, 2), (2, 1), (1, 0)], "x-coordinates must strictly increase"),
        ([(0, 1), (1, 2), (2, 0)], "y-coordinates must strictly decrease"),
        ([(0, 2), (1, 2), (2, 0)], "y-coordinates must strictly decrease"),
        ([(0, 3), (1, 2), (2, 0)], "profile is not convex: slopes must be nondecreasing"),
        (
            [(0, 4), (1, 3), (2, 1), (3, 0)],
            "profile is not convex: slopes must be nondecreasing",
        ),
    ],
)
def test_profile_validation_messages(vertices, message):
    with pytest.raises(DegenerateRegionError) as err:
        MomentProfile(vertices)
    assert str(err.value) == message


def _cross_product_cleaner(pts):
    """The collinear-vertex cleaner MomentProfile used before it compared
    its slopes: drop a vertex collinear with the last kept one and the
    next."""
    cleaned = [pts[0]]
    for i in range(1, len(pts) - 1):
        (x1, y1), (x2, y2), (x3, y3) = cleaned[-1], pts[i], pts[i + 1]
        if (y2 - y1) * (x3 - x1) == (y3 - y1) * (x2 - x1):
            continue
        cleaned.append(pts[i])
    cleaned.append(pts[-1])
    return tuple(cleaned)


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_profile_drops_the_same_collinear_vertices(kind):
    """Random convex profiles built from integer edge vectors, each edge
    split into collinear pieces, keep exactly the vertices the
    cross-product cleaner keeps, as Fractions."""
    rng = random.Random(f"collinear-{kind}")
    for _ in range(300):
        edges = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        edges.sort(key=lambda e: Fraction(-e[1], e[0]))  # nondecreasing slopes
        pieces = [rng.randint(1, 3) for _ in edges]  # collinear pieces per edge
        x, y = 0, sum(b * m for (_, b), m in zip(edges, pieces))
        pts = [(x, y)]
        for (a, b), m in zip(edges, pieces):
            for _ in range(m):
                x, y = x + a, y - b
                pts.append((x, y))
        if kind == "fraction":
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            pts = [(t * x, t * y) for x, y in pts]
        elif kind == "mixed":
            pts = [
                tuple(Fraction(c) if rng.random() < 0.5 else c for c in p) for p in pts
            ]
        expected = _cross_product_cleaner([(Fraction(x), Fraction(y)) for x, y in pts])
        vertices = MomentProfile(pts).vertices
        assert vertices == expected
        assert all(type(c) is Fraction for p in vertices for c in p)


def test_area_examples():
    assert area(Ellipsoid(1, 2)) == 1
    assert area(Ellipsoid.ball(1)) == Fraction(1, 2)
    p = MomentProfile([(0, 2), (1, Fraction(1, 2)), (2, 0)])
    assert area(p) == Fraction(1, 2) * (2 + Fraction(1, 2)) + Fraction(1, 2) * Fraction(1, 2)


def test_radial_axes_and_interior():
    e = Ellipsoid(1, 2)
    assert radial(e, (1, 0)) == 1
    assert radial(e, (0, 1)) == 2
    # boundary x/1 + y/2 = 1 hit along (1, 1): t + t/2 = 1
    assert radial(e, (1, 1)) == Fraction(2, 3)


def test_inclusion_scale_examples():
    assert inclusion_scale(Ellipsoid.ball(1), Ellipsoid(1, 2)) == 1
    assert inclusion_scale(Ellipsoid(1, 2), Ellipsoid.ball(1)) == 2
    assert inclusion_scale(Ellipsoid.ball(2), Ellipsoid.ball(1)) == 2


@settings(max_examples=60)
@given(st.data(), st.fractions(min_value=Fraction(1, 4), max_value=4))
def test_scaling_equivariance(data, t):
    p = random_profile(data.draw)
    q = scale(p, t)
    assert area(q) == area(p) * t * t
    assert q.x_extent == p.x_extent * t
    assert inclusion_scale(q, p) == t


@settings(max_examples=60)
@given(st.data())
def test_inclusion_scale_product(data):
    p = random_profile(data.draw)
    q = random_profile(data.draw)
    t_pq = inclusion_scale(p, q)
    t_qp = inclusion_scale(q, p)
    # p within t_pq*q within t_pq*t_qp*p forces the product >= 1
    assert t_pq * t_qp >= 1


@settings(max_examples=30)
@given(st.data())
def test_inclusion_scale_against_angular_sampling(data):
    p = random_profile(data.draw)
    q = random_profile(data.draw)
    t = inclusion_scale(p, q)
    # the vertex-direction maximum dominates a dense angular sample
    for i in range(101):
        d = (Fraction(i, 100), Fraction(100 - i, 100))
        assert radial(p, d) <= t * radial(q, d)


@settings(max_examples=40)
@given(st.data())
def test_radial_scales_linearly(data):
    p = random_profile(data.draw)
    for d in [(1, 1), (2, 1), (1, 3)]:
        assert radial(p, d) == radial(p, (2 * d[0], 2 * d[1])) * 2


def test_as_profile():
    e = Ellipsoid(1, 2)
    assert as_profile(e).vertices == ((0, 2), (1, 0))
    p = MomentProfile([(0, 1), (1, 0)])
    assert as_profile(p) is p


def reference_inclusion_scale(inner, outer):
    """The largest radial ratio over the vertex directions of both
    profiles, each radial found by a search over every segment."""
    p, q = as_profile(inner), as_profile(outer)
    return max(
        ref_radial(p.vertices, v) / ref_radial(q.vertices, v) for v in p.vertices + q.vertices
    )


def test_inclusion_scale_matches_quadratic_search():
    rng = random.Random(11)

    def region():
        if rng.random() < 0.3:
            return Ellipsoid(Fraction(rng.randint(1, 30), rng.randint(1, 9)),
                             Fraction(rng.randint(1, 30), rng.randint(1, 9)))
        sizes = {Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rng.randint(1, 10))}
        return realize(WeightMultiset((s, rng.randint(1, 4)) for s in sizes))

    for _ in range(150):
        p, q = region(), region()
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        for inner, outer, expected in [
            (p, q, None), (q, p, None), (p, p, 1), (scale(p, t), p, t), (p, scale(p, t), 1 / t),
        ]:
            got = inclusion_scale(inner, outer)
            assert got == reference_inclusion_scale(inner, outer)
            assert expected is None or got == expected
        for v in as_profile(q).vertices:
            assert radial(p, v) == ref_radial(as_profile(p).vertices, v)
