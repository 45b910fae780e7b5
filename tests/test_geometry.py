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


def reference_radial(profile, u):
    """radial by searching every segment for the one the ray crosses."""
    ux, uy = Fraction(u[0]), Fraction(u[1])
    if uy == 0:
        return profile.x_extent / ux
    if ux == 0:
        return profile.y_extent / uy
    for (x1, y1), (x2, y2) in zip(profile.vertices, profile.vertices[1:]):
        denom = (y2 - y1) * ux - (x2 - x1) * uy
        if denom == 0:
            continue
        t = ((y2 - y1) * x1 - (x2 - x1) * y1) / denom
        if t > 0 and x1 <= t * ux <= x2:
            return t
    raise AssertionError("ray misses the profile")


def reference_inclusion_scale(inner, outer):
    """The largest radial ratio over the vertex directions of both
    profiles, each radial found by a search over every segment."""
    p, q = as_profile(inner), as_profile(outer)
    return max(reference_radial(p, v) / reference_radial(q, v) for v in p.vertices + q.vertices)


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
            assert radial(p, v) == reference_radial(as_profile(p), v)
