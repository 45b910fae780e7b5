"""The integer geometry layer, and the integer capacity ratios of the
distance bound, against a Fraction-arithmetic reference.

The reference functions below are the moment-profile checks, the greedy
weight expansion, ``realize`` and the radial walk written directly in
``fractions.Fraction`` arithmetic, with the expansion's split
interpolating the touch point along a segment and taking one copy of a
weight per step, except on triangles.  The package computes the same
things in integers over one common denominator, a run of equal weights
per step; every result must be equal, with the same Fraction values, and
pickle to the same bytes.  The capacity lower bound's reference divides
the engines' Fraction answers at every sampled k.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest

from echcap import capacities
from echcap.capacities import (
    CapacityProfile,
    ellipsoid_capacity,
    multiset_capacity_fast,
    multiset_capacity_oracle,
)
from echcap.distance import capacity_lower_bound, sample_indices
from echcap.errors import DegenerateRegionError, NonterminationError
from echcap.geometry import Ellipsoid, MomentProfile, inclusion_scale, radial
from echcap.weights import WeightMultiset, realize, weight_expansion


def ref_vertices(vertices):
    """A profile's normalized vertices, checked by comparing slopes."""
    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
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
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])]
    for s1, s2 in zip(slopes, slopes[1:]):
        if s2 < s1:
            raise DegenerateRegionError("profile is not convex: slopes must be nondecreasing")
    cleaned = [pts[0]]
    cleaned.extend(p for p, s1, s2 in zip(pts[1:], slopes, slopes[1:]) if s1 != s2)
    cleaned.append(pts[-1])
    return tuple(cleaned)


def ref_realize(w):
    verts = None
    for weight, mult in reversed(w.entries):
        if verts is None:
            verts = ref_vertices([(0, mult * weight), (weight, 0)])
            continue
        pts = [(x, y - x + weight) for x, y in verts]
        if pts[-1][0] < weight:
            pts.append((weight, Fraction(0)))
        if mult > 1:
            pts = [(x, y - (mult - 1) * (x - weight)) for x, y in pts]
        verts = ref_vertices(pts)
    return verts


def ref_split(verts, c, sums):
    upper_pts = []
    for i, (x, y) in enumerate(verts):
        if sums[i] > c:
            upper_pts.append((x, sums[i] - c))
        else:
            if i > 0:
                x1, y1 = verts[i - 1]
                t = (c - sums[i - 1]) / (sums[i] - sums[i - 1])
                upper_pts.append((x1 + t * (x - x1), Fraction(0)))
            break
    upper = ref_vertices(upper_pts) if len(upper_pts) >= 2 else None
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
    lower = ref_vertices(lower_pts) if len(lower_pts) >= 2 else None
    return upper, lower


def ref_weight_expansion(verts, step_limit=10**6):
    entries = []
    stack = [tuple(verts)]
    steps = 0
    while stack:
        region = stack.pop()
        steps += 1
        if steps > step_limit:
            raise NonterminationError(region)
        if len(region) == 2:
            x, y = region[-1][0], region[0][1]
            while x > 0 and y > 0:
                if y >= x:
                    c = x
                    q, y = divmod(y, x)
                else:
                    c = y
                    q, x = divmod(x, y)
                entries.append((c, int(q)))
            continue
        sums = [x + y for x, y in region]
        c = min(sums)
        entries.append((c, 1))
        upper, lower = ref_split(region, c, sums)
        if lower is not None:
            stack.append(lower)
        if upper is not None:
            stack.append(upper)
    return WeightMultiset(entries)


def ref_radial(verts, u):
    """radial by searching every segment for the one the ray crosses."""
    ux, uy = Fraction(u[0]), Fraction(u[1])
    if uy == 0:
        return verts[-1][0] / ux
    if ux == 0:
        return verts[0][1] / uy
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        denom = (y2 - y1) * ux - (x2 - x1) * uy
        t = ((y2 - y1) * x1 - (x2 - x1) * y1) / denom
        if x1 <= t * ux <= x2:
            return t
    raise AssertionError("ray misses the profile")


def ref_inclusion_scale(p, q):
    return max(
        max(ref_radial(p, v) for v in q),
        1 / min(ref_radial(q, v) for v in p),
    )


def random_weight(rng):
    r = rng.random()
    if r < 0.08:
        return Fraction(rng.randint(1, 9), 10 ** rng.choice([40, 400]))
    if r < 0.3:
        return Fraction(rng.randint(1, 60))
    return Fraction(rng.randint(1, 200), rng.randint(1, 200))


def random_multiset(rng):
    entries = {random_weight(rng): rng.randint(1, 5) for _ in range(rng.randint(1, 10))}
    if rng.random() < 0.3:
        # a huge run on the smallest class: one bulked Euclidean step
        entries[min(entries)] = 10**6
    return WeightMultiset(entries.items())


def test_realize_and_expansion_match_the_reference():
    rng = random.Random(2014)
    for _ in range(150):
        w = random_multiset(rng)
        p = realize(w)
        expected = ref_realize(w)
        assert p.vertices == expected
        assert pickle.dumps(p.vertices) == pickle.dumps(expected)
        assert all(type(c) is Fraction for v in p.vertices for c in v)

        got, _ = weight_expansion(p)
        want = ref_weight_expansion(expected)
        assert got == want == w
        assert pickle.dumps(got) == pickle.dumps(want)
        assert all(type(a) is Fraction for a, _ in got.entries)


def test_huge_runs_of_every_class_match_realize_input():
    """Copy counts the one-copy-per-step reference cannot reach, on any
    class: the realization matches the reference and the expansion gives
    back realize's input."""
    rng = random.Random(2015)
    for _ in range(150):
        w = WeightMultiset(
            (weight, 10 ** rng.randint(0, 12)) for weight, _ in random_multiset(rng)
        )
        p = realize(w)
        assert p.vertices == ref_realize(w)
        got, steps = weight_expansion(p, step_limit=len(w))
        assert got == w and steps == len(w)
        assert pickle.loads(pickle.dumps(got)) == w


def test_expansion_of_random_profiles_matches_the_reference():
    """Profiles not made by realize: ellipsoids and scaled realizations,
    so the common denominator is not the weights' one."""
    rng = random.Random(1996)
    for _ in range(150):
        if rng.random() < 0.4:
            p = Ellipsoid(random_weight(rng), random_weight(rng)).profile()
        else:
            t = random_weight(rng)
            p = MomentProfile([(x * t, y * t) for x, y in realize(random_multiset(rng)).vertices])
        got, _ = weight_expansion(p)
        want = ref_weight_expansion(p.vertices)
        assert got == want
        assert pickle.dumps(got) == pickle.dumps(want)


def test_inclusion_scale_and_radial_match_the_reference():
    rng = random.Random(1729)

    def region():
        if rng.random() < 0.3:
            return Ellipsoid(random_weight(rng), random_weight(rng))
        return realize(random_multiset(rng))

    for _ in range(150):
        p, q = region(), region()
        pv = p.profile().vertices if isinstance(p, Ellipsoid) else p.vertices
        qv = q.profile().vertices if isinstance(q, Ellipsoid) else q.vertices
        for inner, outer, iv, ov in [(p, q, pv, qv), (q, p, qv, pv)]:
            got = inclusion_scale(inner, outer)
            assert type(got) is Fraction
            assert got == ref_inclusion_scale(iv, ov)
        for u in list(qv) + [
            (rng.randint(0, 5), Fraction(rng.randint(1, 7), rng.randint(1, 9))),
            (random_weight(rng), random_weight(rng)),
            (random_weight(rng), 0),
        ]:
            got = radial(p, u)
            assert type(got) is Fraction
            assert got == ref_radial(pv, u)


def test_profile_vertices_and_errors_match_the_reference():
    """Random point lists, most of them broken in one place: the same
    vertices, or the same error message."""
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(600):
        w = random_multiset(rng)
        pts = list(ref_realize(w))
        t = random_weight(rng)
        pts = [(x * t, y * t) for x, y in pts]
        # add collinear midpoints
        for i in reversed(range(len(pts) - 1)):
            if rng.random() < 0.3:
                (x1, y1), (x2, y2) = pts[i], pts[i + 1]
                pts.insert(i + 1, ((x1 + x2) / 2, (y1 + y2) / 2))
        r = rng.random()
        if r < 0.5 and len(pts) > 2:
            # move one vertex by a small amount
            i = rng.randrange(len(pts))
            dx, dy = (Fraction(rng.randint(-3, 3), rng.randint(1, 50)) for _ in range(2))
            pts[i] = (pts[i][0] + dx, pts[i][1] + dy)
        elif r < 0.6:
            pts = pts[: rng.randint(0, len(pts))]
        pts = [tuple(c if rng.random() < 0.5 else (int(c) if c.denominator == 1 else c) for c in p)
               for p in pts]
        try:
            expected = ref_vertices(pts)
        except DegenerateRegionError as err:
            with pytest.raises(DegenerateRegionError) as got:
                MomentProfile(pts)
            assert str(got.value) == str(err)
            outcomes.add(str(err))
            continue
        vertices = MomentProfile(pts).vertices
        assert vertices == expected
        assert all(type(c) is Fraction for v in vertices for c in v)
        outcomes.add("valid")
    assert len(outcomes) >= 5  # valid profiles and several kinds of error


def test_step_limit_names_the_residual_region():
    p = realize(WeightMultiset([(3, 1), (Fraction(5, 3), 2), (Fraction(1, 7), 3)]))
    assert len(p.vertices) > 2
    with pytest.raises(NonterminationError) as err:
        weight_expansion(p, step_limit=1)
    # the first step takes the head triangle; the second pops the upper
    # leftover, sheared against the axes
    sums = [x + y for x, y in p.vertices]
    upper = ref_split(p.vertices, min(sums), sums)[0]
    residual = MomentProfile(upper)
    assert str(err.value) == f"weight expansion exceeded 1 steps; residual region {residual!r}"
    with pytest.raises(NonterminationError) as err:
        weight_expansion(p, step_limit=0)
    assert str(err.value).endswith(f"residual region {p!r}")


def ref_intervals(domain, reach):
    """c_k as a Fraction interval, from the engine the profile picks at k:
    an ellipsoid's lattice count, the oracle up to ``reach``, and the exact
    engine above it."""
    if isinstance(domain, Ellipsoid):
        return lambda k: (ellipsoid_capacity(domain, k),) * 2
    def interval(k):
        if k <= reach:
            return (multiset_capacity_oracle(domain, k).best,) * 2
        result = multiset_capacity_fast(domain, k)
        return result.best, result.upper
    return interval


def ref_capacity_lower_bound(ref_u, ref_v, K, per_decade):
    """The exactly largest of max(lo_u / hi_v, lo_v / hi_u) over the sampled
    k, from 1, and the first k that reaches it (0 if none is above 1)."""
    best, witness = Fraction(1), 0
    for k in sample_indices(K, per_decade):
        (lo_u, hi_u), (lo_v, hi_v) = ref_u(k), ref_v(k)
        if min(lo_u, lo_v, hi_u, hi_v) <= 0:
            continue
        ratio = max(lo_u / hi_v, lo_v / hi_u)
        if ratio > best:
            best, witness = ratio, k
    return best, witness


def random_domain(rng):
    if rng.random() < 0.3:
        return Ellipsoid(random_weight(rng), random_weight(rng))
    return random_multiset(rng)


@pytest.mark.parametrize("cell_limit", [capacities._CELL_LIMIT, 0], ids=["exact", "intervals"])
def test_capacity_lower_bound_matches_the_reference(cell_limit, monkeypatch):
    """On random pairs of ellipsoids and weights, sampled below and above
    the sweep's reach: the bound is math.log of the exactly largest
    reference ratio, or 0.0 when that logarithm is 0.0, and the witness is
    the first k reaching it.  A scaled copy ties every k exactly.  A ratio
    past the float range (weights of 10^-400) has a finite logarithm too."""
    monkeypatch.setattr(capacities, "_CELL_LIMIT", cell_limit)
    rng = random.Random(2011 + cell_limit)
    intervals = 0
    for _ in range(60):
        u = random_domain(rng)
        if rng.random() < 0.2:
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            v = Ellipsoid(t * u.a, t * u.b) if isinstance(u, Ellipsoid) else u.scaled(t)
        else:
            v = random_domain(rng)
        K = rng.randint(1, 400)
        oracle_limit = rng.randint(0, 2 * K)
        per_decade = rng.choice([4, 16, 64])
        pu, pv = (CapacityProfile(x, K, oracle_limit=oracle_limit) for x in (u, v))
        refs = [ref_intervals(x, p.reach) for x, p in ((u, pu), (v, pv))]
        best, witness = ref_capacity_lower_bound(*refs, K, per_decade)
        result = capacity_lower_bound(pu, pv, K, per_decade)
        try:
            log_best = math.log(best)
        except OverflowError:  # past the float range: the logarithms of the integers
            log_best = math.log(best.numerator) - math.log(best.denominator)
            assert result[0] == pytest.approx(log_best, rel=1e-14) and result[1] == witness
            continue
        expected = (log_best, witness) if log_best > 0.0 else (0.0, 0)
        assert result == expected, (u, v, K, oracle_limit)
        intervals += sum(lo != hi for p in (pu, pv) for lo, hi in p._memo.values())
    assert (intervals > 0) == (cell_limit == 0)
