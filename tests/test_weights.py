import copy
import pickle
import random
from fractions import Fraction

import pytest

from echcap import geometry, weights
from echcap.domainfile import from_document, to_document
from echcap.errors import RealizationLimitError
from echcap.geometry import Ellipsoid, MomentProfile, area
from echcap.quasiflat import ParameterVector, build_weights
from echcap.weights import (
    WeightMultiset,
    ellipsoid_weights,
    realize,
    weight_expansion,
)


def test_multiset_merges_and_sorts():
    w = WeightMultiset([(Fraction(1, 2), 3), (1, 1), (Fraction(1, 2), 2)])
    assert w.entries == ((Fraction(1), 1), (Fraction(1, 2), 5))
    assert w.total_area() == Fraction(1, 2) + 5 * Fraction(1, 8)


def test_multiset_rejects_bad_entries():
    with pytest.raises(ValueError):
        WeightMultiset([(0, 1)])
    with pytest.raises(ValueError):
        WeightMultiset([(1, 0)])


def test_multiset_scaled_and_union():
    w = WeightMultiset([(1, 2)])
    assert w.scaled(Fraction(1, 2)).entries == ((Fraction(1, 2), 2),)
    u = w.union(WeightMultiset([(1, 1), (2, 1)]))
    assert u.entries == ((Fraction(2), 1), (Fraction(1), 3))


def test_serialization_roundtrip():
    w = WeightMultiset([(Fraction(1, 4096), 68719476736), (Fraction(1, 8), 4096)])
    assert from_document(to_document(w)) == w


def test_ellipsoid_weights_examples():
    # E(a, b) with integer ratio collapses to one entry
    assert ellipsoid_weights(Ellipsoid(Fraction(1, 8), 512)).entries == (
        (Fraction(1, 8), 4096),
    )
    # Euclidean chain of (2, 5): 2 x 2, then (1, 2): 1 x 2
    assert ellipsoid_weights(Ellipsoid(2, 5)).entries == (
        (Fraction(2), 2),
        (Fraction(1), 2),
    )


def test_ellipsoid_weights_preserve_area():
    for a, b in [(1, 1), (2, 3), (Fraction(3, 7), Fraction(5, 2))]:
        e = Ellipsoid(a, b)
        assert ellipsoid_weights(e).total_area() == area(e)


def test_expansion_matches_euclid_on_ellipsoids():
    """One step per run: on E(a, b) the expansion takes as many steps as
    the Euclidean quotient chain has quotients."""
    rng = random.Random(20240901)
    for _ in range(50):
        a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        e = Ellipsoid(a, b)
        expanded, steps = weight_expansion(e.profile())
        assert expanded == ellipsoid_weights(e)
        assert steps == len(ellipsoid_weights(e))


def test_expansion_of_ball():
    w, steps = weight_expansion(Ellipsoid.ball(3).profile())
    assert w.entries == ((Fraction(3), 1),)
    assert steps == 1


@pytest.mark.parametrize(
    "w",
    [
        WeightMultiset([(3, 2), (Fraction(2, 3), 10**6), (Fraction(1, 7), 5)]),
        build_weights(ParameterVector([1024, 1024**2])),
    ],
    ids=["middle-run", "quasiflat-1024"],
)
def test_runs_of_any_class_take_one_step(w):
    """A run of copies of a weight that is not the smallest is one step,
    not one step per copy."""
    back, steps = weight_expansion(realize(w), step_limit=10)
    assert back == w
    assert steps == len(w)


def test_expansion_of_many_distinct_weights():
    w = WeightMultiset((n, 1) for n in range(1, 2001))
    result = weight_expansion(realize(w))
    assert result[0] == w
    assert pickle.loads(pickle.dumps(result)) == result


def test_realize_single_class_is_triangle():
    p = realize(WeightMultiset([(Fraction(1, 8), 4096)]))
    assert p.vertices == ((0, 512), (Fraction(1, 8), 0))


def test_realize_roundtrip_random():
    rng = random.Random(411)
    for _ in range(200):
        entries = {}
        for _ in range(rng.randint(1, 12)):
            w = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            entries[w] = rng.randint(1, 20)
        w = WeightMultiset(entries.items())
        p = realize(w)
        back, _ = weight_expansion(p)
        assert back == w
        assert area(p) == w.total_area()


def test_realize_checks_the_profile_once(monkeypatch):
    """No glue can fail the profile check, so the glued vertices are
    checked once, at the end, and keep every vertex."""
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return geometry._kept_vertices(pts)

    monkeypatch.setattr(weights, "_kept_vertices", counted)
    w = WeightMultiset((Fraction(1, n), n) for n in range(1, 51))
    p = realize(w)
    assert sizes == [51] and len(p.vertices) == 51
    monkeypatch.undo()
    assert weight_expansion(p)[0] == w


def test_realize_roundtrip_huge_multiplicity():
    w = WeightMultiset([(1, 1), (Fraction(1, 1024), 1 << 20)])
    p = realize(w)
    assert p.y_extent == 1025
    back, _ = weight_expansion(p)
    assert back == w


def test_realize_scaling_equivariance():
    w = WeightMultiset([(2, 3), (1, 1), (Fraction(1, 2), 4)])
    t = Fraction(3, 5)
    scaled = realize(w.scaled(t))
    direct = MomentProfile([(x * t, y * t) for x, y in realize(w).vertices])
    assert scaled == direct


def test_realize_limit():
    w = WeightMultiset([(Fraction(1, n), 1) for n in range(1, 30)])
    with pytest.raises(RealizationLimitError):
        realize(w, realization_limit=10)


@pytest.mark.parametrize(
    "obj",
    [
        WeightMultiset([(Fraction(7, 3), 5), (1, 2)]),
        MomentProfile([(0, 3), (1, 1), (Fraction(5, 2), 0)]),
    ],
    ids=["weights", "profile"],
)
def test_copy_and_pickle_roundtrip(obj):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj and hash(clone) == hash(obj)
        with pytest.raises(AttributeError):
            clone.entries = ()
