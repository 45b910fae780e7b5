import math
from fractions import Fraction

import pytest

from echcap import distance
from echcap.capacities import CapacityProfile
from echcap.distance import (
    capacity_lower_bound,
    certificate,
    distance_report,
    fit_quasi_isometry,
    inclusion_distance,
    lemma_upper_bound,
    sample_indices,
    volume_lower_bound,
)
from echcap.errors import DimensionMismatchError
from echcap.geometry import Ellipsoid
from echcap.quasiflat import ParameterVector, build_domain, build_weights
from echcap.weights import WeightMultiset, realize


def test_sample_indices():
    ks = sample_indices(1000)
    assert ks[0] == 1
    assert ks[-1] == 1000
    assert set(range(1, 9)).issubset(ks)
    assert ks == sorted(set(ks))
    assert sample_indices(0) == []
    assert sample_indices(5) == [1, 2, 3, 4, 5]


def test_capacity_lower_bound_scaled_balls():
    # c_k(B(2)) = 2 c_k(B(1)) for every k, so the bound is exactly ln 2
    balls = CapacityProfile(Ellipsoid.ball(1), 100), CapacityProfile(Ellipsoid.ball(2), 100)
    bound, witness = capacity_lower_bound(*balls, 100)
    assert bound == pytest.approx(math.log(2))
    assert witness >= 1


def test_capacity_lower_bound_symmetry():
    u = CapacityProfile(Ellipsoid(1, 2), 200)
    v = CapacityProfile(Ellipsoid(1, 3), 200)
    b_uv, _ = capacity_lower_bound(u, v, 200)
    b_vu, _ = capacity_lower_bound(v, u, 200)
    assert b_uv == pytest.approx(b_vu)
    assert b_uv >= 0


def test_volume_lower_bound():
    def volume_bound(u, v):
        return volume_lower_bound(CapacityProfile(u, 0), CapacityProfile(v, 0))

    assert volume_bound(Ellipsoid.ball(1), Ellipsoid.ball(2)) == pytest.approx(math.log(2))
    assert volume_bound(Ellipsoid(1, 2), Ellipsoid(1, 2)) == 0
    # a profile and its weights have the same volume
    w = WeightMultiset([(2, 1), (Fraction(1, 3), 5)])
    assert volume_bound(realize(w), w) == 0


def test_inclusion_distance():
    r = inclusion_distance(Ellipsoid.ball(1), Ellipsoid(1, 2))
    assert r.scale_into_v == 1
    assert r.scale_into_u == 2
    assert r.distance == pytest.approx(math.log(2))


def test_lemma_upper_bound():
    v = ParameterVector([64, 4096])
    w = ParameterVector([256, 65536])
    # ||v, w|| = ln 16, N = 2: bound = 2 ln 16 + 1
    assert lemma_upper_bound(v, w) == pytest.approx(2 * math.log(16) + 1)
    assert lemma_upper_bound(v, v) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        lemma_upper_bound(v, ParameterVector([64]))


def test_distance_report_consistency():
    rep = distance_report(Ellipsoid.ball(1), Ellipsoid(1, 2), 200)
    assert rep.consistent
    assert rep.lower <= rep.upper
    assert rep.upper == pytest.approx(math.log(2))


def test_distance_report_weights_only():
    u = WeightMultiset([(1, 1)])
    v = WeightMultiset([(2, 1)])
    rep = distance_report(u, v, 100)
    assert rep.upper_inclusion is None
    assert rep.lower == pytest.approx(math.log(2))


def test_fit_quasi_isometry():
    a, b = fit_quasi_isometry([1.0, 2.0, 4.0], [2.0, 4.0, 8.0])
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(0.0)
    a, b = fit_quasi_isometry([0.0], [1.5])
    assert a == 1.0 and b == pytest.approx(1.5)
    # sandwich property holds by construction
    d1 = [0.3, 1.0, 5.0, 11.0]
    d2 = [1.1, 0.4, 6.5, 9.0]
    a, b = fit_quasi_isometry(d1, d2)
    for x, y in zip(d1, d2):
        assert x / a - b <= y <= a * x + b + 1e-12


def test_certificate_small_grid():
    vecs = [ParameterVector([b, b * b]) for b in (64, 256)]
    pairs = [(v, w) for v in vecs for w in vecs]
    cert = certificate(pairs, k_cap=10**5)
    assert cert.consistent
    assert len(cert.pairs) == 4
    for p in cert.pairs:
        assert not p.skipped
        assert p.lower <= p.upper + 1e-12
    same = cert.pairs[0]
    assert same.metric == 0 and same.lower == 0


def test_certificate_skips_mismatched_pairs():
    cert = certificate(
        [(ParameterVector([64]), ParameterVector([64, 4096]))], k_cap=10
    )
    assert cert.pairs[0].skipped
    assert "dimension" in cert.pairs[0].reason


SMALL_GRID = [ParameterVector([b, b * b]) for b in (4, 16, 64)]


def _small_grid_certificate(include_inclusion=True):
    pairs = [(v, w) for v in SMALL_GRID for w in SMALL_GRID]
    # k_cap above the sweep's reach (oracle_limit // 2) exercises both the
    # sweep and the exact engine above it
    return pairs, certificate(
        pairs, k_cap=400, per_decade=16, oracle_limit=300, include_inclusion=include_inclusion
    )


def test_certificate_rows_match_separate_lower_bounds():
    pairs, cert = _small_grid_certificate()
    for (v, w), p in zip(pairs, cert.pairs):
        wu, ww = build_weights(v), build_weights(w)
        k_target = min(400, max(int(b ** (i + 2)) for x in (v, w) for i, b in enumerate(x.B)))
        pu = CapacityProfile(wu, k_target, oracle_limit=300)
        pw = CapacityProfile(ww, k_target, oracle_limit=300)
        bound, witness = capacity_lower_bound(pu, pw, k_target, per_decade=16)
        assert p.lower == max(bound, volume_lower_bound(pu, pw))
        assert p.witness_k == witness


def test_certificate_rows_match_separate_upper_bounds():
    pairs, cert = _small_grid_certificate()
    for (v, w), p in zip(pairs, cert.pairs):
        inclusion = inclusion_distance(build_domain(v), build_domain(w))
        assert p.upper == min(lemma_upper_bound(v, w), inclusion.distance)


@pytest.mark.parametrize("include_inclusion", [True, False])
def test_certificate_builds_each_vector_once(include_inclusion, monkeypatch):
    """On a 3x3 grid: one build_weights per vector, one realize per vector
    (none without inclusion bounds), one q_metric per pair."""
    calls = {"build_weights": [], "realize": [], "q_metric": []}
    for name, log in calls.items():
        original = getattr(distance, name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(distance, name, counted)
    pairs, cert = _small_grid_certificate(include_inclusion)
    assert not any(p.skipped for p in cert.pairs)
    assert calls["build_weights"] == SMALL_GRID
    realized = [build_weights(v) for v in SMALL_GRID] if include_inclusion else []
    assert calls["realize"] == realized
    assert calls["q_metric"] == [v.B for v, _ in pairs]


def test_certificate_rows_symmetric():
    _, cert = _small_grid_certificate()
    rows = {(p.v, p.w): p for p in cert.pairs}
    for (v, w), p in rows.items():
        q = rows[(w, v)]
        assert (p.lower, p.upper, p.witness_k) == (q.lower, q.upper, q.witness_k)
