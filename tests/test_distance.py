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
from echcap.geometry import Ellipsoid, MomentProfile
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
    # c_k(B(2)) = 2 c_k(B(1)) for every k, so the bound is exactly ln 2,
    # first reached at k = 1
    balls = CapacityProfile(Ellipsoid.ball(1), 100), CapacityProfile(Ellipsoid.ball(2), 100)
    bound, witness = capacity_lower_bound(*balls, 100)
    assert bound == math.log(2)
    assert witness == 1


class StubProfile:
    """c_k as integer pairs over one denominator, as CapacityProfile hands
    them out, and nothing else."""

    def __init__(self, den, pairs):
        self.den = den
        self.pairs = pairs

    def scaled_interval(self, k):
        return self.pairs[k]


# 2 + 2^-60 rounds to the float 2.0, so its logarithm ties with ln 2
TIE = 2**60


@pytest.mark.parametrize(
    "u_pairs, witness",
    [
        # ratios 2, 2 + 2^-60, 2: the exactly largest is at k = 2, though
        # its float logarithm ties with k = 1's
        ({1: (2 * TIE,) * 2, 2: (2 * TIE + 1,) * 2, 3: (2 * TIE,) * 2}, 2),
        # ratios 2 + 2^-60, 2, 2 + 2^-60: the first k with the largest
        ({1: (2 * TIE + 1,) * 2, 2: (2 * TIE,) * 2, 3: (2 * TIE + 1,) * 2}, 1),
        # intervals: k = 2 has ratio lo_u / hi_v = (2 + 2^-60) / 1, and
        # k = 3 the ratio 2 + 2^-59 only on its upper end
        ({1: (2 * TIE,) * 2, 2: (2 * TIE + 1, 3 * TIE), 3: (2 * TIE, 2 * TIE + 2)}, 2),
    ],
)
def test_capacity_lower_bound_float_tie(u_pairs, witness):
    """Two sampled k whose ratios differ exactly but whose float logarithms
    are equal: the witness is the first k with the exactly largest ratio,
    in both orders of the pair and across the two denominators."""
    u = StubProfile(TIE, u_pairs)
    v = StubProfile(3, {1: (3, 3), 2: (3, 3), 3: (3, 3)})  # c_k(V) = 1
    assert math.log(Fraction(2 * TIE + 1, TIE)) == math.log(2)
    assert capacity_lower_bound(u, v, 3) == (math.log(2), witness)
    assert capacity_lower_bound(v, u, 3) == (math.log(2), witness)


def test_capacity_lower_bound_zero_when_the_log_rounds_to_zero():
    """A largest ratio above 1 whose logarithm rounds to 0.0, and one at or
    below 1, both give (0.0, 0); a sampled k with a zero capacity is
    skipped."""
    tiny = StubProfile(TIE, {1: (TIE + 1, TIE + 1), 2: (TIE, TIE)})
    one = StubProfile(1, {1: (1, 1), 2: (1, 1)})
    assert Fraction(TIE + 1, TIE) > 1 and math.log(Fraction(TIE + 1, TIE)) == 0.0
    assert capacity_lower_bound(tiny, one, 2) == (0.0, 0)
    assert capacity_lower_bound(one, one, 2) == (0.0, 0)
    zero = StubProfile(1, {1: (0, 0), 2: (2, 2)})
    assert capacity_lower_bound(zero, one, 2) == (math.log(2), 2)


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


TINY_BALL = WeightMultiset([(Fraction(1, 10**400), 1)])


@pytest.mark.parametrize("tiny", [TINY_BALL, realize(TINY_BALL)], ids=["weights", "profile"])
def test_distance_past_the_float_range(tiny):
    """B(10^-400), as weights and as a profile, against B(3/2): every ratio
    is 1.5 * 10^400, past the float range, and every bound is its finite
    logarithm, in both orders."""
    ball = Ellipsoid.ball(Fraction(3, 2))
    expected = math.log(15) + 399 * math.log(10)
    for rep in (distance_report(tiny, ball, 10), distance_report(ball, tiny, 10)):
        assert rep.lower_capacity == pytest.approx(expected, rel=1e-14)
        assert rep.capacity_witness_k == 1
        assert rep.lower_volume == pytest.approx(expected, rel=1e-14)
        if isinstance(tiny, MomentProfile):
            assert rep.upper_inclusion.distance == pytest.approx(expected, rel=1e-14)
        assert rep.consistent


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
