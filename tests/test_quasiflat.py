import random
from fractions import Fraction

import mpmath
import pytest

from echcap.errors import DimensionMismatchError, RepresentabilityError
from echcap.quasiflat import (
    ParameterVector,
    build_domain,
    build_weights,
    chart_embed,
    fold,
    map_linear,
    map_linear_inverse,
    q_metric,
    validate_parameters,
)
from echcap.weights import weight_expansion


def test_parameter_vector_validation():
    with pytest.raises(ValueError):
        ParameterVector([])
    with pytest.raises(ValueError):
        ParameterVector([1, -2])
    v = ParameterVector([64, 4096])
    assert len(v) == 2 and list(v) == [64, 4096]


def test_validate_parameters_reports():
    rec = validate_parameters(ParameterVector([64, 4096]))
    assert rec.admissible and rec.exact_representable
    rec = validate_parameters(ParameterVector([4, 8]))
    assert not rec.admissible  # below threshold 64 and 4^2 > 8
    assert rec.above_threshold == (False, False)
    assert rec.growth == (False,)
    rec = validate_parameters(ParameterVector([4, 8]), threshold=Fraction(4))
    assert rec.above_threshold == (True, True)


def test_validate_detects_irrational_weights():
    # B_1 = 2: a_1 = 2^(-1/2) irrational
    rec = validate_parameters(ParameterVector([2, 4]))
    assert rec.exact_mode == (False, True)
    assert not rec.exact_representable


def test_build_weights_canonical():
    w = build_weights(ParameterVector([64, 4096]))
    assert w.entries == (
        (Fraction(1, 8), 4096),
        (Fraction(1, 4096), 68719476736),
    )


def test_build_weights_rejects_irrational():
    with pytest.raises(RepresentabilityError):
        build_weights(ParameterVector([2, 4]))


def test_build_domain_expands_back():
    v = ParameterVector([64, 4096])
    p = build_domain(v)
    back, _ = weight_expansion(p)
    assert back == build_weights(v)


def test_fold():
    assert fold([0]) == (3, 3)
    assert fold([Fraction(5, 2)]) == (Fraction(11, 2), 3)
    assert fold([-2, 1]) == (3, 5, 4, 3)


def test_map_linear_small():
    # dim 2: y1 = x1 + x2, y2 = 2 x1 + 3 x2
    assert map_linear([3, 3]) == (6, 15)
    assert map_linear([1, 2]) == (3, 8)
    # dim 4 first rows: y2 = 2(x1+x2+x3) + 3 x4
    assert map_linear([1, 1, 1, 1]) == (4, 9, 19, 39)


def test_map_linear_rejects_odd_dimension():
    with pytest.raises(DimensionMismatchError):
        map_linear([1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        map_linear_inverse([1])


def test_map_linear_roundtrip_random():
    rng = random.Random(1234)
    for _ in range(1000):
        dim = 2 * rng.randint(1, 4)
        x = [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(dim)]
        y = map_linear(x)
        assert map_linear_inverse(y) == tuple(x)


def _map_linear_reference(x):
    """map_linear as a sum of Fraction products, one coefficient at a time:
    row 1 is all ones; row i+1 has 2^i + 2^{i-1-j} on x_{dim-j} for j < i
    and 2^i elsewhere."""
    dim = len(x)

    def coefficient(row, col):
        if row == 1:
            return 1
        i, j = row - 1, dim - col
        return 2**i + 2 ** (i - 1 - j) if j < i else 2**i

    return tuple(
        sum(coefficient(row, col) * Fraction(x[col - 1]) for col in range(1, dim + 1))
        for row in range(1, dim + 1)
    )


def test_map_linear_matches_fraction_reference():
    rng = random.Random(808)
    for _ in range(500):
        dim = 2 * rng.randint(1, 4)
        x = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(dim)]
        if rng.random() < 0.3:
            x[rng.randrange(dim)] = rng.randint(1, 50)  # a plain int coordinate
        y = map_linear(x)
        assert y == _map_linear_reference(x)
        assert all(type(v) is Fraction for v in y)


def test_map_linear_image_property():
    rng = random.Random(4321)
    for _ in range(200):
        dim = 2 * rng.randint(1, 4)
        x = [3 + Fraction(rng.randint(0, 300), 100) for _ in range(dim)]
        y = map_linear(x)
        assert y[0] >= 6
        for a, b in zip(y, y[1:]):
            assert b >= 2 * a >= 12


def test_map_linear_inverse_outside_cone():
    with pytest.raises(ValueError):
        map_linear_inverse([1, 1])  # x2 = 1 - 2 = -1


def test_q_metric():
    assert q_metric([1, 1], [1, 1]) == 0
    val = q_metric([8], [1])
    with mpmath.workprec(200):
        assert abs(val - mpmath.log(8)) < mpmath.mpf(2) ** -190
    with pytest.raises(DimensionMismatchError):
        q_metric([1], [1, 2])


def test_exponential_stage_is_isometry():
    # distance between images equals the linear-stage sup distance
    rng = random.Random(7)
    with mpmath.workprec(200):
        for _ in range(50):
            y1 = [Fraction(rng.randint(6, 60)) for _ in range(3)]
            y2 = [Fraction(rng.randint(6, 60)) for _ in range(3)]
            b1 = [mpmath.exp(mpmath.mpf(int(v))) for v in y1]
            b2 = [mpmath.exp(mpmath.mpf(int(v))) for v in y2]
            target = max(abs(a - b) for a, b in zip(y1, y2))
            got = q_metric(b1, b2)
            assert abs(got - int(target)) <= mpmath.mpf(2) ** -180


def test_chart_embed_exact_snap():
    cp = chart_embed([0])
    assert cp.snapped
    assert cp.B == (Fraction(400), Fraction(3268864))
    # snapped parameters stay admissible in exact mode
    rec = validate_parameters(cp.parameters())
    assert rec.exact_representable
    assert all(float(e) < 0.1 for e in cp.snap_errors)


def test_chart_embed_approx():
    cp = chart_embed([Fraction(1, 2)], snap="approx")
    assert not cp.snapped
    with mpmath.workprec(200):
        assert abs(mpmath.log(cp.B[0]) - mpmath.mpf(13) / 2) < mpmath.mpf(2) ** -150


def test_chart_embed_snap_error_bounded_on_grid():
    for i in range(-8, 9):
        cp = chart_embed([Fraction(i, 4)])
        assert all(float(e) <= 0.1 for e in cp.snap_errors)


@pytest.mark.parametrize("precision", [0, -5])
def test_precision_below_one_bit(precision):
    """mpmath at 0 or fewer bits gives garbage (B = (2^11, 2^23) at x = 0
    in approx mode), so both entry points refuse it."""
    with pytest.raises(ValueError, match="precision must be >= 1"):
        chart_embed([0], snap="approx", precision=precision)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        q_metric([8], [1], precision=precision)
    assert chart_embed([0], snap="approx", precision=1).B


def test_chart_embed_rejects_unknown_snap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the chart ran before checking the snap mode")

    monkeypatch.setattr("echcap.quasiflat.fold", no_work)
    with pytest.raises(ValueError, match="unknown snap mode 'bogus'"):
        chart_embed([0], snap="bogus")


@pytest.mark.parametrize("snap", ["exact", "approx"])
def test_chart_embed_exponentiates_once_per_coordinate(snap, monkeypatch):
    """Exact mode takes e^{y/2} to snap and approx mode takes e^y; neither
    computes the other's exponential."""
    args = []
    exp = mpmath.exp

    def counted(x):
        args.append(x)
        return exp(x)

    monkeypatch.setattr(mpmath, "exp", counted)
    cp = chart_embed([Fraction(1, 2)], snap=snap)
    scale = Fraction(1, 2) if snap == "exact" else 1
    assert [float(a) for a in args] == [float(y * scale) for y in cp.y]
