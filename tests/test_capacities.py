import itertools
import random
from fractions import Fraction

import pytest

from echcap.capacities import (
    CapacityProfile,
    ball_capacity,
    domain_volume,
    ellipsoid_capacity,
    multiset_capacity_fast,
    multiset_capacity_oracle,
    multiset_capacity_sweep,
    weyl_ratio,
)
from echcap.errors import ResourceLimitError
from echcap.geometry import Ellipsoid, MomentProfile
from echcap.weights import WeightMultiset, ellipsoid_weights


def brute_ellipsoid(a, b, k_max):
    """Sorted {ma + nb} by direct enumeration."""
    a, b = Fraction(a), Fraction(b)
    bound = a * (k_max + 1)
    values = [
        m * a + n * b
        for m in range(int(bound / a) + 2)
        for n in range(int(bound / b) + 2)
        if m * a + n * b <= bound
    ]
    values.sort()
    return values[: k_max + 1]


def brute_multiset(w, k):
    """Maximize sum d_j a_j over per-copy levels with sum (d^2 + d) <= 2k,
    with no normal-form assumption."""
    weights = [wt for wt, m in w.entries for _ in range(m)]
    budget = 2 * k
    best = Fraction(0)

    def rec(i, left, acc):
        nonlocal best
        if acc > best:
            best = acc
        if i == len(weights):
            return
        d = 0
        while d * d + d <= left:
            rec(i + 1, left - d * d - d, acc + d * weights[i])
            d += 1

    rec(0, budget, Fraction(0))
    return best


def test_ball_sequence_start():
    # 0, a, a, 2a, 2a, 2a, 3a, ...
    seq = [ball_capacity(Fraction(5, 3), k) for k in range(7)]
    a = Fraction(5, 3)
    assert seq == [0, a, a, 2 * a, 2 * a, 2 * a, 3 * a]


def test_ball_matches_ellipsoid_engine():
    for k in range(200):
        assert ball_capacity(1, k) == ellipsoid_capacity(Ellipsoid.ball(1), k)


def test_ellipsoid_against_brute_force():
    for a, b in [(1, 2), (2, 3), (Fraction(1, 3), Fraction(5, 7))]:
        expected = brute_ellipsoid(*sorted((Fraction(a), Fraction(b))), 60)
        got = [ellipsoid_capacity(Ellipsoid(a, b), k) for k in range(61)]
        assert got == expected


def test_ellipsoid_k_limit():
    with pytest.raises(ResourceLimitError):
        ellipsoid_capacity(Ellipsoid(1, 2), 100, k_limit=50)


def test_oracle_against_unrestricted_enumeration():
    rng = random.Random(99)
    for _ in range(25):
        entries = {}
        total = 0
        while total < 1 or rng.random() < 0.5:
            w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            m = rng.randint(1, 2)
            if total + m > 5:
                break
            entries[w] = entries.get(w, 0) + m
            total += m
        wm = WeightMultiset(entries.items())
        for k in (0, 1, 3, 7, 15, 30):
            oracle = multiset_capacity_oracle(wm, k)
            assert oracle.best == brute_multiset(wm, k)
            assert oracle.witness.cost <= 2 * k
            assert oracle.witness.value == oracle.best


def test_oracle_worked_examples():
    # single ball weight recovers the ball sequence
    wm = WeightMultiset([(Fraction(3, 2), 1)])
    for k in range(12):
        assert multiset_capacity_oracle(wm, k).best == ball_capacity(Fraction(3, 2), k)
    # E(1, 2) weights: 1 x 2
    wm = ellipsoid_weights(Ellipsoid(1, 2))
    for k in range(40):
        assert multiset_capacity_oracle(wm, k).best == ellipsoid_capacity(
            Ellipsoid(1, 2), k
        )


def test_weights_determine_capacities():
    rng = random.Random(5)
    cases = [(1, 1), (1, 2), (2, 3), (1, 5), (3, 7)]
    cases += [
        (Fraction(rng.randint(1, 12), rng.randint(1, 12)),
         Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        for _ in range(10)
    ]
    for a, b in cases:
        e = Ellipsoid(a, b)
        wm = ellipsoid_weights(e)
        sweep = multiset_capacity_sweep(wm, 80)
        for k in range(81):
            assert sweep[k] == ellipsoid_capacity(e, k)


def test_sweep_matches_oracle():
    wm = WeightMultiset([(2, 3), (Fraction(1, 2), 5)])
    sweep = multiset_capacity_sweep(wm, 50)
    for k in (0, 1, 10, 33, 50):
        assert sweep[k] == multiset_capacity_oracle(wm, k).best


def test_capacities_nondecreasing():
    wm = WeightMultiset([(Fraction(5, 7), 4), (Fraction(2, 9), 11)])
    sweep = multiset_capacity_sweep(wm, 100)
    assert all(x <= y for x, y in zip(sweep, sweep[1:]))


def test_scaling_axiom():
    wm = WeightMultiset([(3, 2), (1, 3)])
    t = Fraction(7, 4)
    for k in (1, 5, 20):
        assert (
            multiset_capacity_oracle(wm.scaled(t), k).best
            == t * multiset_capacity_oracle(wm, k).best
        )


def test_monotonicity_under_inclusion():
    # E(1, 2) within E(2, 2): capacities can only grow
    small = Ellipsoid(1, 2)
    big = Ellipsoid(2, 2)
    for k in range(60):
        assert ellipsoid_capacity(small, k) <= ellipsoid_capacity(big, k)


def test_fast_matches_oracle_small():
    rng = random.Random(17)
    for _ in range(60):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            entries[Fraction(rng.randint(1, 30), rng.randint(1, 30))] = rng.randint(1, 25)
        wm = WeightMultiset(entries.items())
        k = rng.randint(1, 3000)
        fast = multiset_capacity_fast(wm, k)
        oracle = multiset_capacity_oracle(wm, k)
        assert fast.best == oracle.best
        assert fast.upper >= oracle.best
        assert fast.witness.cost <= 2 * k


def test_fast_interval_contract():
    wm = WeightMultiset([(Fraction(1, 8), 4096), (Fraction(1, 4096), 68719476736)])
    result = multiset_capacity_fast(wm, 4096)
    assert result.exact and result.value == 512
    big = multiset_capacity_fast(wm, 16777216)
    assert big.best <= big.upper
    assert big.gap <= Fraction(1, 20)


def test_fast_tiny_weights():
    # weights below the float range: the relaxation works relative to the
    # largest weight, so nothing underflows
    tiny = Fraction(1, 10**400)
    wm = WeightMultiset([(tiny, 3)])
    result = multiset_capacity_fast(wm, 10)
    assert result.best == multiset_capacity_oracle(wm, 10).best == 6 * tiny
    assert result.best <= result.upper
    mixed = WeightMultiset([(tiny, 2), (tiny / 3, 5)])
    result = multiset_capacity_fast(mixed, 40)
    assert result.best <= multiset_capacity_oracle(mixed, 40).best <= result.upper


def test_exact_capacity_dispatch():
    assert CapacityProfile(Ellipsoid.ball(2), 3).interval(3) == (4, 4)
    assert CapacityProfile(Ellipsoid(1, 2), 3).interval(3) == (2, 2)
    p = MomentProfile([(0, 2), (1, 0)])
    assert CapacityProfile(p, 3).interval(3) == (2, 2)
    wm = WeightMultiset([(1, 2)])
    assert CapacityProfile(wm, 3).interval(3) == (2, 2)
    with pytest.raises(ValueError, match="capacity index must be >= 0"):
        CapacityProfile(wm, -1)
    with pytest.raises(ValueError, match="capacity index must be >= 0"):
        CapacityProfile(wm, 3).interval(-1)


def test_capacity_interval_dispatch():
    wm = WeightMultiset([(1, 2)])
    lo, hi = CapacityProfile(wm, 10).interval(10)
    assert lo == hi == multiset_capacity_oracle(wm, 10).best
    profile = CapacityProfile(wm, 10, oracle_limit=4)
    assert profile.reach == 2
    for k in range(11):
        lo, hi = profile.interval(k)
        assert lo <= multiset_capacity_oracle(wm, k).best <= hi
        if k <= profile.reach:
            assert lo == hi


def test_weyl_ratio_converges():
    assert domain_volume(Ellipsoid.ball(1)) == Fraction(1, 2)
    r = weyl_ratio(Ellipsoid.ball(1), 5000)
    assert abs(r - 1) < Fraction(1, 20)
    assert weyl_ratio(Ellipsoid.ball(1), 100) == Fraction(169, 200)
