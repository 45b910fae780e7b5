import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from echcap import capacities
from echcap.capacities import (
    CapacityProfile,
    _floor_sum,
    as_region,
    as_weights,
    ball_capacity,
    ellipsoid_capacity,
    multiset_capacity_fast,
    multiset_capacity_oracle,
    multiset_capacity_sweep,
    multiset_capacity_table,
    weyl_ratio,
)
from echcap.domainfile import load_domain, save_domain
from echcap.errors import ResourceLimitError
from echcap.geometry import Ellipsoid, MomentProfile, area
from echcap.quasiflat import ParameterVector, build_domain
from echcap.weights import WeightMultiset, ellipsoid_weights


def brute_ellipsoid(a, b, k_max):
    """The k_max + 1 smallest of {ma + nb : m, n >= 0}, with multiplicity,
    by listing every lattice value up to a bound and sorting.  The triangle
    with legs t/a and t/b holds at least t^2 / 2ab lattice points, so
    t = sqrt(2ab(k_max + 1)) + a suffices."""
    a, b = Fraction(a), Fraction(b)
    lcm = math.lcm(a.denominator, b.denominator)
    av, bv = int(a * lcm), int(b * lcm)
    bound = math.isqrt(2 * av * bv * (k_max + 1)) + av
    values = sorted(
        m * av + n * bv
        for n in range(bound // bv + 1)
        for m in range((bound - n * bv) // av + 1)
    )
    assert len(values) > k_max
    return [Fraction(v, lcm) for v in values[: k_max + 1]]


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


def continued_fraction(quotients):
    x = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        x = q + 1 / x
    return x


def test_floor_sum_against_direct_sum():
    rng = random.Random(99)
    cases = [(0, 5, 3, 2), (7, 4, 0, 1), (7, 4, 0, 9), (1, 1, 0, 0), (5, 3, 11, 17)]
    for _ in range(2000):
        n = rng.randint(0, 60)
        m = rng.randint(1, 50)
        a = rng.choice([0, rng.randint(0, 120), rng.randint(0, 10**6)])
        b = rng.choice([0, rng.randint(0, m - 1), rng.randint(m, 10**6)])
        cases.append((n, m, a, b))
    for n, m, a, b in cases:
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_ellipsoid_against_sorted_enumeration():
    rng = random.Random(5)
    # rational axes whose denominators differ
    for a, b in [(Fraction(2, 3), Fraction(5, 7)), (Fraction(3, 4), Fraction(11, 6)),
                 (Fraction(1, 9), Fraction(13, 10)), (Fraction(7, 5), Fraction(7, 2))]:
        expected = brute_ellipsoid(a, b, 3000)
        ks = list(range(200)) + [rng.randint(200, 3000) for _ in range(200)] + [3000]
        for k in ks:
            assert ellipsoid_capacity(Ellipsoid(a, b), k) == expected[k]
    # 17 weight classes, b/a = [2; q_1, ..., q_16], near k = 10^5
    ratio = continued_fraction([2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 1, 2, 1, 1, 2, 1, 2])
    e = Ellipsoid(ratio.denominator, ratio.numerator)
    assert len(ellipsoid_weights(e)) == 17
    k_top = 10**5 + 37
    expected = brute_ellipsoid(e.a, e.b, k_top)
    for k in [0, 1, 2, 3, k_top] + [rng.randint(k_top - 3000, k_top) for _ in range(60)]:
        assert ellipsoid_capacity(e, k, k_limit=k_top) == expected[k]


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


@pytest.mark.parametrize(
    "entries, lane, den",
    [
        ([(2, 3), (1, 5)], "int32", 1),
        ([(2, 3), (Fraction(1, 2), 5)], "int32", 2),
        ([(Fraction(1, 2**70), 40)], "int32", 2**70),
        ([(10**9, 3), (1, 5)], "int64", 1),
        ([(Fraction(10**9, 7), 3), (Fraction(1, 3), 5)], "int64", 21),
        ([(10**20, 2), (1, 3)], "object", 1),
        ([(1, 4), (Fraction(1, 10**30), 3)], "object", 10**30),
    ],
)
def test_sweep_fractions_match_the_constructor(entries, lane, den):
    """Every c_k of the sweep is a real Fraction equal, hash, repr and
    pickle included, to Fraction(v, den) on the integer table, in every
    DP lane and with den = 1 and den != 1; each call returns a new list."""
    wm = WeightMultiset(entries)
    table, table_den = multiset_capacity_table(wm, 60)
    assert (table.dtype.name, table_den) == (lane, den)
    sweep = multiset_capacity_sweep(wm, 60)
    assert len(sweep) == 61
    for x, v in zip(sweep, table):
        ref = Fraction(int(v), den)
        assert type(x) is Fraction
        assert type(x.numerator) is int and type(x.denominator) is int
        assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref)
        assert pickle.dumps(x) == pickle.dumps(ref)
    again = multiset_capacity_sweep(wm, 60)
    assert again == sweep and again is not sweep


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
        assert fast.exact and fast.best == oracle.best
        assert fast.witness.cost <= 2 * k


def test_fast_interval_contract():
    wm = WeightMultiset([(Fraction(1, 8), 4096), (Fraction(1, 4096), 68719476736)])
    result = multiset_capacity_fast(wm, 4096)
    assert result.exact and result.value == 512
    big = multiset_capacity_fast(wm, 16777216)
    assert big.exact and big.witness.value == big.value
    assert big.witness.cost <= 2 * 16777216


def test_fast_tiny_weights():
    # weights far below the float range: the engine runs on integers and
    # Fractions only
    tiny = Fraction(1, 10**400)
    wm = WeightMultiset([(tiny, 3)])
    result = multiset_capacity_fast(wm, 10)
    assert result.best == multiset_capacity_oracle(wm, 10).best == 6 * tiny
    assert result.exact
    mixed = WeightMultiset([(tiny, 2), (tiny / 3, 5)])
    result = multiset_capacity_fast(mixed, 40)
    assert result.value == multiset_capacity_oracle(mixed, 40).best


def random_multiset(rng, classes, weights, copies):
    entries = {}
    for _ in range(classes):
        entries[rng.choice(weights)] = rng.choice(copies)
    return WeightMultiset(entries.items())


def test_fast_exact_against_sweep():
    """Exact, with a witness of cost <= 2k worth c_k, against one DP sweep:
    weights from a short list of small ratios (so tier ratios tie across
    classes), up to 10^6 copies, more than 20 classes, and k = 0."""
    rng = random.Random(2718)
    tied = [Fraction(p, q) for p in (1, 2, 3, 4, 6) for q in (1, 2, 3)]
    spread = [Fraction(p, q) for p in range(1, 41) for q in range(1, 41)]
    copies = [1, 2, 3, 7, 30, 500, 10**6]
    cases = []
    for _ in range(40):
        cases.append((random_multiset(rng, rng.randint(1, 8), tied, copies), 20000))
    for _ in range(25):
        cases.append((random_multiset(rng, rng.randint(21, 30), spread, copies), 3000))
    for wm, k_top in cases:
        k_max = rng.randint(1, k_top)
        table, den = multiset_capacity_table(wm, k_max, oracle_limit=2 * k_max)
        for k in [0, 1, k_max] + rng.sample(range(k_max), 12):
            result = multiset_capacity_fast(wm, k)
            assert result.exact and result.value == Fraction(int(table[k]), den)
            assert result.witness.value == result.value
            assert result.witness.cost <= 2 * k


def test_fast_fallback_interval_is_sound(monkeypatch):
    """With no DP cells allowed, a query the incumbent does not settle
    comes back as [incumbent, floor(V_LP)], which holds c_k."""
    monkeypatch.setattr(capacities, "_CELL_LIMIT", 0)
    rng = random.Random(31)
    spread = [Fraction(p, q) for p in range(1, 31) for q in range(1, 31)]
    fallbacks = 0
    for _ in range(150):
        wm = random_multiset(rng, rng.randint(1, 6), spread, [1, 2, 5, 40, 10**4])
        k = rng.randint(0, 3000)
        result = multiset_capacity_fast(wm, k)
        c_k = multiset_capacity_oracle(wm, k, oracle_limit=6000).best
        assert result.best <= c_k <= result.upper
        assert result.exact == (result.best == result.upper)
        assert result.witness.value == result.best and result.witness.cost <= 2 * k
        fallbacks += not result.exact
    assert fallbacks > 20


def test_fast_quasiflat_far_above_the_sweep():
    # the quasi-flat (16, 256) at k = 10^7: a full sweep to the budget
    # 2 * 10^7 gives 82157/2
    wm = WeightMultiset([(Fraction(1, 4), 256), (Fraction(1, 256), 256**3)])
    result = multiset_capacity_fast(wm, 10**7)
    assert result.exact and result.value == Fraction(82157, 2)
    assert result.witness.cost <= 2 * 10**7


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


def test_profile_above_reach_runs_no_sweep(monkeypatch):
    """A profile asked only above its reach never builds the sweep table;
    the first query at or below the reach builds it once."""
    calls = []

    def table(*args):
        calls.append(args)
        return multiset_capacity_table(*args)

    monkeypatch.setattr(capacities, "multiset_capacity_table", table)
    wm = WeightMultiset([(Fraction(3, 2), 4), (Fraction(1, 3), 7)])
    profile = CapacityProfile(wm, 40, oracle_limit=10)
    assert profile.reach == 5
    for k in (6, 23, 40):
        assert profile.interval(k)[0] == multiset_capacity_oracle(wm, k).best
    assert calls == []
    for k in (5, 0, 3):
        assert profile.interval(k)[0] == multiset_capacity_oracle(wm, k).best
    assert len(calls) == 1


def test_weyl_ratio_converges():
    assert CapacityProfile(Ellipsoid.ball(1), 0).volume == Fraction(1, 2)
    r = weyl_ratio(Ellipsoid.ball(1), 5000)
    assert abs(r - 1) < Fraction(1, 20)
    assert weyl_ratio(Ellipsoid.ball(1), 100) == Fraction(169, 200)


@pytest.mark.parametrize(
    "domain, weights",
    [
        (Ellipsoid.ball(2), [(2, 1)]),
        (Ellipsoid(1, Fraction(5, 2)), [(1, 2), (Fraction(1, 2), 2)]),
        (MomentProfile([(0, 3), (1, 1), (3, 0)]), [(2, 1), (1, 2)]),
        (WeightMultiset([(Fraction(2, 3), 5), (1, 1)]), [(1, 1), (Fraction(2, 3), 5)]),
        (ParameterVector([4, 16]), [(Fraction(1, 2), 16), (Fraction(1, 16), 4096)]),
    ],
)
def test_as_weights_of_domain_files(domain, weights, tmp_path):
    path = tmp_path / "domain.json"
    save_domain(domain, path)
    assert as_weights(load_domain(path)) == WeightMultiset(weights)


@pytest.mark.parametrize("obj", [object(), Fraction(1), [(0, 1), (1, 0)], {"type": "ball"}])
def test_as_weights_of_other_objects(obj):
    with pytest.raises(TypeError, match="unsupported domain type"):
        as_weights(obj)
    with pytest.raises(TypeError, match="unsupported domain type"):
        CapacityProfile(obj, 3)


@pytest.mark.parametrize(
    "domain, region",
    [
        (Ellipsoid.ball(2), Ellipsoid.ball(2)),
        (Ellipsoid(1, Fraction(5, 2)), Ellipsoid(1, Fraction(5, 2))),
        (MomentProfile([(0, 3), (1, 1), (3, 0)]), MomentProfile([(0, 3), (1, 1), (3, 0)])),
        (WeightMultiset([(Fraction(2, 3), 5), (1, 1)]), None),
        (ParameterVector([4, 16]), build_domain(ParameterVector([4, 16]))),
    ],
)
def test_as_region_of_domain_files(domain, region, tmp_path):
    """A moment region as is, a quasi-flat vector by its realization, and
    none for weights."""
    path = tmp_path / "domain.json"
    save_domain(domain, path)
    assert as_region(load_domain(path)) == region


@pytest.mark.parametrize("obj", [object(), Fraction(1), [(0, 1), (1, 0)], {"type": "ball"}])
def test_as_region_of_other_objects(obj):
    with pytest.raises(TypeError, match="unsupported domain type"):
        as_region(obj)


def random_region(rng):
    """An ellipsoid, or a convex profile of 1-6 edges with rational slopes
    and lengths."""
    if rng.random() < 0.3:
        return Ellipsoid(*(Fraction(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(2)))
    slopes = {Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))}
    pts = [(Fraction(0), Fraction(0))]
    for s in sorted(slopes, reverse=True):  # steepest first: convex
        dx = Fraction(rng.randint(1, 20), rng.randint(1, 8))
        pts.append((pts[-1][0] + dx, pts[-1][1] - s * dx))
    lift = -pts[-1][1]
    return MomentProfile([(x, y + lift) for x, y in pts])


def test_profile_volume_is_the_area():
    """An ellipsoid's volume is its triangle's area; a profile's is the
    total ball volume of its weights, which fill the region exactly."""
    rng = random.Random(2014)
    for _ in range(2000):
        region = random_region(rng)
        assert CapacityProfile(region, 0).volume == area(region)
    w = WeightMultiset([(Fraction(1, 2), 16), (Fraction(1, 16), 4096)])
    assert CapacityProfile(ParameterVector([4, 16]), 0).volume == w.total_area() == 10
