"""The tier DP behind the oracle, the sweep and the exact engine's window
DP, checked against direct enumeration."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from echcap._kernels import backtrack, half_cost, tier_dp, tier_plans
from echcap.capacities import _ScaledClasses, multiset_capacity_oracle
from echcap.weights import WeightMultiset


def normal_cost(n, u):
    d, r = divmod(u, n)
    return n * (d * d + d) + 2 * r * (d + 1)


def brute_per_copy(scaled, counts, budget):
    """best[b] over per-copy levels with sum (d^2 + d) <= b, for every
    b <= budget, with no normal-form assumption."""
    copies = [s for s, n in zip(scaled, counts) for _ in range(n)]
    best = [0] * (budget + 1)

    def rec(i, cost, value):
        if i == len(copies):
            for b in range(cost, budget + 1):
                best[b] = max(best[b], value)
            return
        d = 0
        while cost + d * d + d <= budget:
            rec(i + 1, cost + d * d + d, value + d * copies[i])
            d += 1

    rec(0, 0, 0)
    return best


def random_classes(rng, max_copies=3, max_total=5):
    entries = {}
    total = 0
    while total < max_total:
        n = rng.randint(1, max_copies)
        entries[Fraction(rng.randint(1, 12), rng.randint(1, 12))] = n
        total += n
        if rng.random() < 0.4:
            break
    return _ScaledClasses(WeightMultiset(entries.items()))


def plans_for(classes, k):
    return tier_plans(classes.scaled, classes.copies, k, [(0, k)] * len(classes))


def test_item_starts_at_its_normal_form_cost():
    """An item of t units of tier j (cost j t, value s t) starts at its
    cost plus the cost, above the base, of filling its window up to the
    tier's first unit, and fits in the budget."""
    rng = random.Random(99)
    for _ in range(300):
        classes = random_classes(rng, max_copies=6, max_total=12)
        windows = []
        for n in classes.copies:
            lo = rng.randint(0, 4 * n)
            windows.append((lo, lo + rng.randint(0, 5 * n)))
        k = rng.randint(0, 80)
        plans = tier_plans(classes.scaled, classes.copies, k, windows)
        for s, n, (lo, _), items in zip(classes.scaled, classes.copies, windows, plans):
            for cost, value, start in items:
                j = cost * s // value
                filled = max(lo, n * (j - 1))  # units before the tier's first
                assert start == cost + half_cost(n, filled) - half_cost(n, lo)
                assert start <= k


# one DP pass without the per-class history, and one that keeps it
@pytest.mark.parametrize("keep", [False, True], ids=["dp_round0", "dp_round1"])
def test_kernel_against_reference(keep):
    rng = random.Random(2024)
    for _ in range(40):
        classes = random_classes(rng)
        h = rng.randint(0, 20)  # the half budget: the full budget is 2h
        brute = brute_per_copy(classes.scaled, classes.copies, 2 * h + 1)
        # every cost d^2 + d is even, which is what the halving rests on
        assert all(brute[2 * b + 1] == brute[2 * b] for b in range(h + 1))
        dp, history = tier_dp(plans_for(classes, h), h, keep=keep)
        assert [int(x) for x in dp] == brute[: 2 * h + 1 : 2]
        if keep:
            # history[i] is the dp over the first i classes
            assert len(history) == len(classes) + 1
            for i, before in enumerate(history):
                assert [int(x) for x in before] == brute_per_copy(
                    classes.scaled[:i], classes.copies[:i], 2 * h
                )[::2]


def test_witness_reproduces_value_in_normal_form():
    rng = random.Random(31337)
    for _ in range(60):
        classes = random_classes(rng, max_copies=40, max_total=60)
        h = rng.randint(0, 200)
        windows = [(0, h)] * len(classes)
        dp, history = tier_dp(plans_for(classes, h), h, keep=True)
        units = backtrack(classes.scaled, classes.copies, history, windows, h)
        assert sum(u * s for u, s in zip(units, classes.scaled)) == dp[h]
        assert sum(normal_cost(n, u) for u, n in zip(units, classes.copies)) <= 2 * h
    wm = WeightMultiset([(Fraction(7, 3), 5), (Fraction(1, 4), 30)])
    result = multiset_capacity_oracle(wm, 150)
    for c in result.witness.classes:
        assert c.level >= 0 and 0 <= c.promoted < c.copies
    assert result.witness.value == result.best
    assert result.witness.cost <= 300


def test_lane_at_the_int32_threshold():
    """The lane follows the value bound, the sum of all item values:
    int32 strictly below 2^30, int64 from 2^30."""
    for value, lane in ((2**30 - 1, np.int32), (2**30, np.int64)):
        dp, _ = tier_dp([[(1, value, 1)]], 3, keep=False)
        assert dp.dtype == lane
        assert dp.tolist() == [0, value, value, value]


def test_lanes_agree_on_a_scaled_multiset():
    """One multiset scaled so that its value bound lands just below 2^30,
    just above it, and near 2^32, where dp values pass 2^31 and an int32
    lane would wrap: dp, oracle value and witness are the small instance's,
    scaled."""
    wm = WeightMultiset([(Fraction(7), 1), (Fraction(4), 3), (Fraction(1), 2)])
    k = 40
    small = _ScaledClasses(wm)
    plans = plans_for(small, k)
    bound = sum(v for items in plans for _, v, _ in items)
    dp_small, _ = tier_dp(plans, k, keep=False)
    oracle_small = multiset_capacity_oracle(wm, k)
    levels = [(c.level, c.promoted) for c in oracle_small.witness.classes]
    below, above, wrap = (2**30 - 1) // bound, -(-(2**30) // bound), (2**32 - 1) // bound
    assert wrap * max(dp_small.tolist()) >= 2**31
    lanes = []
    for t in (below, above, wrap):
        large = _ScaledClasses(wm.scaled(t))
        dp, _ = tier_dp(plans_for(large, k), k, keep=False)
        assert dp.tolist() == [t * v for v in dp_small.tolist()]
        result = multiset_capacity_oracle(wm.scaled(t), k)
        assert result.best == t * oracle_small.best
        assert [(c.level, c.promoted) for c in result.witness.classes] == levels
        lanes.append(dp.dtype)
    assert lanes == [np.int32, np.int64, np.int64]


def test_object_dtype_for_large_values():
    big = 2**70
    wm = WeightMultiset([(Fraction(3, 2), 2), (Fraction(1, 3), 4)])
    classes = _ScaledClasses(wm.scaled(big))
    k_max = 30
    dp, _ = tier_dp(plans_for(classes, k_max), k_max, keep=False)
    assert dp.dtype == object
    assert max(dp) >= 2**62
    for k in (1, 7, 30):
        small = multiset_capacity_oracle(wm, k)
        large = multiset_capacity_oracle(wm.scaled(big), k)
        assert large.best == big * small.best == Fraction(int(dp[k]), classes.denominator)
        assert large.witness.value == large.best


def test_window_dp_matches_enumeration():
    """Windows [L, H] of units per class: the DP over the budget the bases
    leave, plus the bases' value, is the best over every unit count in the
    windows, at every budget, and backtrack stays in the windows."""
    rng = random.Random(7)
    for _ in range(300):
        classes = random_classes(rng, max_copies=4, max_total=6)
        windows = []
        for n in classes.copies:
            lo = rng.randint(0, 3 * n)
            windows.append((lo, lo + rng.randint(0, 2 * n + 2)))
        base = sum(half_cost(n, lo) for n, (lo, _) in zip(classes.copies, windows))
        base_value = sum(s * lo for s, (lo, _) in zip(classes.scaled, windows))
        h = rng.randint(0, 30)
        dp, history = tier_dp(
            tier_plans(classes.scaled, classes.copies, h, windows), h, keep=True
        )
        best = [None] * (h + 1)
        for units in itertools.product(*(range(lo, hi + 1) for lo, hi in windows)):
            cost = sum(half_cost(n, u) for n, u in zip(classes.copies, units)) - base
            value = sum(s * u for s, u in zip(classes.scaled, units))
            for b in range(max(cost, 0), h + 1):
                if best[b] is None or value > best[b]:
                    best[b] = value
        assert [base_value + int(x) for x in dp] == best
        units = backtrack(classes.scaled, classes.copies, history, windows, h)
        assert all(lo <= u <= hi for u, (lo, hi) in zip(units, windows))
        assert sum(half_cost(n, u) for n, u in zip(classes.copies, units)) - base <= h
        assert sum(s * u for s, u in zip(classes.scaled, units)) == best[h]
