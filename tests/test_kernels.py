"""The tier DP behind the oracle, the sweep and the exact engine's window
DP, checked against direct enumeration."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from echcap import capacities
from echcap._kernels import backtrack, half_cost, tier_dp, tier_plans
from echcap.capacities import multiset_capacity_fast, multiset_capacity_oracle
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
    return WeightMultiset(entries.items())._scaled


def plans_for(scaled, copies, k):
    return tier_plans(scaled, copies, k, [(0, k)] * len(scaled))


def dominance(copies, windows, i, j):
    """D_i(j): the cost above their bases of filling tiers 1..j of every
    class before i, each within its window."""
    return sum(
        max(0, half_cost(n, min(j * n, hi)) - half_cost(n, lo))
        for n, (lo, hi) in zip(copies[:i], windows[:i])
    )


def test_item_starts_at_its_dominance_raised_cost():
    """An item of t units of tier j (cost j t, value s t) of class i starts
    at its cost, plus the cost above the base of filling its window up to
    the tier's first unit, plus D_i(j), and fits in the budget; the first
    tier left out is past the window or starts over the budget."""
    rng = random.Random(99)
    for _ in range(300):
        scaled, copies, _ = random_classes(rng, max_copies=6, max_total=12)
        windows = []
        for n in copies:
            lo = rng.randint(0, 4 * n)
            windows.append((lo, lo + rng.randint(0, 5 * n)))
        k = rng.randint(0, 80)
        plans = tier_plans(scaled, copies, k, windows)
        for i, (s, n, (lo, hi), items) in enumerate(
            zip(scaled, copies, windows, plans)
        ):
            tiers = set()
            for cost, value, start in items:
                j = cost * s // value
                tiers.add(j)
                filled = max(lo, n * (j - 1))  # units before the tier's first
                paid = half_cost(n, filled) - half_cost(n, lo)
                paid += dominance(copies, windows, i, j)
                assert start == cost + paid
                assert start <= k
            j = lo // n + 1 + len(tiers)
            assert tiers == set(range(lo // n + 1, j))
            filled = max(lo, n * (j - 1))
            paid = half_cost(n, filled) - half_cost(n, lo)
            assert filled >= hi or paid + j + dominance(copies, windows, i, j) > k


def _plain_tier_items(n, s, k, lo, hi):
    """Items of one class with starts raised by its own earlier tiers
    only, as before the dominance rule: the reference ``tier_plans`` is
    checked against."""
    items = []
    j = lo // n + 1
    spent = 0
    while lo < hi and spent + j <= k:
        end = min(n * j, hi)
        cap = min(end - lo, (k - spent) // j)
        size = 1
        while cap > 0:
            t = min(size, cap)
            items.append((j * t, s * t, spent + j * t))
            cap -= t
            size *= 2
        spent += (end - lo) * j
        lo = end
        j += 1
    return items


def _same_as_plain_plans(scaled, copies, k, windows):
    """The dominance-raised plans cut no value: every per-class dp and the
    witness equal those of the plain plans, at every budget; returns the
    raised plans' cells and the plain ones'."""
    plans = tier_plans(scaled, copies, k, windows)
    plain = [_plain_tier_items(n, s, k, lo, hi) for s, n, (lo, hi) in zip(scaled, copies, windows)]
    _, history = tier_dp(plans, k, keep=True)
    _, plain_history = tier_dp(plain, k, keep=True)
    for dp, plain_dp in zip(history, plain_history):
        assert np.array_equal(dp, plain_dp)
    for b in range(k + 1) if k <= 40 else (0, k // 2, k):
        units = backtrack(scaled, copies, history, windows, b)
        assert units == backtrack(scaled, copies, plain_history, windows, b)
        extra = [u - lo for u, (lo, _) in zip(units, windows)]
        assert sum(s * x for s, x in zip(scaled, extra)) == history[-1][b]
        cost = sum(half_cost(n, u) - half_cost(n, lo) for n, u, (lo, _) in zip(copies, units, windows))
        assert cost <= b
    return (
        sum(k + 1 - start for items in plans for _, _, start in items),
        sum(k + 1 - start for items in plain for _, _, start in items),
    )


def test_raised_starts_match_plain_plans():
    """Random classes, windows and budgets: the same dp arrays over every
    prefix of the classes and the same witnesses as the plain plans, and
    the brute force over per-copy levels where the windows are [0, h]."""
    rng = random.Random(4242)
    cut = 0
    for trial in range(400):
        scaled, copies, _ = random_classes(rng, max_copies=5, max_total=10 if trial % 2 else 4)
        h = rng.randint(0, 40 if trial % 2 else 16)
        if trial % 2:
            windows = []
            for n in copies:
                lo = rng.randint(0, 4 * n)
                windows.append((lo, lo + rng.randint(0, 5 * n)))
        else:
            windows = [(0, h)] * len(scaled)
        cells, plain_cells = _same_as_plain_plans(scaled, copies, h, windows)
        cut += cells < plain_cells
        if not trial % 2:
            dp, _ = tier_dp(plans_for(scaled, copies, h), h, keep=False)
            assert dp.tolist() == brute_per_copy(scaled, copies, 2 * h)[::2]
    assert cut > 100  # the rule does raise starts


def test_raised_starts_match_plain_plans_in_engine_windows(monkeypatch):
    """The window DPs of ``multiset_capacity_fast``, recorded as the engine
    builds them, give the dp arrays and witnesses of the plain plans."""
    calls = []

    def record(scaled, copies, k, windows):
        calls.append((list(scaled), list(copies), k, list(windows)))
        return tier_plans(scaled, copies, k, windows)

    monkeypatch.setattr(capacities, "tier_plans", record)
    rng = random.Random(515)
    while len(calls) < 60:
        entries = {}
        for _ in range(rng.randint(2, 8)):
            entries[Fraction(rng.randint(1, 40), rng.randint(1, 40))] = rng.choice(
                (1, 2, rng.randint(1, 30), rng.randint(1, 10**4))
            )
        k = rng.choice((rng.randint(10**3, 10**5), rng.randint(10**5, 10**9)))
        multiset_capacity_fast(WeightMultiset(entries.items()), k)
    cut = 0
    for scaled, copies, budget, windows in calls:
        if budget <= 10**6:
            cells, plain_cells = _same_as_plain_plans(scaled, copies, budget, windows)
            cut += cells < plain_cells
    assert cut > 10


def test_plans_need_strictly_descending_values():
    """The dominance rule rests on strictly heavier earlier classes: equal
    or rising scaled values are refused."""
    for scaled in ([3, 3], [2, 5], [9, 4, 4]):
        with pytest.raises(ValueError, match="strictly descending"):
            tier_plans(scaled, [1] * len(scaled), 10, [(0, 10)] * len(scaled))


# one DP pass without the per-class history, and one that keeps it
@pytest.mark.parametrize("keep", [False, True], ids=["dp_round0", "dp_round1"])
def test_kernel_against_reference(keep):
    rng = random.Random(2024)
    for _ in range(40):
        scaled, copies, _ = random_classes(rng)
        h = rng.randint(0, 20)  # the half budget: the full budget is 2h
        brute = brute_per_copy(scaled, copies, 2 * h + 1)
        # every cost d^2 + d is even, which is what the halving rests on
        assert all(brute[2 * b + 1] == brute[2 * b] for b in range(h + 1))
        dp, history = tier_dp(plans_for(scaled, copies, h), h, keep=keep)
        assert [int(x) for x in dp] == brute[: 2 * h + 1 : 2]
        if keep:
            # history[i] is the dp over the first i classes
            assert len(history) == len(scaled) + 1
            for i, before in enumerate(history):
                assert [int(x) for x in before] == brute_per_copy(
                    scaled[:i], copies[:i], 2 * h
                )[::2]


def test_witness_reproduces_value_in_normal_form():
    rng = random.Random(31337)
    for _ in range(60):
        scaled, copies, _ = random_classes(rng, max_copies=40, max_total=60)
        h = rng.randint(0, 200)
        windows = [(0, h)] * len(scaled)
        dp, history = tier_dp(plans_for(scaled, copies, h), h, keep=True)
        units = backtrack(scaled, copies, history, windows, h)
        assert sum(u * s for u, s in zip(units, scaled)) == dp[h]
        assert sum(normal_cost(n, u) for u, n in zip(units, copies)) <= 2 * h
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
    plans = plans_for(*wm._scaled[:2], k)
    bound = sum(v for items in plans for _, v, _ in items)
    dp_small, _ = tier_dp(plans, k, keep=False)
    oracle_small = multiset_capacity_oracle(wm, k)
    levels = [(c.level, c.promoted) for c in oracle_small.witness.classes]
    below, above, wrap = (2**30 - 1) // bound, -(-(2**30) // bound), (2**32 - 1) // bound
    assert wrap * max(dp_small.tolist()) >= 2**31
    lanes = []
    for t in (below, above, wrap):
        dp, _ = tier_dp(plans_for(*wm.scaled(t)._scaled[:2], k), k, keep=False)
        assert dp.tolist() == [t * v for v in dp_small.tolist()]
        result = multiset_capacity_oracle(wm.scaled(t), k)
        assert result.best == t * oracle_small.best
        assert [(c.level, c.promoted) for c in result.witness.classes] == levels
        lanes.append(dp.dtype)
    assert lanes == [np.int32, np.int64, np.int64]


def test_object_dtype_for_large_values():
    big = 2**70
    wm = WeightMultiset([(Fraction(3, 2), 2), (Fraction(1, 3), 4)])
    scaled, copies, den = wm.scaled(big)._scaled
    k_max = 30
    dp, _ = tier_dp(plans_for(scaled, copies, k_max), k_max, keep=False)
    assert dp.dtype == object
    assert max(dp) >= 2**62
    for k in (1, 7, 30):
        small = multiset_capacity_oracle(wm, k)
        large = multiset_capacity_oracle(wm.scaled(big), k)
        assert large.best == big * small.best == Fraction(int(dp[k]), den)
        assert large.witness.value == large.best


def test_window_dp_matches_enumeration():
    """Windows [L, H] of units per class: the DP over the budget the bases
    leave, plus the bases' value, is the best over every unit count in the
    windows, at every budget, and backtrack stays in the windows."""
    rng = random.Random(7)
    for _ in range(300):
        scaled, copies, _ = random_classes(rng, max_copies=4, max_total=6)
        windows = []
        for n in copies:
            lo = rng.randint(0, 3 * n)
            windows.append((lo, lo + rng.randint(0, 2 * n + 2)))
        base = sum(half_cost(n, lo) for n, (lo, _) in zip(copies, windows))
        base_value = sum(s * lo for s, (lo, _) in zip(scaled, windows))
        h = rng.randint(0, 30)
        dp, history = tier_dp(
            tier_plans(scaled, copies, h, windows), h, keep=True
        )
        best = [None] * (h + 1)
        for units in itertools.product(*(range(lo, hi + 1) for lo, hi in windows)):
            cost = sum(half_cost(n, u) for n, u in zip(copies, units)) - base
            value = sum(s * u for s, u in zip(scaled, units))
            for b in range(max(cost, 0), h + 1):
                if best[b] is None or value > best[b]:
                    best[b] = value
        assert [base_value + int(x) for x in dp] == best
        units = backtrack(scaled, copies, history, windows, h)
        assert all(lo <= u <= hi for u, (lo, hi) in zip(units, windows))
        assert sum(half_cost(n, u) for n, u in zip(copies, units)) - base <= h
        assert sum(s * u for s, u in zip(scaled, units)) == best[h]
