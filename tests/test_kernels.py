"""The tier DP behind the oracle, the sweep and the fast solver's polish,
checked against direct enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from echcap._kernels import backtrack, open_windows, tier_dp, tier_plans
from echcap.capacities import (
    _polish,
    _ScaledClasses,
    _Solution,
    multiset_capacity_oracle,
)
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
    windows = open_windows(len(classes), k)
    return tier_plans(classes.scaled, classes.copies, k, windows)


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
        windows = open_windows(len(classes), h)
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


def enumerate_window(classes, levels, window, budget):
    """Best scaled value with each class empty or at levels within
    ``window`` of ``levels``, by enumerating every combination."""
    choices = []
    for n, d in zip(classes.copies, levels):
        lo = n * max(0, d - window)
        hi = n * (d + window + 1) - 1
        choices.append([0] + list(range(max(lo, 1), hi + 1)))
    best = 0
    for units in itertools.product(*choices):
        cost = sum(normal_cost(n, u) for n, u in zip(classes.copies, units))
        if cost <= budget:
            best = max(best, sum(u * s for u, s in zip(units, classes.scaled)))
    return best


def test_polish_matches_window_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        classes = random_classes(rng, max_copies=4, max_total=6)
        budget = rng.randint(4, 80)
        window = rng.randint(0, 2)
        sol = _Solution(classes, [rng.randint(0, 4) for _ in range(len(classes))])
        while sol.cost > budget:
            sol.demote(max(range(len(classes)), key=lambda i: sol.levels[i]))
        polished = _polish(classes, sol, budget, window)
        expected = max(
            enumerate_window(classes, sol.levels, window, budget), sol.scaled_value()
        )
        assert polished.scaled_value() == expected
        assert polished.cost <= budget
        assert all(0 <= r < n for r, n in zip(polished.promoted, classes.copies))
