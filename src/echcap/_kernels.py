"""The budget DP kernel behind the exact oracle, the sweep and the fast
solver's polish.

The DP runs over the capacity index k, in half-units of the budget 2k.
Every cost of the weight formulation is even: a class at level d with r
copies promoted costs n(d^2+d) + 2r(d+1), and d^2+d is even.  So the best
value within an odd budget 2b+1 equals the best within 2b, and halving
every cost and the budget loses nothing: the array over 0..k holds exactly
the values at the even budgets 0, 2, ..., 2k, in half the cells.

A weight class of n copies of scaled weight s is a bounded knapsack in
tiers: tier j is the n units that raise a copy from level j-1 to j, each
costing j half-units and worth s.  Each tier is binary-split into 0/1 items
of 1, 2, 4, ... units (Kellerer, Pferschy and Pisinger, *Knapsack Problems*,
2004), and each item is one vectorized update of the budget array, so a
class costs O(log n) array passes per tier.  The units u of a class map to
its normal form (level, promoted) = divmod(u, n).
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"  # the one DP kernel, named in benchmark run records
_INT64_SAFE = 2**62


def _tier_items(n: int, s: int, k: int, d_lo: int, u_hi: int) -> list:
    """0/1 items (cost, scaled value) for the tiers of one class above its
    first ``d_lo`` tiers, up to ``u_hi`` units in all, within k half-units.

    Tier j is open while n(j^2-j)/2 + j <= k, and holds at most
    (k - n(j^2-j)/2) // j units, which bounds the units of a normal-form
    assignment within k.  The items of a tier, of 1, 2, 4, ... units, take
    any count of its units by some subset.
    """
    items = []
    j = d_lo + 1
    while n * (j * j - j) // 2 + j <= k and n * (j - 1) < u_hi:
        cap = min(n, u_hi - n * (j - 1), (k - n * (j * j - j) // 2) // j)
        size = 1
        while cap > 0:
            t = min(size, cap)
            items.append((j * t, s * t))
            cap -= t
            size *= 2
        j += 1
    return items


def open_windows(count: int, k: int) -> list:
    """Windows that leave each of ``count`` classes free: no base, and no
    unit cap beyond the half budget k (each unit costs at least 1)."""
    return [(0, k)] * count


def tier_plans(scaled, copies, k: int, windows) -> list:
    """Per class, with ``windows[i] = (d_lo, u_hi)``: either no units, or
    the first d_lo tiers as one forced base plus up to u_hi units in all,
    within k half-units.  A plan is (base cost, base value, items), or None
    when the base alone is over k and only the empty option remains."""
    plans = []
    for s, n, (d_lo, u_hi) in zip(scaled, copies, windows):
        base = n * (d_lo * d_lo + d_lo) // 2
        if base > k:
            plans.append(None)
        else:
            plans.append((base, n * d_lo * s, _tier_items(n, s, k, d_lo, u_hi)))
    return plans


def tier_dp(plans: list, k: int, keep: bool):
    """DP over the tier items of all classes, for half budgets 0..k.

    dp[b] is the best scaled value with cost <= b half-units, that is c_b
    times the common denominator.  The DP may take a class's tier units in
    any mix, but all of them are worth the same and tier costs grow with
    j, so the cheapest-first (normal-form) assignment with as many units is
    never dearer: the optimum is a normal-form one.  Values that may reach
    2^62 run on Python integers (object dtype).  Returns (dp, history)
    where history[i] is the dp before class i and history[-1] is dp, or
    (dp, None) unless ``keep``.
    """
    bound = sum(p[1] + sum(v for _, v in p[2]) for p in plans if p)
    dtype = np.int64 if bound < _INT64_SAFE else object
    dp = np.zeros(k + 1, dtype=dtype)
    history = [dp] if keep else None
    for plan in plans:
        if plan is not None:
            base, base_value, items = plan
            cur = dp.copy() if keep or base else dp
            for c, v in items:
                np.maximum(cur[c:], cur[:-c] + v, out=cur[c:])
            if base:
                # the window on top of the forced base, or the empty option
                out = dp.copy() if keep else dp
                np.maximum(out[base:], cur[: k + 1 - base] + base_value, out=out[base:])
                cur = out
            dp = cur
        if keep:
            history.append(dp)
    return dp, history


def _max_units(n: int, k: int) -> int:
    """Most units one class of n copies holds in normal form within k
    half-units."""
    d = (math.isqrt(n * n + 8 * n * k) - n) // (2 * n)
    return n * d + min(n - 1, (k - n * (d * d + d) // 2) // (d + 1))


def backtrack(scaled, copies, history: list, windows, k: int) -> list:
    """Units per class of an optimal assignment within k half-units: for
    each class, last first, a unit count in normal form that explains the
    dp value from the dp before the class.  Keeping one dp per class rather
    than one take-array per item holds memory to (classes + 1) arrays."""
    units = [0] * len(scaled)
    b = k
    for i in range(len(scaled) - 1, -1, -1):
        before, target = history[i], history[i + 1][b]
        if before[b] == target:
            continue
        s, (d_lo, u_hi) = scaled[i], windows[i]
        n = min(copies[i], b + 1)  # more copies than b never reach level 1
        u = np.arange(max(n * d_lo, 1), min(u_hi, _max_units(n, b)) + 1)
        d, r = np.divmod(u, n)
        cost = n * (d * d + d) // 2 + r * (d + 1)
        if before.dtype == object:
            u = u.astype(object)
        hit = int(np.flatnonzero(before[b - cost] + u * s == target)[0])
        units[i] = int(u[hit])
        b -= int(cost[hit])
    return units
