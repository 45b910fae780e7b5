"""The budget DP kernel behind the exact oracle, the sweep and the exact
engine above the sweep's reach.

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

A class's units range over a window [L, H]: the first L units are a base
whose cost the caller takes off the budget, and the items add units
L+1..H.  The oracle and the sweep pass [0, k]; the exact engine passes the
windows its reduced costs and proximity bound leave open.

Each item starts at its normal-form cost, raised by dominance: an item of
tier j of class i is applied only at budgets of at least its own cost,
plus the cost of filling its window up to the first unit of tier j, plus
D_i(j), the cost above their bases of filling tiers 1..j of every class
before i, each within its window.  The classes come strictly heaviest
first, so an assignment that holds a unit of class i at tier >= j while
an earlier class has an open unit at tier <= j gains by swapping the one
for the other (see ``tier_plans``): no optimal assignment does that.  The
cells below each start hold only assignments that are never better, so
every dp, over every prefix of the classes, is unchanged.  A DP over
budgets 0..k runs sum(k + 1 - start) cells over its items.

The DP runs in the narrowest lane that holds its values exactly, chosen
from the value bound: the sum of the values of all items.  Every cell
dp[b - c] + v is the value of a set of distinct items, so it is at most
that bound.  Below 2^30 the DP runs in int32 (the sum of two values below
2^30 is still below 2^31), below 2^62 in int64, and otherwise on Python
integers (object dtype).  No lane can wrap, and the int32 lane moves half
the bytes per cell of the int64 one, in twice the SIMD width.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"  # the one DP kernel, named in benchmark run records
_INT32_SAFE = 2**30
_INT64_SAFE = 2**62


def half_cost(n: int, u: int) -> int:
    """Half-unit cost of u units of a class of n copies in normal form."""
    d, r = divmod(u, n)
    return n * (d * d + d) // 2 + r * (d + 1)


def _tier_items(n: int, s: int, k: int, lo: int, hi: int, ahead) -> list:
    """0/1 items (cost, scaled value, start) for units lo+1..hi of one
    class, within k half-units counted from the cost of its first lo units.
    ``ahead`` holds the classes before it as (tier, dA, dB) steps of
    D(j) = A j(j+1)/2 + B, sorted by tier; an item's start is its cost,
    plus that of the units before its tier, plus D at its tier.

    Tier j is open while the units between lo and its first unit, plus one
    of its own, plus D(j), fit in k, and it holds at most as many units as
    the rest of k pays for, which bounds the units of a dominance-normal
    assignment within k.  The items of a tier, of 1, 2, 4, ... units, take
    any count of its units by some subset.
    """
    items = []
    j = lo // n + 1  # the tier of unit lo+1
    spent = 0  # cost of units lo+1 up to the first unit of tier j
    a = b = step = 0
    while lo < hi:
        while step < len(ahead) and ahead[step][0] <= j:
            a += ahead[step][1]
            b += ahead[step][2]
            step += 1
        paid = spent + a * (j * j + j) // 2 + b  # cost before tier j
        if paid + j > k:
            break
        end = min(n * j, hi)
        cap = min(end - lo, (k - paid) // j)
        size = 1
        while cap > 0:
            t = min(size, cap)
            items.append((j * t, s * t, paid + j * t))
            cap -= t
            size *= 2
        spent += (end - lo) * j
        lo = end
        j += 1
    return items


def tier_plans(scaled, copies, k: int, windows) -> list:
    """Per class, with ``windows[i] = (L, H)``: the items (cost, value,
    start) that add units L+1..H to a base of L units, within k half-units
    beyond the bases' cost.

    Dominance (Kellerer, Pferschy and Pisinger, *Knapsack Problems*, 2004):
    with ``scaled`` strictly descending, take an assignment in the windows
    that holds a unit of class i above L at tier >= j while a class
    i' < i holds fewer than min(j n', H') units.  Moving class i's top
    unit to class i' costs no more (a tier <= j for one >= j), is worth
    strictly more (s' > s), and stays in both windows.  So an optimal
    assignment, at any budget, that takes a unit of tier j of class i has
    first filled tiers 1..j of every earlier class, which costs

        D_i(j) = sum over i' < i of max(0, half_cost(n', min(j n', H')) - half_cost(n', L'))

    above their bases, and that raises the start of every item of the
    tier.  Each earlier class adds to D the quadratic n' j(j+1)/2 -
    half_cost(n', L') from its first tier past L' and the constant
    half_cost(n', H') - half_cost(n', L') from the tier holding H', so D
    costs O(1) per tier a class visits, whatever tier its window starts at.
    """
    if any(x <= y for x, y in zip(scaled, scaled[1:])):
        raise ValueError("tier_plans needs strictly descending scaled values")
    plans = []
    ahead = []  # (tier, dA, dB) steps of D over the classes so far
    for s, n, (lo, hi) in zip(scaled, copies, windows):
        plans.append(_tier_items(n, s, k, lo, hi, ahead))
        if lo < hi:
            base = half_cost(n, lo)
            ahead += [(lo // n + 1, n, -base), (-(-hi // n), -n, half_cost(n, hi))]
            ahead.sort()
    return plans


def tier_dp(plans: list, k: int, keep: bool):
    """DP over the tier items of all classes, for half budgets 0..k.

    dp[b] is the best scaled value with cost <= b half-units above the
    bases: c_b times the common denominator when every window starts at
    0.  The DP may take a class's tier units in any mix, but all of them
    are worth the same and tier costs grow with j, so the cheapest-first
    (normal-form) assignment with as many units is never dearer: the
    optimum is a normal-form one.

    So each item updates only dp[start:].  Every optimal assignment is
    also dominance-normal (see ``tier_plans``): if it takes a unit of tier
    j of class i, it has filled tiers 1..j of the classes before i.  Along
    such an assignment, an item of tier j of class i is applied at the
    assignment's cost less that of the items taken after it, and that is
    at least its start: the earlier classes cost at least D_i(j), and the
    units of class i before tier j are taken and cost the rest.  So an
    optimum over the first i classes, at every budget, is still reached
    by the first i plans, and each dp is the optimum over its prefix of
    the classes, as with full updates.  Every dp is monotone in the
    budget, and ``backtrack``'s equality search keeps suffix +
    history[i + 1][b] = dp[k], since every history value is achieved.

    The lane is the narrowest that holds the value bound, the sum of all
    item values: int32 below 2^30, int64 below 2^62, Python integers
    (object dtype) otherwise.  Each dp[b - c] + v is the value of a set of
    distinct items, so no cell exceeds the bound and no lane wraps.
    Returns (dp, history) where history[i] is the dp before class i and
    history[-1] is dp, or (dp, None) unless ``keep``.
    """
    bound = sum(v for items in plans for _, v, _ in items)
    if bound < _INT32_SAFE:
        dtype = np.int32
    elif bound < _INT64_SAFE:
        dtype = np.int64
    else:
        dtype = object
    dp = np.zeros(k + 1, dtype=dtype)
    history = [dp] if keep else None
    for items in plans:
        if items and keep:
            dp = dp.copy()
        for c, v, start in items:
            out = dp[start:]
            np.maximum(out, dp[start - c : k + 1 - c] + v, out=out)
        if keep:
            history.append(dp)
    return dp, history


def _max_units(n: int, k: int) -> int:
    """Most units one class of n copies holds in normal form within k
    half-units."""
    d = (math.isqrt(n * n + 8 * n * k) - n) // (2 * n)
    return n * d + min(n - 1, (k - n * (d * d + d) // 2) // (d + 1))


def backtrack(scaled, copies, history: list, windows, k: int) -> list:
    """Units per class of an optimal assignment within k half-units above
    the bases: for each class, last first, a unit count in its window
    whose cost above the base explains the dp value from the dp before the
    class.  Keeping one dp per class rather than one take-array per item
    holds memory to (classes + 1) arrays."""
    units = [lo for lo, _ in windows]
    b = k
    for i in range(len(scaled) - 1, -1, -1):
        before, target = history[i], history[i + 1][b]
        if before[b] == target:
            continue
        s, n, (lo, hi) = scaled[i], copies[i], windows[i]
        base = half_cost(n, lo)
        top = min(hi, _max_units(n, base + b))
        n = min(n, top + 1)  # the same normal form for every u <= top
        u = np.arange(lo + 1, top + 1)
        d, r = np.divmod(u, n)
        cost = n * (d * d + d) // 2 + r * (d + 1) - base
        extra = u - lo
        if before.dtype == object:
            extra = extra.astype(object)
        hit = int(np.flatnonzero(before[b - cost] + extra * s == target)[0])
        units[i] = int(u[hit])
        b -= int(cost[hit])
    return units
