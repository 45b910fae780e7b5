"""Capacity engines: ball closed form, ellipsoid lattice counting, and the
weight-multiset optimizer: an exact budget DP (the oracle and the sweep),
and above the sweep's reach an exact engine that runs the same DP over the
few units per class that the tier LP leaves open.

The weight formulation: a multiset with n_i copies of weight a_i has

    c_k = max { sum d_{i,j} a_i  :  sum (d_{i,j}^2 + d_{i,j}) <= 2k }

over nonnegative integer levels d_{i,j}, one per copy.  Within a class of
equal weights an exchange argument lets levels differ by at most one
("convexity-normal form"), so a class is described by a base level d and a
promoted count r: cost n(d^2+d) + 2r(d+1), value (nd+r)a.

The DPs run on the multiset's integer form ``WeightMultiset._scaled`` =
(s, n, D), a_i = s_i / D, built with it; only answers become Fractions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._kernels import _max_units, backtrack, half_cost, tier_dp, tier_plans
from .errors import ResourceLimitError
from .geometry import Ellipsoid, MomentProfile, area
from .quasiflat import ParameterVector, build_domain, build_weights
from .scalars import Scalar, fractions_over, integer_form
from .weights import WeightMultiset, ellipsoid_weights, weight_expansion

# The largest DP budget 2k of the oracle and the sweep, so CapacityProfile
# sweeps c_k up to k = 2 * 10**5 and asks the exact engine above that
DEFAULT_ORACLE_LIMIT = 4 * 10**5


@dataclass(frozen=True)
class ClassAssignment:
    """Normal-form levels for one weight class: n copies at level d, r of
    them promoted to d+1."""

    weight: Scalar
    copies: int
    level: int
    promoted: int

    @property
    def cost(self) -> int:
        d, r = self.level, self.promoted
        return self.copies * (d * d + d) + 2 * r * (d + 1)

    @property
    def value(self) -> Scalar:
        return (self.copies * self.level + self.promoted) * self.weight


@dataclass(frozen=True)
class CandidateAssignment:
    classes: tuple

    @property
    def cost(self) -> int:
        return sum(c.cost for c in self.classes)

    @property
    def value(self) -> Scalar:
        return sum((c.value for c in self.classes), Fraction(0))


@dataclass(frozen=True)
class CapacityResult:
    best: Scalar
    upper: Scalar
    exact: bool
    witness: Optional[CandidateAssignment] = None

    @property
    def value(self) -> Scalar:
        if not self.exact:
            raise ValueError("capacity is only certified as an interval")
        return self.best

    @property
    def gap(self) -> Scalar:
        return relative_gap(self.best, self.upper)


def relative_gap(lo: Scalar, hi: Scalar) -> Scalar:
    """(hi - lo) / lo for an interval on c_k, and 0 when lo = 0 or lo = hi."""
    return Fraction(0) if lo == 0 or lo == hi else (hi - lo) / lo


def ball_capacity(a, k: int) -> Scalar:
    """c_k(B(a)) = d*a with d the largest integer with d(d+1)/2 <= k."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("ball size must be positive")
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    d = (math.isqrt(8 * k + 1) - 1) // 2
    return d * a


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n, a, b >= 0 and m >= 1, in
    O(log m) steps of the Euclidean recursion: reduce a and b modulo m,
    then count the same lattice points by rows instead of columns, which
    swaps the roles of m and a."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def ellipsoid_capacity(e: Ellipsoid, k: int, k_limit: Optional[int] = None) -> Scalar:
    """(k+1)-st smallest element, with multiplicity, of {ma + nb : m, n >= 0}.

    Binary search on t with the lattice counting function
    N(t) = sum_{n=0}^{q} (floor((t - nb)/a) + 1), q = floor(t/b); the
    smallest t with N(t) >= k+1 is itself a lattice value.  With the axes
    scaled to integers and the columns taken from n = q down, N(t) is
    q + 1 plus the floor sum over i = 0..q of floor((i*b + t - q*b)/a), so
    each step costs O(log) integer operations, not O(t/b).
    """
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    if k_limit is not None and k > k_limit:
        raise ResourceLimitError(
            f"k={k} above the configured ellipsoid counting range {k_limit}"
        )
    if k == 0:
        return Fraction(0)
    (av, bv), den = integer_form((e.a, e.b))

    def count(t: int) -> int:
        q = t // bv
        return q + 1 + _floor_sum(q + 1, av, bv, t - q * bv)

    lo, hi = 0, av * k
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, den)


def _witness_result(w: WeightMultiset, best: int, upper: int, units, k: int) -> CapacityResult:
    """[best, upper] / D on c_k, with ``units`` per class in normal form as
    the witness of ``best``."""
    witness = CandidateAssignment(
        tuple(ClassAssignment(wt, n, *divmod(u, n)) for (wt, n), u in zip(w.entries, units))
    )
    den = w._scaled[2]
    lo = Fraction(best, den)
    assert witness.value == lo and witness.cost <= 2 * k
    return CapacityResult(lo, Fraction(upper, den), best == upper, witness)


def _full_dp(w: WeightMultiset, k: int, oracle_limit: int, keep: bool) -> tuple:
    """The budget DP over every unit of every class, run in half-units over
    0..k: (windows, dp, history), the history kept iff ``keep``."""
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    if 2 * k > oracle_limit:
        raise ResourceLimitError(
            f"DP budget {2 * k} exceeds the oracle limit {oracle_limit}"
        )
    scaled, copies, _ = w._scaled
    windows = [(0, k)] * len(scaled)
    return (windows, *tier_dp(tier_plans(scaled, copies, k, windows), k, keep=keep))


def multiset_capacity_oracle(
    w: WeightMultiset, k: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> CapacityResult:
    """Exact optimum of the weight formulation by dynamic programming up to
    the budget 2k (run in half-units, over 0..k), with the optimizing
    assignment as witness."""
    windows, dp, history = _full_dp(w, k, oracle_limit, keep=True)
    scaled, copies, _ = w._scaled
    units = backtrack(scaled, copies, history, windows, k)
    return _witness_result(w, int(dp[k]), int(dp[k]), units, k)


def multiset_capacity_table(
    w: WeightMultiset, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple:
    """One DP sweep up to the budget 2*k_max, run in half-units:
    (dp, denominator) with c_k = dp[k] / denominator for every k in
    0..k_max."""
    _, dp, _ = _full_dp(w, k_max, oracle_limit, keep=False)
    return dp, w._scaled[2]


def multiset_capacity_sweep(
    w: WeightMultiset, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> list:
    """Exact c_k for every k in 0..k_max from a single DP run, as a fresh
    list of ``Fraction``s: the integer table's values over its denominator,
    reduced in numpy and built by ``scalars.fractions_over``."""
    dp, den = multiset_capacity_table(w, k_max, oracle_limit)
    return fractions_over(dp, den)


# ---------------------------------------------------------------------------
# Exact engine above the sweep's reach: the tier LP, reduced-cost windows,
# a proximity cap, and one DP over the windows.
# ---------------------------------------------------------------------------

# Limit on the window DP's cells, sum(budget + 1 - start) over its items,
# and on the values its history keeps, budget + 1 per class with items;
# together at most 16 bytes per cell, so 160 MB
_CELL_LIMIT = 10**7


def _breakpoint(scaled, copies, k: int) -> Fraction:
    """The breakpoint rho* = s_i / j of the tier LP at half budget k: the
    largest tier ratio whose tiers, with every tier of a larger ratio, cost
    more than k.

    The tiers of class i with ratio >= s_0 / J are its first s_i J // s_0,
    so their cost is a closed form in the level J of the largest class.
    Bisect the smallest J whose cost is over k: rho* lies in
    [s_0/J, s_0/(J-1)), which holds at most one tier per class, and a walk
    down those tiers finds it.
    """
    top = scaled[0]

    def spent(level: int) -> int:
        total = 0
        for s, n in zip(scaled, copies):
            t = s * level // top
            total += n * (t * t + t) // 2
        return total

    lo, hi = 1, math.isqrt(2 * k // copies[0]) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if spent(mid) > k:
            hi = mid
        else:
            lo = mid + 1
    cost = {}
    for s, n in zip(scaled, copies):
        j = s * lo // top
        if j >= 1 and j * top > s * (lo - 1):
            ratio = Fraction(s, j)
            cost[ratio] = cost.get(ratio, 0) + n * j
    total = spent(lo - 1)
    for ratio in sorted(cost, reverse=True):
        total += cost[ratio]
        if total > k:
            break
    return ratio


def _greedy(scaled, copies, units: list, room: int) -> list:
    """Spend ``room`` half-units on top of whole tiers, tier by tier in
    falling ratio s_i / j, taking as many units of each as fit."""
    heap = [(-Fraction(s, u // n + 1), i) for i, (s, n, u) in enumerate(zip(scaled, copies, units))]
    heapq.heapify(heap)
    while heap and room:
        _, i = heapq.heappop(heap)
        n = copies[i]
        j = units[i] // n + 1
        take = min(n, room // j)
        units[i] += take
        room -= take * j
        if take == n:
            heapq.heappush(heap, (-Fraction(scaled[i], j + 1), i))
    return units


def _window(s: int, n: int, above: int, rho: Fraction, slack: int, near: tuple, k: int) -> tuple:
    """Units [L, H] of one class that an assignment worth at least the
    incumbent + 1 can hold in normal form, intersected with the proximity
    range ``near`` around the LP's units and with the budget k.

    In units of 1/Q, with rho* = P/Q, a unit of tier j has reduced profit
    s Q - P j.  Against Q V_LP, an assignment pays |s Q - P j| for each
    unit it drops from the ``above`` tiers the LP takes whole, and for each
    unit it adds past them; units of a tier at rho* itself are free.  No
    class can pay more than ``slack``.
    """
    P, Q = rho.numerator, rho.denominator
    lo, pay, j = n * above, slack, above
    while lo > near[0] and j >= 1:
        cost = s * Q - P * j
        m = min(n, pay // cost)
        lo, pay = lo - m, pay - m * cost
        if m < n:
            break
        j -= 1
    j = above + (s * Q == P * (above + 1))
    hi, pay, cap = n * j, slack, min(near[1], _max_units(n, k))
    while hi < cap:
        j += 1
        cost = P * j - s * Q
        m = min(n, pay // cost)
        hi, pay = hi + m, pay - m * cost
        if m < n:
            break
    return max(lo, near[0]), min(hi, cap)


def multiset_capacity_fast(w: WeightMultiset, k: int) -> CapacityResult:
    """Exact c_k at any k, with a witness, from the tier LP and one DP over
    the few units per class that the LP leaves open.

    The columns are the DP's tiers: class i, tier j, n_i units of cost j
    half-units, each worth s_i.  With one budget row, the LP over them is
    greedy by s_i / j.  The steps, all in integers and Fractions:

    - The LP breakpoint rho* (``_breakpoint``) and value V_LP, an upper
      bound on c_k.
    - The incumbent: every tier of ratio above rho*, then the rest of the
      budget greedily in ratio order.  Scaled values are integers, so it
      is exact when G = V_LP - incumbent < 1.
    - Reduced-cost fixing (Kellerer, Pferschy and Pisinger, *Knapsack
      Problems*, 2004): an assignment worth incumbent + 1 or more pays
      its reduced costs out of G - 1, so a tier whose unit reduced profit
      is over G - 1 keeps its LP value, and each class keeps to the window
      of ``_window``.
    - Proximity (Eisenbrand and Weismantel, SODA 2018 / *ACM TALG* 2020):
      an integer program with one row and largest coefficient Delta has an
      optimum within l1 distance 2 Delta + 1 of an optimal LP vertex.  The
      bounded-variable form holds too: the Steinitz cycles the proof moves
      along are conformal to the difference of the two points, so they
      keep box bounds.  Over the tiers that fixing leaves free, with Delta
      their largest cost and one more unit for the LP's fractional tier,
      each class's units stay within 2 Delta + 2 of the LP's.  So some
      optimum lies in the windows, and so does its normal form, which has
      the same units per class and costs no more.
    - One ``tier_dp`` over the windows, on the budget their bases leave,
      and ``backtrack`` for the witness.
    - When that DP's cells, or the values its history keeps, exceed
      ``_CELL_LIMIT``: the interval [incumbent, floor(V_LP)], sound but
      not exact.
    """
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    scaled, copies, _ = w._scaled
    if not scaled:
        return _witness_result(w, 0, 0, [], k)
    rho = _breakpoint(scaled, copies, k)
    P, Q = rho.numerator, rho.denominator
    # The LP takes the tiers of ratio above rho* whole and spends the rest
    # of the budget at rho*: lp = Q V_LP, an integer.
    above = [(s * Q - 1) // P for s in scaled]
    room = k - sum(n * (t * t + t) // 2 for n, t in zip(copies, above))
    lp = Q * sum(s * n * t for s, n, t in zip(scaled, copies, above)) + P * room
    units = _greedy(scaled, copies, [n * t for n, t in zip(copies, above)], room)
    best = sum(s * u for s, u in zip(scaled, units))
    slack = lp - Q * (best + 1)  # Q (G - 1)
    if slack < 0:
        return _witness_result(w, best, best, units, k)

    reach = 2 * max((slack + s * Q) // P for s in scaled) + 2  # 2 Delta + 2
    windows = []
    for s, n, t in zip(scaled, copies, above):
        lp_units = n * t
        if s * Q == P * (t + 1):  # the LP fills the tiers at rho* in turn
            spend = min(n * (t + 1), room)
            room -= spend
            lp_units += spend // (t + 1)
        windows.append(_window(s, n, t, rho, slack, (lp_units - reach, lp_units + reach), k))
    base = sum(half_cost(n, lo) for n, (lo, _) in zip(copies, windows))
    span = sum(half_cost(n, hi) - half_cost(n, lo) for n, (lo, hi) in zip(copies, windows))
    budget = min(k - base, span)
    if budget < 0:  # no window assignment fits: the incumbent is optimal
        return _witness_result(w, best, best, units, k)
    plans = tier_plans(scaled, copies, budget, windows) if budget < _CELL_LIMIT else None
    if plans is None or max(
        sum(budget + 1 - start for items in plans for _, _, start in items),
        (budget + 1) * sum(1 for items in plans if items),
    ) > _CELL_LIMIT:
        return _witness_result(w, best, lp // Q, units, k)
    dp, history = tier_dp(plans, budget, keep=True)
    value = sum(s * lo for s, (lo, _) in zip(scaled, windows)) + int(dp[budget])
    if value > best:
        best = value
        units = backtrack(scaled, copies, history, windows, budget)
    return _witness_result(w, best, best, units, k)


# ---------------------------------------------------------------------------
# The one dispatch on domain type, and Weyl-law diagnostics
# ---------------------------------------------------------------------------


def as_weights(domain) -> WeightMultiset:
    """The weight multiset of any domain a domain file describes: an
    ellipsoid by its Euclidean recursion, a moment profile by its weight
    expansion, a quasi-flat parameter vector by its ellipsoid union."""
    if isinstance(domain, WeightMultiset):
        return domain
    if isinstance(domain, Ellipsoid):
        return ellipsoid_weights(domain)
    if isinstance(domain, MomentProfile):
        return weight_expansion(domain)[0]
    if isinstance(domain, ParameterVector):
        return build_weights(domain)
    raise TypeError(f"unsupported domain type {type(domain)!r}")


def as_region(domain) -> Ellipsoid | MomentProfile | None:
    """The moment region of any domain a domain file describes, for the
    inclusion bound: an ellipsoid or profile as is, a quasi-flat parameter
    vector by its realization, and None for a weight multiset, which has
    none."""
    if isinstance(domain, (Ellipsoid, MomentProfile)):
        return domain
    if isinstance(domain, ParameterVector):
        return build_domain(domain)
    if isinstance(domain, WeightMultiset):
        return None
    raise TypeError(f"unsupported domain type {type(domain)!r}")


class CapacityProfile:
    """(lo, hi) on c_k of one domain, for the k of one computation; the
    only place that decides which engine answers c_k.

    Ellipsoids, balls included, use their lattice count, at any k.  Every
    other domain goes through its weights (``as_weights``), which take
    every c_k up to ``reach`` = min(k_max, oracle_limit // 2) exactly from
    one DP sweep, kept as the integer DP array and its denominator, and
    c_k above it from ``multiset_capacity_fast``: exact, or an interval
    when its window DP is over the cell limit.  The sweep runs on the first
    query at or below ``reach``, so a profile asked only above it runs
    none.  Intervals are memoized by k for the life of the profile.

    ``volume`` is the domain's symplectic volume: the area of an
    ellipsoid's moment triangle, and otherwise the total ball volume of
    the weights, which a concave toric domain's weights fill exactly."""

    def __init__(self, domain, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT):
        if k_max < 0:
            raise ValueError("capacity index must be >= 0")
        self.reach = 0
        if isinstance(domain, Ellipsoid):
            self.volume = area(domain)
        else:
            domain = as_weights(domain)
            self.volume = domain.total_area()
            self.reach = min(k_max, oracle_limit // 2)
        self.domain = domain
        self._oracle_limit = oracle_limit
        self._table = None
        self._memo = {}

    def interval(self, k: int) -> tuple:
        if k not in self._memo:
            if k < 0:
                raise ValueError("capacity index must be >= 0")
            domain = self.domain
            if isinstance(domain, Ellipsoid):
                c = ellipsoid_capacity(domain, k)
                self._memo[k] = (c, c)
            elif k <= self.reach:
                if self._table is None:
                    self._table = multiset_capacity_table(domain, self.reach, self._oracle_limit)
                dp, den = self._table
                c = Fraction(int(dp[k]), den)
                self._memo[k] = (c, c)
            else:
                result = multiset_capacity_fast(domain, k)
                self._memo[k] = (result.best, result.upper)
        return self._memo[k]


def weyl_ratio(domain, k: int) -> Scalar:
    """c_k^2 / (4 k vol), an exact rational converging to 1 as k grows."""
    if k <= 0:
        raise ValueError("Weyl ratio is undefined at k = 0")
    profile = CapacityProfile(domain, k)
    if profile.volume == 0:
        raise ValueError("Weyl ratio is undefined at volume 0")
    lo, hi = profile.interval(k)
    if lo != hi:
        raise ResourceLimitError(f"c_{k} is only known as an interval")
    return lo * lo / (4 * k * profile.volume)
