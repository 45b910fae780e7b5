"""Capacity engines: ball closed form, ellipsoid lattice counting, and the
weight-multiset optimizer (exact budget DP plus a relaxation-certified fast
solver).

The weight formulation: a multiset with n_i copies of weight a_i has

    c_k = max { sum d_{i,j} a_i  :  sum (d_{i,j}^2 + d_{i,j}) <= 2k }

over nonnegative integer levels d_{i,j}, one per copy.  Within a class of
equal weights an exchange argument lets levels differ by at most one
("convexity-normal form"), so a class is described by a base level d and a
promoted count r: cost n(d^2+d) + 2r(d+1), value (nd+r)a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._kernels import backtrack, open_windows, tier_dp, tier_plans
from .errors import ResourceLimitError
from .geometry import Ellipsoid, MomentProfile, area
from .scalars import Scalar
from .weights import WeightMultiset, weight_expansion

DEFAULT_ORACLE_LIMIT = 4 * 10**5  # on the DP budget 2k
DEFAULT_ELLIPSOID_LIMIT = 10**6  # on the capacity index k


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

    @property
    def units(self) -> int:
        return self.copies * self.level + self.promoted


@dataclass(frozen=True)
class CandidateAssignment:
    classes: tuple
    budget: int  # 2k this assignment answers

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
    """(hi - lo) / lo for an interval on c_k, and 0 when lo = 0."""
    return Fraction(0) if lo == 0 else (hi - lo) / lo


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


def ellipsoid_capacity(e: Ellipsoid, k: int, k_limit: int = DEFAULT_ELLIPSOID_LIMIT) -> Scalar:
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
    if k > k_limit:
        raise ResourceLimitError(
            f"k={k} above the configured ellipsoid counting range {k_limit}"
        )
    if k == 0:
        return Fraction(0)
    lcm = math.lcm(e.a.denominator, e.b.denominator)
    av = int(e.a * lcm)
    bv = int(e.b * lcm)

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
    return Fraction(lo, lcm)


class _ScaledClasses:
    """Weight classes with values scaled to a common integer denominator."""

    def __init__(self, w: WeightMultiset):
        self.weights = [wt for wt, _ in w.entries]
        self.copies = [m for _, m in w.entries]
        self.denominator = math.lcm(*(wt.denominator for wt in self.weights)) if self.weights else 1
        self.scaled = [int(wt * self.denominator) for wt in self.weights]

    def __len__(self):
        return len(self.weights)


def multiset_capacity_oracle(
    w: WeightMultiset, k: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> CapacityResult:
    """Exact optimum of the weight formulation by dynamic programming up to
    the budget 2k (run in half-units, over 0..k), with the optimizing
    assignment as witness."""
    budget = 2 * k
    if budget > oracle_limit:
        raise ResourceLimitError(
            f"DP budget {budget} exceeds the oracle limit {oracle_limit}; "
            "use multiset_capacity_fast"
        )
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    classes = _ScaledClasses(w)
    windows = open_windows(len(classes), k)
    plans = tier_plans(classes.scaled, classes.copies, k, windows)
    dp, history = tier_dp(plans, k, keep=True)
    units = backtrack(classes.scaled, classes.copies, history, windows, k)
    witness = CandidateAssignment(
        tuple(
            ClassAssignment(wt, n, *divmod(u, n))
            for wt, n, u in zip(classes.weights, classes.copies, units)
        ),
        budget,
    )
    value = Fraction(int(dp[k]), classes.denominator)
    assert witness.value == value and witness.cost <= budget
    return CapacityResult(best=value, upper=value, exact=True, witness=witness)


def multiset_capacity_table(
    w: WeightMultiset, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple:
    """One DP sweep up to the budget 2*k_max, run in half-units:
    (dp, denominator) with c_k = dp[k] / denominator for every k in
    0..k_max."""
    budget = 2 * k_max
    if budget > oracle_limit:
        raise ResourceLimitError(
            f"DP budget {budget} exceeds the oracle limit {oracle_limit}"
        )
    classes = _ScaledClasses(w)
    windows = open_windows(len(classes), k_max)
    plans = tier_plans(classes.scaled, classes.copies, k_max, windows)
    dp, _ = tier_dp(plans, k_max, keep=False)
    return dp, classes.denominator


def multiset_capacity_sweep(
    w: WeightMultiset, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> list:
    """Exact c_k for every k in 0..k_max from a single DP run."""
    dp, den = multiset_capacity_table(w, k_max, oracle_limit)
    return [Fraction(v, den) for v in dp.tolist()]


# ---------------------------------------------------------------------------
# Fast solver: continuous-relaxation seed + greedy + local exchange, with a
# Lagrangian-dual upper bound.  Never touches the DP oracle.
# ---------------------------------------------------------------------------


class _Solution:
    """Mutable normal-form assignment used by the fast solver."""

    __slots__ = ("classes", "levels", "promoted", "cost")

    def __init__(self, classes: _ScaledClasses, levels=None, promoted=None):
        self.classes = classes
        self.levels = list(levels) if levels else [0] * len(classes)
        self.promoted = list(promoted) if promoted else [0] * len(classes)
        self.cost = sum(
            n * (d * d + d) + 2 * r * (d + 1)
            for n, d, r in zip(classes.copies, self.levels, self.promoted)
        )

    def clone(self) -> "_Solution":
        return _Solution(self.classes, self.levels, self.promoted)

    def scaled_value(self) -> int:
        return sum(
            (n * d + r) * s
            for n, d, r, s in zip(
                self.classes.copies, self.levels, self.promoted, self.classes.scaled
            )
        )

    def promote_cost(self, i: int) -> int:
        return 2 * (self.levels[i] + 1)

    def promote(self, i: int, count: int = 1):
        n = self.classes.copies[i]
        while count > 0:
            room = n - self.promoted[i]
            step = min(count, room)
            self.cost += step * 2 * (self.levels[i] + 1)
            self.promoted[i] += step
            count -= step
            if self.promoted[i] == n:
                self.promoted[i] = 0
                self.levels[i] += 1

    def demote(self, i: int, count: int = 1) -> bool:
        n = self.classes.copies[i]
        while count > 0:
            if self.promoted[i] > 0:
                step = min(count, self.promoted[i])
                self.cost -= step * 2 * (self.levels[i] + 1)
                self.promoted[i] -= step
                count -= step
            elif self.levels[i] > 0:
                self.levels[i] -= 1
                self.promoted[i] = n - 1
                self.cost -= 2 * (self.levels[i] + 1)
                count -= 1
            else:
                return False
        return True

    def greedy_fill(self, budget: int, forbid: int = -1):
        """Spend residual budget on the promotion with the best marginal
        gain per unit cost, in bulk per level tier.  ``forbid`` excludes one
        class so that exchange moves cannot undo their own demotion."""
        while True:
            best_i = -1
            best_num = best_den = 0
            for i, s in enumerate(self.classes.scaled):
                if i == forbid:
                    continue
                c = self.promote_cost(i)
                if c > budget - self.cost:
                    continue
                # compare s/c > best_num/best_den
                if best_i < 0 or s * best_den > best_num * c:
                    best_i, best_num, best_den = i, s, c
            if best_i < 0:
                return
            c = self.promote_cost(best_i)
            room = self.classes.copies[best_i] - self.promoted[best_i]
            bulk = min(room, (budget - self.cost) // c)
            self.promote(best_i, max(bulk, 1))

    def assignment(self, budget: int) -> CandidateAssignment:
        return CandidateAssignment(
            tuple(
                ClassAssignment(wt, n, d, r)
                for wt, n, d, r in zip(
                    self.classes.weights,
                    self.classes.copies,
                    self.levels,
                    self.promoted,
                )
            ),
            budget,
        )


def _relaxation_mu(classes: _ScaledClasses, k: int) -> float:
    """Float multiplier mu, in units of the largest weight, with
    sum n_i (d^2 + d) ~ 2k at d_i = max(a_i/mu - 1/2, 0).  Capacities scale
    linearly, so dividing by the largest weight first loses nothing and
    keeps weights below the float range from underflowing to zero."""
    top = max(classes.weights)
    a = [float(wt / top) for wt in classes.weights]
    n = classes.copies

    def spent(mu: float) -> float:
        total = 0.0
        for ai, ni in zip(a, n):
            d = ai / mu - 0.5
            if d > 0:
                total += ni * (d * d + d)
        return total

    hi = 2.0 * max(a)  # all d_i = 0
    lo = hi
    while spent(lo) < 2 * k:
        lo /= 2.0
        if lo < 1e-300:
            break
    for _ in range(200):
        mid = (lo + hi) / 2
        if spent(mid) > 2 * k:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _dual_bound(classes: _ScaledClasses, k: int, mu: Fraction) -> Fraction:
    """Lagrangian dual value: mu*k + sum n_i max_d (d a_i - mu(d^2+d)/2),
    a valid upper bound for every mu > 0."""
    total = mu * k
    for wt, n in zip(classes.weights, classes.copies):
        if wt > mu / 2:
            total += n * (wt - mu / 2) ** 2 / (2 * mu)
    return total


_POLISH_BUDGET_LIMIT = 4 * 10**5
_POLISH_COST_LIMIT = 4 * 10**8  # budget * DP items


def _polish(classes: _ScaledClasses, sol: "_Solution", budget: int, window: int):
    """Trust-region DP around the incumbent: each class either empty or at
    levels within ``window`` of the incumbent's, promotions free within
    budget.  Returns an improved solution, the incumbent, or None when the
    restricted instance is too large for the policy limits."""
    if budget > _POLISH_BUDGET_LIMIT:
        return None
    k = budget // 2
    windows = [
        (max(0, d - window), n * (d + window + 1) - 1)
        for n, d in zip(classes.copies, sol.levels)
    ]
    plans = tier_plans(classes.scaled, classes.copies, k, windows)
    if budget * sum(len(p[2]) for p in plans if p) > _POLISH_COST_LIMIT:
        return None
    dp, history = tier_dp(plans, k, keep=True)
    if int(dp[k]) <= sol.scaled_value():
        return sol
    units = backtrack(classes.scaled, classes.copies, history, windows, k)
    return _Solution(
        classes,
        [u // n for u, n in zip(units, classes.copies)],
        [u % n for u, n in zip(units, classes.copies)],
    )


_EXCHANGE_WINDOW = 3  # units one exchange move demotes, at most
_MAX_ROUNDS = 100  # exchange rounds
_POLISH_WINDOW = 4  # levels the trust region spans around the incumbent


def multiset_capacity_fast(w: WeightMultiset, k: int) -> CapacityResult:
    """Interval-certified capacity: incumbent from relaxation seeding,
    greedy budget fill and bounded exchange search; upper bound from the
    Lagrangian dual of the continuous relaxation."""
    if len(w) > 64:
        raise ResourceLimitError("fast solver supports at most 64 weight classes")
    if k < 0:
        raise ValueError("capacity index must be >= 0")
    if k == 0:
        return CapacityResult(Fraction(0), Fraction(0), True, None)
    budget = 2 * k
    classes = _ScaledClasses(w)

    top = max(classes.weights)
    mu_f = _relaxation_mu(classes, k)
    sol = _Solution(classes)
    for i, wt in enumerate(classes.weights):
        d = int(float(wt / top) / mu_f - 0.5)
        if d > 0:
            # floor of the continuous level keeps the seed under budget
            sol.levels[i] = d
    sol = _Solution(classes, sol.levels, sol.promoted)
    while sol.cost > budget:  # float roundoff guard
        worst = max(range(len(classes)), key=lambda i: sol.levels[i])
        sol.demote(worst)
    sol.greedy_fill(budget)

    for _ in range(_MAX_ROUNDS):
        improved = False
        base_value = sol.scaled_value()
        for j in range(len(classes)):
            for delta in range(1, _EXCHANGE_WINDOW + 1):
                trial = sol.clone()
                if not trial.demote(j, delta):
                    break
                trial.greedy_fill(budget, forbid=j)
                trial.greedy_fill(budget)
                if trial.scaled_value() > base_value:
                    sol = trial
                    base_value = trial.scaled_value()
                    improved = True
        if not improved:
            break

    # Re-center the trust region after each improvement so the polish can
    # walk further than one window from the incumbent.
    for _ in range(8):
        polished = _polish(classes, sol, budget, _POLISH_WINDOW)
        if polished is None or polished.scaled_value() <= sol.scaled_value():
            break
        sol = polished

    best = Fraction(sol.scaled_value(), classes.denominator)

    # Dual candidates: the float minimizer plus the kink multipliers of the
    # incumbent's levels, where the dual often matches the optimum exactly.
    candidates = []
    if mu_f > 0 and math.isfinite(mu_f):
        candidates.append(Fraction(mu_f).limit_denominator(10**12) * top)
    for i, wt in enumerate(classes.weights):
        d = sol.levels[i]
        for shift in (-1, 0, 1):
            den = Fraction(2 * (d + shift) + 1, 2)
            if den > 0:
                candidates.append(wt / den)
    upper = min(_dual_bound(classes, k, mu) for mu in candidates if mu > 0)
    if upper < best:  # weak duality guarantees this never triggers
        upper = best
    return CapacityResult(
        best=best,
        upper=upper,
        exact=(best == upper),
        witness=sol.assignment(budget),
    )


# ---------------------------------------------------------------------------
# The one dispatch on domain type, and Weyl-law diagnostics
# ---------------------------------------------------------------------------


class CapacityProfile:
    """(lo, hi) on c_k of one domain, for the k of one computation; the
    only place that decides which engine answers c_k.

    Balls use their closed form and ellipsoids their lattice count.  Weight
    multisets, and moment profiles through their weights, take every c_k up
    to ``reach`` = min(k_max, oracle_limit // 2) exactly from one DP sweep,
    kept as the integer DP array and its denominator, and fast-solver
    intervals above it.  Intervals are memoized by k for the life of the
    profile."""

    def __init__(self, domain, k_max: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT):
        if k_max < 0:
            raise ValueError("capacity index must be >= 0")
        if isinstance(domain, MomentProfile):
            domain, _ = weight_expansion(domain)
        if not isinstance(domain, (Ellipsoid, WeightMultiset)):
            raise TypeError(f"unsupported domain type {type(domain)!r}")
        self.domain = domain
        self.reach = 0
        if isinstance(domain, WeightMultiset):
            self.reach = min(k_max, oracle_limit // 2)
            self._dp, self._den = multiset_capacity_table(domain, self.reach, oracle_limit)
        self._memo = {}

    def interval(self, k: int) -> tuple:
        if k not in self._memo:
            if k < 0:
                raise ValueError("capacity index must be >= 0")
            domain = self.domain
            if isinstance(domain, Ellipsoid):
                if domain.a == domain.b:
                    c = ball_capacity(domain.a, k)
                else:
                    c = ellipsoid_capacity(domain, k)
                self._memo[k] = (c, c)
            elif k <= self.reach:
                c = Fraction(int(self._dp[k]), self._den)
                self._memo[k] = (c, c)
            else:
                result = multiset_capacity_fast(domain, k)
                self._memo[k] = (result.best, result.upper)
        return self._memo[k]


def domain_volume(domain) -> Scalar:
    if isinstance(domain, (Ellipsoid, MomentProfile)):
        return area(domain)
    if isinstance(domain, WeightMultiset):
        return domain.total_area()
    raise TypeError(f"unsupported domain type {type(domain)!r}")


def weyl_ratio(domain, k: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> Scalar:
    """c_k^2 / (4 k vol), an exact rational converging to 1 as k grows."""
    if k <= 0:
        raise ValueError("Weyl ratio is undefined at k = 0")
    lo, hi = CapacityProfile(domain, k, oracle_limit).interval(k)
    if lo != hi:
        raise ResourceLimitError(
            f"c_{k} is only known as an interval at oracle limit {oracle_limit}"
        )
    return lo * lo / (4 * k * domain_volume(domain))
