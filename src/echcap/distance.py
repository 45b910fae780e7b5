"""Lower and upper bounds for the symplectic Banach-Mazur distance, the
inclusion pseudo-metric, and quasi-flat certificates.

The distance itself is never computed, only sandwiched: capacity ratios and
volume give lower bounds, inclusion scalings and the smoothing lemma give
upper bounds.  Reports always carry the witnesses that produced each bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .capacities import DEFAULT_ORACLE_LIMIT, CapacityProfile, as_region
from .errors import DimensionMismatchError, EchcapError, RealizationLimitError
from .geometry import inclusion_scale
from .quasiflat import ParameterVector, build_weights, q_metric
from .weights import realize

DEFAULT_SAMPLES_PER_DECADE = 64
DEFAULT_K_CAP = 10**7
# fit_quasi_isometry fits A on pairs at least this far apart in d1
_MIN_SEPARATION = 1.0


def sample_indices(k_max: int, per_decade: int = DEFAULT_SAMPLES_PER_DECADE) -> list:
    """Deterministic log-spaced capacity indices in [1, k_max], always
    including 1..8 and k_max itself."""
    if k_max < 1:
        return []
    ks = set(range(1, min(k_max, 8) + 1))
    ks.add(k_max)
    decades = math.log10(k_max) if k_max > 1 else 0
    steps = max(1, int(decades * per_decade))
    for j in range(steps + 1):
        ks.add(max(1, round(10 ** (decades * j / steps))))
    return sorted(ks)


def capacity_lower_bound(
    pu: CapacityProfile, pv: CapacityProfile, K: int, per_decade: int = DEFAULT_SAMPLES_PER_DECADE
) -> tuple:
    """max over sampled 1 <= k <= K of |ln(c_k(U)/c_k(V))|, a valid lower
    bound for d_SM(U, V); intervals propagate conservatively.  The
    capacities come from the profiles of U and V, which share them across
    calls.

    Returns (bound, witness_k), witness_k the first k that reaches the
    bound."""
    best = 0.0
    witness = 0
    for k in sample_indices(K, per_decade):
        lo_u, hi_u = pu.interval(k)
        lo_v, hi_v = pv.interval(k)
        if min(lo_u, lo_v, hi_u, hi_v) <= 0:
            continue  # k = 0 style degeneracies are excluded by k >= 1
        bound = max(
            math.log(lo_u / hi_v),
            math.log(lo_v / hi_u),
            0.0,
        )
        if bound > best:
            best, witness = bound, k
    return best, witness


def volume_lower_bound(pu: CapacityProfile, pv: CapacityProfile) -> float:
    """Weyl-law limit of the capacity bound: |ln(vol U / vol V)| / 2, from
    the volumes of the profiles of U and V."""
    vu = pu.volume
    vv = pv.volume
    if vu <= 0 or vv <= 0:
        raise ValueError("volume lower bound needs positive areas")
    return math.log(max(vu, vv) / min(vu, vv)) / 2


@dataclass(frozen=True)
class InclusionResult:
    distance: float  # ln max(T_uv, T_vu)
    scale_into_v: Fraction  # minimal T with U within T*V
    scale_into_u: Fraction


def inclusion_distance(U, V) -> InclusionResult:
    """Exact inclusion pseudo-metric d_I on toric moment regions; an upper
    bound for d_SM."""
    t_uv = inclusion_scale(U, V)
    t_vu = inclusion_scale(V, U)
    return InclusionResult(
        distance=math.log(max(t_uv, t_vu)),
        scale_into_v=t_uv,
        scale_into_u=t_vu,
    )


def lemma_upper_bound(
    v: ParameterVector, w: ParameterVector, precision: int = 200
) -> float:
    """(N/2 + 1) * ||v, w|| + 1 from the smoothing/scaling construction."""
    if len(v) != len(w):
        raise DimensionMismatchError("parameter vectors must share a dimension")
    return _lemma_bound(len(v), float(q_metric(v.B, w.B, precision=precision)))


def _lemma_bound(n: int, metric: float) -> float:
    """The lemma bound of two n-entry vectors at q-metric distance ``metric``."""
    return (n / 2 + 1) * metric + 1.0


@dataclass(frozen=True)
class DistanceReport:
    lower_capacity: float
    capacity_witness_k: int
    lower_volume: float
    upper_inclusion: Optional[InclusionResult]
    upper_lemma: Optional[float]

    @property
    def lower(self) -> float:
        return max(self.lower_capacity, self.lower_volume)

    @property
    def upper(self) -> Optional[float]:
        uppers = []
        if self.upper_inclusion is not None:
            uppers.append(self.upper_inclusion.distance)
        if self.upper_lemma is not None:
            uppers.append(self.upper_lemma)
        return min(uppers) if uppers else None

    @property
    def consistent(self) -> bool:
        upper = self.upper
        return upper is None or self.lower <= upper + 1e-12


def _report(pu, pv, K: int, per_decade: int, u_region, v_region, lemma) -> DistanceReport:
    """The bounds of one pair from its two capacity profiles, its moment
    regions (None for a domain without one) and its lemma bound, if any."""
    lower_cap, witness = capacity_lower_bound(pu, pv, K, per_decade=per_decade)
    inclusion = None
    if u_region is not None and v_region is not None:
        inclusion = inclusion_distance(u_region, v_region)
    return DistanceReport(lower_cap, witness, volume_lower_bound(pu, pv), inclusion, lemma)


def distance_report(U, V, K: int) -> DistanceReport:
    """Bounds on d_SM(U, V) for any two domains a domain file describes:
    the capacity and volume bounds always, the inclusion bound when both
    have a moment region (a weight multiset has none), and the lemma bound
    when both are quasi-flat parameter vectors."""
    regions = as_region(U), as_region(V)
    pu, pv = CapacityProfile(U, K), CapacityProfile(V, K)
    lemma = None
    if isinstance(U, ParameterVector) and isinstance(V, ParameterVector):
        lemma = lemma_upper_bound(U, V)
    return _report(pu, pv, K, DEFAULT_SAMPLES_PER_DECADE, *regions, lemma)


# ---------------------------------------------------------------------------
# Quasi-flat certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairResult:
    v: ParameterVector
    w: ParameterVector
    metric: float  # ||v, w||
    lower: Optional[float]
    upper: Optional[float]
    witness_k: int
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class QuasiFlatCertificate:
    pairs: tuple
    constant_a: float
    constant_b: float

    @property
    def consistent(self) -> bool:
        # an evaluated pair always has both bounds: its upper has the lemma
        return all(p.skipped or p.lower <= p.upper + 1e-12 for p in self.pairs)


def fit_quasi_isometry(d1: Sequence[float], d2: Sequence[float]) -> tuple:
    """Constants (A, B) with d1/A - B <= d2 <= A*d1 + B on the given pairs.

    A is fitted on well-separated pairs (d1 >= _MIN_SEPARATION); B absorbs
    the rest.  Purely empirical, reported not assumed."""
    a = 1.0
    for x, y in zip(d1, d2):
        if x >= _MIN_SEPARATION and y > 0:
            a = max(a, y / x, x / y)
    b = 0.0
    for x, y in zip(d1, d2):
        b = max(b, y - a * x, x / a - y)
    return a, b


def certificate(
    pairs: Sequence[tuple],
    k_cap: int = DEFAULT_K_CAP,
    per_decade: int = DEFAULT_SAMPLES_PER_DECADE,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    include_inclusion: bool = True,
    precision: int = 200,
) -> QuasiFlatCertificate:
    """Evaluate lower/upper distance bounds on a grid of parameter pairs and
    fit the quasi-isometry sandwich constants.

    K is chosen per pair as max_i B_i^{i+1} over both vectors (the witness
    index of the lower-bound argument), capped by policy.  Each distinct
    vector's weights are built once, and so is its realized profile when
    ``include_inclusion`` is set; its capacities come from one
    CapacityProfile, built up to the largest K of the pairs it is in."""
    if k_cap < 0:
        raise ValueError("capacity index must be >= 0")
    rows = []
    pending = []  # (row index, v, w, metric, K)
    built = {}  # vector -> its weights, or the EchcapError building them
    k_needed = {}  # vector -> the largest K of its pairs
    for v, w in pairs:
        if len(v) != len(w):
            rows.append(
                PairResult(v, w, 0.0, None, None, 0, True, "dimension mismatch")
            )
            continue
        metric = float(q_metric(v.B, w.B, precision=precision))
        for x in (v, w):
            if x not in built:
                try:
                    built[x] = build_weights(x)
                except EchcapError as exc:  # irrational weights etc.
                    built[x] = exc
        failed = [built[x] for x in (v, w) if isinstance(built[x], EchcapError)]
        if failed:
            rows.append(PairResult(v, w, metric, None, None, 0, True, str(failed[0])))
            continue
        k_target = min(k_cap, max(int(b ** (i + 2)) for x in (v, w) for i, b in enumerate(x.B)))
        for x in (v, w):
            k_needed[x] = max(k_needed.get(x, 0), k_target)
        pending.append((len(rows), v, w, metric, k_target))
        rows.append(None)

    profiles = {x: CapacityProfile(built[x], k, oracle_limit) for x, k in k_needed.items()}
    regions = {}
    if include_inclusion:
        for x in k_needed:
            try:
                regions[x] = realize(built[x])
            except RealizationLimitError:
                pass  # past the realization limit: no inclusion bound
    for idx, v, w, metric, k_target in pending:
        report = _report(
            profiles[v], profiles[w], k_target, per_decade,
            regions.get(v), regions.get(w), _lemma_bound(len(v), metric),
        )
        rows[idx] = PairResult(v, w, metric, report.lower, report.upper, report.capacity_witness_k)
    evaluated = [p for p in rows if not p.skipped]
    a, b = fit_quasi_isometry(
        [p.metric for p in evaluated], [p.lower for p in evaluated]
    )
    # The sandwich uses the lower bound for the contraction side and the
    # upper bound for the expansion side.
    a_up, b_up = fit_quasi_isometry(
        [p.metric for p in evaluated], [p.upper for p in evaluated]
    )
    return QuasiFlatCertificate(
        pairs=tuple(rows), constant_a=max(a, a_up), constant_b=max(b, b_up)
    )
