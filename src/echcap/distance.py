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

from .capacities import DEFAULT_ORACLE_LIMIT, CapacityProfile, domain_volume
from .errors import DimensionMismatchError, EchcapError, RealizationLimitError
from .geometry import Ellipsoid, MomentProfile, inclusion_scale
from .quasiflat import ParameterVector, build_domain, build_weights, q_metric

DEFAULT_SAMPLES_PER_DECADE = 64
DEFAULT_K_CAP = 10**7


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
    U,
    V,
    K: int,
    per_decade: int = DEFAULT_SAMPLES_PER_DECADE,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> tuple:
    """max over sampled 1 <= k <= K of |ln(c_k(U)/c_k(V))|, a valid lower
    bound for d_SM(U, V); intervals propagate conservatively.  U and V are
    domains or CapacityProfiles, which share their capacities across calls.

    Returns (bound, witness_k), witness_k the first k that reaches the
    bound."""
    pu = U if isinstance(U, CapacityProfile) else CapacityProfile(U, K, oracle_limit)
    pv = V if isinstance(V, CapacityProfile) else CapacityProfile(V, K, oracle_limit)
    best = 0.0
    witness = 0
    for k in sample_indices(K, per_decade):
        lo_u, hi_u = pu.interval(k)
        lo_v, hi_v = pv.interval(k)
        if min(lo_u, lo_v, hi_u, hi_v) <= 0:
            continue  # k = 0 style degeneracies are excluded by k >= 1
        bound = max(
            math.log(lo_u / hi_v) if hi_v else 0.0,
            math.log(lo_v / hi_u) if hi_u else 0.0,
            0.0,
        )
        if bound > best:
            best, witness = bound, k
    return best, witness


def volume_lower_bound(U, V) -> float:
    """Weyl-law limit of the capacity bound: |ln(vol U / vol V)| / 2."""
    vu = domain_volume(U)
    vv = domain_volume(V)
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
    n = len(v)
    metric = float(q_metric(v.B, w.B, precision=precision))
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


def distance_report(
    U,
    V,
    K: int,
    parameters: Optional[tuple] = None,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> DistanceReport:
    lower_cap, witness = capacity_lower_bound(U, V, K, oracle_limit=oracle_limit)
    lower_vol = volume_lower_bound(U, V)
    inclusion = None
    if isinstance(U, (Ellipsoid, MomentProfile)) and isinstance(
        V, (Ellipsoid, MomentProfile)
    ):
        inclusion = inclusion_distance(U, V)
    lemma = None
    if parameters is not None:
        lemma = lemma_upper_bound(parameters[0], parameters[1])
    return DistanceReport(
        lower_capacity=lower_cap,
        capacity_witness_k=witness,
        lower_volume=lower_vol,
        upper_inclusion=inclusion,
        upper_lemma=lemma,
    )


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
        return all(
            p.skipped or p.lower is None or p.upper is None or p.lower <= p.upper + 1e-12
            for p in self.pairs
        )


def fit_quasi_isometry(
    d1: Sequence[float], d2: Sequence[float], min_separation: float = 1.0
) -> tuple:
    """Constants (A, B) with d1/A - B <= d2 <= A*d1 + B on the given pairs.

    A is fitted on well-separated pairs (d1 >= min_separation); B absorbs
    the rest.  Purely empirical, reported not assumed."""
    a = 1.0
    for x, y in zip(d1, d2):
        if x >= min_separation and y > 0:
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
    index of the lower-bound argument), capped by policy.  Each domain's
    capacities come from one CapacityProfile, built up to the largest K
    of the pairs it is in."""
    rows = []
    pending = []  # (row index, v, w, metric, weights of v and of w, K)
    for v, w in pairs:
        if len(v) != len(w):
            rows.append(
                PairResult(v, w, 0.0, None, None, 0, True, "dimension mismatch")
            )
            continue
        metric = float(q_metric(v.B, w.B, precision=precision))
        try:
            wu = build_weights(v)
            ww = build_weights(w)
        except EchcapError as exc:  # irrational weights etc.
            rows.append(PairResult(v, w, metric, None, None, 0, True, str(exc)))
            continue
        k_target = max(
            int(b ** (i + 2)) for vec in (v, w) for i, b in enumerate(vec.B)
        )
        pending.append((len(rows), v, w, metric, wu, ww, min(k_target, k_cap)))
        rows.append(None)

    k_needed = {}
    for *_, wu, ww, k_target in pending:
        for wm in (wu, ww):
            k_needed[wm] = max(k_needed.get(wm, 0), k_target)
    profiles = {
        wm: CapacityProfile(wm, k_max, oracle_limit) for wm, k_max in k_needed.items()
    }

    for idx, v, w, metric, wu, ww, k_target in pending:
        lower_cap, witness = capacity_lower_bound(
            profiles[wu], profiles[ww], k_target, per_decade=per_decade
        )
        lower = max(lower_cap, volume_lower_bound(wu, ww))
        upper = lemma_upper_bound(v, w, precision=precision)
        if include_inclusion:
            try:
                d_i = inclusion_distance(build_domain(v), build_domain(w))
                upper = min(upper, d_i.distance)
            except RealizationLimitError:
                pass
        rows[idx] = PairResult(v, w, metric, lower, upper, witness)
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
