"""Experiment drivers behind the CLI: capacity-growth sweeps, the non-convex
warm-up inequality, and the inclusion-vs-embedding contrast, with
deterministic report/CSV emission."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .capacities import (
    DEFAULT_ORACLE_LIMIT,
    CapacityProfile,
    ball_capacity,
    multiset_capacity_fast,
    multiset_capacity_oracle,
    multiset_capacity_sweep,
    relative_gap,
)
from .distance import inclusion_distance, sample_indices
from .errors import EchcapError
from .geometry import Ellipsoid
from .quasiflat import ParameterVector, build_weights
from .weights import WeightMultiset, ellipsoid_weights, realize


@dataclass
class ExperimentConfig:
    oracle_limit: int = DEFAULT_ORACLE_LIMIT
    # lemma-cap sweep
    params: tuple = (Fraction(64), Fraction(4096))
    volume_index: int = 1  # M: which parameter carries the volume
    per_decade: int = 64
    ratio_window: tuple = (Fraction(1, 4), Fraction(4))
    # warm-up
    epsilon: Fraction = Fraction(1, 2**10)
    volume: Fraction = Fraction(1000)
    k0_max: int = 100
    weyl_constant: Fraction = Fraction(10)
    # inclusion-vs-embedding
    k_max: int = 2000
    sup_slack: float = 0.01


@dataclass
class RunReport:
    command: str
    inputs: dict
    rows: list = field(default_factory=list)
    columns: tuple = ()
    verdicts: list = field(default_factory=list)  # (name, passed, detail)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def verdict(self, name: str, ok: bool, detail: str = ""):
        self.verdicts.append((name, bool(ok), detail))


def _float_str(x) -> str:
    return format(float(x), ".12g")


def emit_report(report: RunReport, out_dir) -> list:
    """Write the structured report and CSV; bitwise-stable for a fixed
    config (wall-clock goes to a sidecar excluded from that contract)."""
    out = Path(out_dir)
    if not out.is_dir():
        raise EchcapError(f"output directory does not exist: {out}")
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "verdicts": [
            {"name": n, "passed": ok, "detail": d} for n, ok, d in report.verdicts
        ],
        "passed": report.passed,
    }
    path = out / f"{report.command}_report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    written = [path]
    if report.columns:
        path = out / f"{report.command}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(report.columns)
            writer.writerows(report.rows)
        written.append(path)
    timing = out / f"{report.command}_timing.txt"
    timing.write_text(f"wall_clock_seconds {report.wall_clock:.3f}\n")
    return written


def run_lemma_cap_sweep(config: ExperimentConfig) -> RunReport:
    """Sweep c_k over the window where the M-th parameter carries the
    volume and check c_k / sqrt(k * B_M) stays in the configured window."""
    start = time.monotonic()
    v = ParameterVector(config.params)
    m_index = config.volume_index
    if not 1 <= m_index < len(v):
        raise ValueError("volume index M must satisfy 1 <= M < N")
    b_m = v.B[m_index - 1]
    b_next = v.B[m_index]
    k_lo = int(b_m ** (m_index + 1))
    k_hi = int(b_next ** (m_index + 1))
    weights = build_weights(v)
    lo_win, hi_win = config.ratio_window

    report = RunReport(
        command="lemma_cap",
        inputs={
            "params": [str(b) for b in v.B],
            "M": m_index,
            "k_range": [k_lo, k_hi],
            "ratio_window": [str(lo_win), str(hi_win)],
        },
        columns=("k", "c_k_num", "c_k_den", "ratio", "exact", "gap"),
    )

    all_in_window = True
    profile = CapacityProfile(weights, k_hi, config.oracle_limit)
    for k in [k for k in sample_indices(k_hi, config.per_decade) if k >= k_lo]:
        lo, hi = profile.interval(k)
        # r in [lo_win, hi_win] iff lo^2 >= lo_win^2 k B_M and
        # hi^2 <= hi_win^2 k B_M, compared exactly.
        in_window = lo**2 >= lo_win**2 * k * b_m and hi**2 <= hi_win**2 * k * b_m
        all_in_window = all_in_window and in_window
        ratio = float(lo) / math.sqrt(k * float(b_m))
        report.rows.append(
            (
                k,
                lo.numerator,
                lo.denominator,
                _float_str(ratio),
                int(lo == hi),
                _float_str(relative_gap(lo, hi)),
            )
        )
    report.verdict(
        "ratio_within_window",
        all_in_window,
        f"c_k/sqrt(k B_M) within [{lo_win}, {hi_win}] on all sampled k",
    )
    if 2 * k_lo <= config.oracle_limit:
        anchor = multiset_capacity_oracle(weights, k_lo, config.oracle_limit)
        fast_lo = multiset_capacity_fast(weights, k_lo)
        report.verdict(
            "anchor_exact",
            anchor.best == fast_lo.best,
            f"c_{k_lo} = {anchor.best} (oracle) vs {fast_lo.best} (fast)",
        )
    report.wall_clock = time.monotonic() - start
    return report


def ched_weight_model(epsilon: Fraction, volume: Fraction) -> WeightMultiset:
    """{1 x 1, eps x m} with m the smallest integer making the area >= V."""
    epsilon = Fraction(epsilon)
    volume = Fraction(volume)
    m = math.ceil((2 * volume - 1) / epsilon**2)
    return WeightMultiset([(Fraction(1), 1), (epsilon, m)])


def run_ched_warmup(config: ExperimentConfig) -> RunReport:
    """Check c_{k0}(X) <= c_{k0}(B(1)) + 1 for the thin-tail domain with
    Gromov width 1 and large volume, against the Weyl-side growth."""
    start = time.monotonic()
    eps = Fraction(config.epsilon)
    vol = Fraction(config.volume)
    weights = ched_weight_model(eps, vol)
    area = weights.total_area()
    sweep = multiset_capacity_sweep(weights, config.k0_max, config.oracle_limit)

    report = RunReport(
        command="ched",
        inputs={
            "epsilon": str(eps),
            "volume": str(vol),
            "k0_max": config.k0_max,
            "weyl_constant": str(config.weyl_constant),
        },
        columns=("k0", "c_x_num", "c_x_den", "c_ball_num", "c_ball_den", "weyl_side"),
    )
    all_ok = True
    for k0 in range(config.k0_max + 1):
        c_x = sweep[k0]
        c_ball = ball_capacity(1, k0)
        ok = c_x <= c_ball + 1
        all_ok = all_ok and ok
        weyl_side = math.sqrt(float(vol) * k0) / float(config.weyl_constant)
        report.rows.append(
            (
                k0,
                c_x.numerator,
                c_x.denominator,
                c_ball.numerator,
                c_ball.denominator,
                _float_str(weyl_side),
            )
        )
    report.verdict(
        "capacity_pinned_to_ball",
        all_ok,
        "c_k0(X) <= c_k0(B(1)) + 1 for all k0 in range",
    )
    report.verdict(
        "area_window", vol <= area <= vol + 1, f"area = {float(area):.6f}"
    )
    report.wall_clock = time.monotonic() - start
    return report


def notsame_weights(epsilon: Fraction) -> WeightMultiset:
    """Weights of the concave domain built from B(1) and E(eps, 1/eps)."""
    epsilon = Fraction(epsilon)
    return WeightMultiset([(Fraction(1), 1)]).union(
        ellipsoid_weights(Ellipsoid(epsilon, 1 / epsilon))
    )


def run_notsame(config: ExperimentConfig) -> RunReport:
    """Exact inclusion distance ln(1 + 1/eps) against the capacity-ratio
    supremum, which stays below ln 2 (+ slack)."""
    start = time.monotonic()
    eps = Fraction(config.epsilon)
    weights = notsame_weights(eps)
    profile = realize(weights)
    ball = Ellipsoid.ball(1)
    incl = inclusion_distance(ball, profile)
    expected_scale = 1 + 1 / eps

    sweep = multiset_capacity_sweep(weights, config.k_max, config.oracle_limit)
    sup_ratio = 0.0
    report = RunReport(
        command="notsame",
        inputs={
            "epsilon": str(eps),
            "k_max": config.k_max,
            "sup_slack": config.sup_slack,
        },
        columns=("k", "c_x2_num", "c_x2_den", "c_ball_num", "c_ball_den", "log_ratio"),
    )
    for k in range(1, config.k_max + 1):
        c_x2 = sweep[k]
        c_ball = ball_capacity(1, k)
        ratio = math.log(c_x2 / c_ball)
        sup_ratio = max(sup_ratio, ratio)
        report.rows.append(
            (
                k,
                c_x2.numerator,
                c_x2.denominator,
                c_ball.numerator,
                c_ball.denominator,
                _float_str(ratio),
            )
        )
    report.verdict(
        "inclusion_distance_exact",
        max(incl.scale_into_v, incl.scale_into_u) == expected_scale,
        f"d_I = ln({expected_scale}) = {incl.distance:.6f}",
    )
    report.verdict(
        "capacity_sup_small",
        sup_ratio <= math.log(2) + config.sup_slack,
        f"sup log ratio = {sup_ratio:.6f} <= ln 2 + {config.sup_slack}",
    )
    report.verdict(
        "ordering",
        incl.distance >= sup_ratio - 1e-12,
        "d_I dominates the capacity bound",
    )
    report.wall_clock = time.monotonic() - start
    return report
