"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Each test prints its verdict line through ``capsys.disabled()`` so it is
visible in normal pytest output, then asserts.  Time limits are part of the
criteria and enforced.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from echcap.capacities import (
    ball_capacity,
    ellipsoid_capacity,
    multiset_capacity_fast,
    multiset_capacity_oracle,
    multiset_capacity_sweep,
    weyl_ratio,
)
from echcap.distance import certificate, fit_quasi_isometry
from echcap.experiments import (
    ExperimentConfig,
    run_ched_warmup,
    run_lemma_cap_sweep,
    run_notsame,
)
from echcap.geometry import Ellipsoid
from echcap.quasiflat import ParameterVector, chart_embed, q_metric, map_linear, map_linear_inverse
from echcap.weights import WeightMultiset, ellipsoid_weights, realize, weight_expansion


def verdict(capsys, label, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{status}] {label}: {elapsed:.1f}s of {limit:.0f}s{suffix}")
    assert ok, label
    assert elapsed < limit, f"{label} exceeded the {limit:.0f}s limit"


def test_criterion_01_ball_formula(capsys):
    start = time.monotonic()
    k_max = 10**4
    expected = []
    d = 0
    while len(expected) <= k_max:
        expected.extend([d] * (d + 1))
        d += 1
    ok = all(ball_capacity(1, k) == expected[k] for k in range(k_max + 1))
    a = Fraction(7, 3)
    ok = ok and all(
        ball_capacity(a, k) == expected[k] * a for k in range(0, k_max + 1, 97)
    )
    verdict(capsys, "criterion 01 ball formula", ok, time.monotonic() - start, 1)


def test_criterion_02_ellipsoid_engine(capsys):
    start = time.monotonic()
    k_max = 2000
    ok = True
    for a, b in [(1, 1), (1, 2), (2, 3), (1, 5), (3, 7)]:
        a, b = Fraction(a), Fraction(b)
        # enumeration bound: N(t) >= t^2/(2ab), so this t covers k_max+1 values
        t = math.isqrt(int(2 * (k_max + 200) * a * b)) + a + b
        values = sorted(
            m * a + n * b
            for m in range(int(t / a) + 1)
            for n in range(int(t / b) + 1)
            if m * a + n * b <= t
        )
        assert len(values) > k_max
        e = Ellipsoid(a, b)
        ok = ok and all(
            ellipsoid_capacity(e, k) == values[k] for k in range(k_max + 1)
        )
        if not ok:
            break
    verdict(capsys, "criterion 02 ellipsoid engine", ok, time.monotonic() - start, 30)


def test_criterion_03_weights_determine_capacities(capsys):
    start = time.monotonic()
    rng = random.Random(2209)
    grid = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
            (Fraction(2), Fraction(3)), (Fraction(5, 2), Fraction(7, 3))]
    while len(grid) < 20:
        pair = (
            Fraction(rng.randint(1, 12), rng.randint(1, 12)),
            Fraction(rng.randint(1, 12), rng.randint(1, 12)),
        )
        if pair not in grid:
            grid.append(pair)
    k_max = 500
    ok = True
    for a, b in grid:
        e = Ellipsoid(a, b)
        sweep = multiset_capacity_sweep(ellipsoid_weights(e), k_max)
        ok = ok and all(sweep[k] == ellipsoid_capacity(e, k) for k in range(k_max + 1))
        if not ok:
            break
    verdict(
        capsys,
        "criterion 03 weights determine capacities",
        ok,
        time.monotonic() - start,
        60,
    )


def test_criterion_04_expansion_roundtrip(capsys):
    start = time.monotonic()
    rng = random.Random(40404)
    ok = True
    for _ in range(200):
        entries = {}
        for _ in range(rng.randint(1, 12)):
            w = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            entries[w] = rng.randint(1, 20)
        wm = WeightMultiset(entries.items())
        back, _ = weight_expansion(realize(wm))
        if back != wm:
            ok = False
            break
    verdict(capsys, "criterion 04 expansion round trip", ok, time.monotonic() - start, 60)


def test_criterion_05_fast_vs_oracle(capsys):
    start = time.monotonic()
    rng = random.Random(50505)
    mismatches = 0
    for _ in range(500):
        entries = {}
        for _ in range(rng.randint(1, 6)):
            entries[Fraction(rng.randint(1, 40), rng.randint(1, 40))] = rng.randint(1, 30)
        wm = WeightMultiset(entries.items())
        k = int(10 ** rng.uniform(0, 5))
        if multiset_capacity_fast(wm, k).best != multiset_capacity_oracle(
            wm, k, oracle_limit=2 * 10**5
        ).best:
            mismatches += 1
    gap_ok = True
    for b1 in (64, 256):
        wm = WeightMultiset(
            [(Fraction(1, math.isqrt(b1)), b1**2), (Fraction(1, b1**2), b1**6)]
        )
        for k in (3 * 10**5, 10**6):
            result = multiset_capacity_fast(wm, k)
            gap_ok = gap_ok and result.gap <= Fraction(1, 20)
            if result.best != multiset_capacity_oracle(wm, k, oracle_limit=2 * 10**6).best:
                mismatches += 1
    verdict(
        capsys,
        "criterion 05 fast solver vs oracle",
        mismatches == 0 and gap_ok,
        time.monotonic() - start,
        300,
        f"{mismatches} mismatches in 504",
    )


def test_criterion_06_weyl_law(capsys):
    start = time.monotonic()
    ok = abs(weyl_ratio(Ellipsoid.ball(1), 10**4) - 1) <= Fraction(1, 20)
    ok = ok and abs(weyl_ratio(Ellipsoid(1, 2), 2000) - 1) <= Fraction(1, 10)
    verdict(capsys, "criterion 06 Weyl law", ok, time.monotonic() - start, 10)


def test_criterion_07_capacity_growth_sweep(capsys):
    start = time.monotonic()
    report = run_lemma_cap_sweep(ExperimentConfig())
    names = [name for name, _, _ in report.verdicts]
    ok = report.passed and "ratio_within_window" in names and "anchor_exact" in names
    verdict(
        capsys,
        "criterion 07 capacity growth sweep",
        ok,
        time.monotonic() - start,
        300,
        report.verdicts[-1][2],
    )


def test_criterion_08_quasiflat_certificate(capsys):
    start = time.monotonic()
    vecs = [ParameterVector([b, b * b]) for b in (4, 16, 64, 256, 1024)]
    cert = certificate([(v, w) for v in vecs for w in vecs])
    ok = cert.consistent
    for p in cert.pairs:
        ok = ok and not p.skipped
        ok = ok and p.lower >= p.metric / 4 - 2 - 1e-9
        ok = ok and p.upper <= 2 * p.metric + 1 + 1e-9
        ok = ok and p.lower <= p.upper + 1e-9
    verdict(
        capsys,
        "criterion 08 quasi-flat certificate",
        ok,
        time.monotonic() - start,
        600,
        f"A={cert.constant_a:.3f} B={cert.constant_b:.3f}",
    )


def test_criterion_09_inclusion_vs_embedding(capsys):
    start = time.monotonic()
    ok = True
    for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        report = run_notsame(ExperimentConfig(epsilon=eps))
        ok = ok and report.passed
    verdict(
        capsys, "criterion 09 inclusion vs embedding", ok, time.monotonic() - start, 120
    )


def test_criterion_10_warmup_inequality(capsys):
    start = time.monotonic()
    report = run_ched_warmup(ExperimentConfig())
    verdict(
        capsys,
        "criterion 10 warm-up inequality",
        report.passed,
        time.monotonic() - start,
        60,
    )


def test_criterion_11_chart_pipeline(capsys):
    start = time.monotonic()
    rng = random.Random(111)
    ok = True
    for _ in range(1000):
        dim = 2 * rng.randint(1, 4)
        x = tuple(Fraction(rng.randint(1, 500), rng.randint(1, 50)) for _ in range(dim))
        ok = ok and map_linear_inverse(map_linear(x)) == x
    for _ in range(200):
        dim = 2 * rng.randint(1, 4)
        x = [3 + Fraction(rng.randint(0, 400), 100) for _ in range(dim)]
        y = map_linear(x)
        for a, b in zip(y, y[1:]):
            ok = ok and b >= 2 * a >= 12
    # exponent stage: an isometry onto the log metric within 2 ulps
    with mpmath.workprec(200):
        for _ in range(100):
            y1 = [Fraction(rng.randint(6, 80)) for _ in range(3)]
            y2 = [Fraction(rng.randint(6, 80)) for _ in range(3)]
            b1 = [mpmath.exp(mpmath.mpf(int(v))) for v in y1]
            b2 = [mpmath.exp(mpmath.mpf(int(v))) for v in y2]
            target = mpmath.mpf(int(max(abs(a - b) for a, b in zip(y1, y2))))
            got = q_metric(b1, b2)
            tol = mpmath.ldexp(2, int(mpmath.mag(max(target, mpmath.mpf(1)))) - 200)
            ok = ok and abs(got - target) <= tol
    # empirical sandwich constants of the snapped chart on the n=1 grid
    grid = [Fraction(i, 2) for i in range(-4, 5)]
    points = {x: chart_embed([x]) for x in grid}
    d_source, d_target = [], []
    for i, x in enumerate(grid):
        for x2 in grid[i + 1 :]:
            d_source.append(abs(float(x - x2)))
            d_target.append(float(q_metric(points[x].B, points[x2].B)))
    a_fit, b_fit = fit_quasi_isometry(d_source, d_target)
    ok = ok and a_fit <= 8 and b_fit <= 3
    verdict(
        capsys,
        "criterion 11 chart pipeline",
        ok,
        time.monotonic() - start,
        60,
        f"A={a_fit:.2f} B={b_fit:.2f}",
    )
