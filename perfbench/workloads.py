"""The three workloads: seeded inputs, the fixed job list of one pass, a
warm-up call, and the checks of a pass's outputs.

Every size is passed to echcap explicitly, so a changed default in the
package changes the program, not the workload.  Jobs look their function up
on the module when they run, so the tracer's rebinding reaches them.
The seed changes the numbers (job order, scale factors, sampled indices,
random multisets and points) but not the amount of work, so that runs with
different seeds time the same computation.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from echcap import capacities, distance, experiments, geometry, quasiflat, weights
from echcap.geometry import Ellipsoid
from echcap.quasiflat import ParameterVector

import checkers

ORACLE_LIMIT = 4 * 10**5  # the DP budget limit, passed explicitly

# flat-certificate
GRID = (4, 16, 64)  # B; the grid vectors are (B, B^2)
K_CAP = 3000
PER_DECADE = 8
PRECISION = 200

# flat-sweep: (name, sweep k_max, oracle k before the seeded offset)
FLAT_SWEEPS = (
    ("quasiflat(4,16)", 16000, 8000),
    ("quasiflat(64,4096)", 10000, 6000),
    ("ched", 16000, 10000),
    ("notsame", 20000, 10000),
)
CHED_VOLUME = Fraction(1000)
NOTSAME_N = 16  # ball and E(1/16, 16)

# concave-domains
ELLIPSOID_QUOTIENTS = (2, 1, 1, 2, 1, 3, 1, 2, 1, 1, 3, 2, 1, 1, 2, 1)
ELLIPSOID_LEADS = (1, 2, 3, 5)  # first partial quotient of each ellipsoid
ELLIPSOID_SWEEP_K = 30000
LATTICE_KS = (300000, 1000000)  # ellipsoid_capacity indices before the offset
ELLIPSOID_K_LIMIT = 10**6 + 10**4
RANDOM_MULTISETS = 30
MULTISET_CLASSES = 12
STEP_LIMIT = 10**6
REALIZATION_LIMIT = 10**4
CHART_POINTS = 60
CHART_DIM = 4


@dataclass
class Job:
    """One operation of a pass: ``module.func(*args, **kwargs)``."""

    label: str
    module: object
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    ops: int = 1  # operations the call performs, for attempted/failed

    def __call__(self):
        return getattr(self.module, self.func)(*self.args, **self.kwargs)


@dataclass
class Workload:
    name: str
    jobs: list
    warm_up: Job
    check: Callable  # outputs (one per job) -> list of problems
    failures: Callable = lambda outputs: 0  # failed operations in a pass
    inputs: dict = field(default_factory=dict)  # sizes, for the result file


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))


def _rel_close(x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _scale(rng) -> Fraction:
    return Fraction(rng.randint(1, 40), rng.randint(1, 40))


# ---------------------------------------------------------------------------
# flat-certificate
# ---------------------------------------------------------------------------


def flat_certificate(rng) -> Workload:
    vectors = [(b, b * b) for b in GRID]
    pairs = [(v, w) for v in vectors for w in vectors]
    rng.shuffle(pairs)
    params = [(ParameterVector(v), ParameterVector(w)) for v, w in pairs]
    kwargs = dict(
        k_cap=K_CAP,
        per_decade=PER_DECADE,
        oracle_limit=ORACLE_LIMIT,
        include_inclusion=True,
        precision=PRECISION,
    )
    job = Job("certificate", distance, "certificate", (params,), kwargs, ops=len(pairs))
    small = ParameterVector(vectors[0])
    warm = Job("certificate", distance, "certificate", ([(small, small)],), dict(kwargs, k_cap=100))

    def check(outputs):
        cert = outputs[0]
        problems = []
        if len(cert.pairs) != len(pairs):
            return [f"{len(cert.pairs)} rows for {len(pairs)} pairs"]
        rows = {}
        for (v, w), p in zip(pairs, cert.pairs):
            rows[(v, w)] = p
            if p.skipped:
                problems.append(f"pair {v} {w} skipped: {p.reason}")
                continue
            classes_v = checkers.quasiflat_classes(v)
            classes_w = checkers.quasiflat_classes(w)
            vol = abs(math.log(checkers.multiset_area(classes_v) / checkers.multiset_area(classes_w))) / 2
            metric = max(abs(math.log(x / y)) for x, y in zip(v, w))
            if not p.lower <= p.upper:
                problems.append(f"pair {v} {w}: lower {p.lower} > upper {p.upper}")
            if v == w and p.lower != 0:
                problems.append(f"diagonal pair {v}: lower {p.lower} != 0")
            if not _rel_close(p.metric, metric):
                problems.append(f"pair {v} {w}: metric {p.metric} != {metric}")
            if p.lower < vol * (1 - 1e-12):
                problems.append(f"pair {v} {w}: lower {p.lower} below volume bound {vol}")
            bound = vol
            if p.witness_k > 0:
                c_v = checkers.two_class_capacity(classes_v, p.witness_k)
                c_w = checkers.two_class_capacity(classes_w, p.witness_k)
                bound = max(bound, abs(math.log(c_v / c_w)))
            if p.lower > bound * (1 + 1e-12):
                problems.append(
                    f"pair {v} {w}: lower {p.lower} above the exact bound {bound} at k={p.witness_k}"
                )
            if not (metric / 4 - 2 - 1e-9 <= p.lower and p.upper <= 2 * metric + 1 + 1e-9):
                problems.append(f"pair {v} {w}: outside the quasi-flat sandwich")
        for (v, w), p in rows.items():
            q = rows[(w, v)]
            if p.skipped or q.skipped:
                continue
            if not (_rel_close(p.lower, q.lower) and _rel_close(p.upper, q.upper)):
                problems.append(f"pairs {v} {w} and reverse disagree")
        return problems

    return Workload(
        "flat-certificate",
        [job],
        warm,
        check,
        failures=lambda outputs: sum(p.skipped for p in outputs[0].pairs),
        inputs={"grid": [list(v) for v in vectors], "pairs": len(pairs), **kwargs},
    )


# ---------------------------------------------------------------------------
# flat-sweep
# ---------------------------------------------------------------------------


def flat_sweep(rng) -> Workload:
    domains = []  # (name, multiset, reference classes, k_max, oracle k)
    for name, k_max, k_oracle in FLAT_SWEEPS:
        k_oracle += rng.randrange(k_oracle // 50)
        if name.startswith("quasiflat"):
            B = (4, 16) if name == "quasiflat(4,16)" else (64, 4096)
            t = _scale(rng)
            w = quasiflat.build_weights(ParameterVector(B)).scaled(t)
            ref = checkers.quasiflat_classes(B, t)
        elif name == "ched":
            eps = Fraction(1, 2 ** rng.randint(8, 11))
            w = experiments.ched_weight_model(eps, CHED_VOLUME)
            # fewest eps-balls that bring the area 1/2 + m eps^2 / 2 to the volume
            m = math.ceil((2 * CHED_VOLUME - 1) / eps**2)
            ref = [(Fraction(1), 1), (eps, m)]
        else:
            t = _scale(rng)
            w = experiments.notsame_weights(Fraction(1, NOTSAME_N)).scaled(t)
            # the ball B(1) and the NOTSAME_N^2 balls of E(1/n, n)
            ref = [(t, 1), (t / NOTSAME_N, NOTSAME_N**2)]
        domains.append((name, w, ref, k_max, k_oracle))

    jobs = []
    for name, w, _, k_max, k_oracle in domains:
        jobs.append(Job(f"sweep {name}", capacities, "multiset_capacity_sweep", (w, k_max), {"oracle_limit": ORACLE_LIMIT}))
        jobs.append(Job(f"oracle {name}", capacities, "multiset_capacity_oracle", (w, k_oracle), {"oracle_limit": ORACLE_LIMIT}))
    order = list(range(len(jobs)))
    rng.shuffle(order)
    sample_ks = {
        name: sorted({0, 1, 2, 3, k_max} | {rng.randint(1, k_max) for _ in range(30)})
        for name, _, _, k_max, _ in domains
    }
    by_label = {job.label: i for i, job in enumerate(jobs)}
    warm = Job("sweep", capacities, "multiset_capacity_sweep", (domains[0][1], 200), {"oracle_limit": ORACLE_LIMIT})

    def check(outputs):
        out = {jobs[i].label: o for i, o in zip(order, outputs)}
        problems = []
        for name, w, ref, k_max, k_oracle in domains:
            if sorted(w.entries) != sorted(ref):
                problems.append(f"{name}: input weights {w} differ from {ref}")
                continue
            sweep = out[f"sweep {name}"]
            if len(sweep) != k_max + 1 or sweep[0] != 0:
                problems.append(f"{name}: sweep has {len(sweep)} values, c_0 = {sweep[0]}")
                continue
            if any(b < a for a, b in zip(sweep, sweep[1:])):
                problems.append(f"{name}: sweep decreases")
            for k in sample_ks[name]:
                exact = checkers.two_class_capacity(ref, k)
                if sweep[k] != exact:
                    problems.append(f"{name}: swept c_{k} = {sweep[k]}, exact {exact}")
            result = out[f"oracle {name}"]
            exact = checkers.two_class_capacity(ref, k_oracle)
            if not result.exact or result.best != exact:
                problems.append(f"{name}: oracle c_{k_oracle} = {result.best}, exact {exact}")
            assignment = [(c.weight, c.copies, c.level, c.promoted) for c in result.witness.classes]
            if sorted((wt, n) for wt, n, _, _ in assignment) != sorted(ref):
                problems.append(f"{name}: witness classes differ from the domain")
            if any(not 0 <= r < n or d < 0 for _, n, d, r in assignment):
                problems.append(f"{name}: witness not in normal form")
            if checkers.witness_cost(assignment) > 2 * k_oracle:
                problems.append(f"{name}: witness cost above 2k = {2 * k_oracle}")
            if checkers.witness_value(assignment) != result.best:
                problems.append(f"{name}: witness value differs from c_{k_oracle}")
        return problems

    return Workload(
        "flat-sweep",
        [jobs[i] for i in order],
        warm,
        check,
        inputs={
            name: {"weights": repr(w), "sweep_k_max": k_max, "oracle_k": k_oracle}
            for name, w, _, k_max, k_oracle in domains
        },
    )


# ---------------------------------------------------------------------------
# concave-domains
# ---------------------------------------------------------------------------


def _continued_fraction(quotients) -> Fraction:
    x = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        x = q + 1 / x
    return x


def _seeded_ellipsoid(rng, lead: int) -> Ellipsoid:
    """E(a, b) with b/a = [lead; q_1, ..., q_m], the q_i a seeded order of
    ELLIPSOID_QUOTIENTS.  The last quotient is kept >= 2 so that the weight
    sequence has one class of q_i copies per quotient whatever the order."""
    rest = list(ELLIPSOID_QUOTIENTS)
    rng.shuffle(rest)
    last = next(i for i in reversed(range(len(rest))) if rest[i] >= 2)
    rest.append(rest.pop(last))
    ratio = _continued_fraction([lead] + rest)
    return Ellipsoid(ratio.denominator, ratio.numerator)


def _random_multiset(rng) -> weights.WeightMultiset:
    sizes = set()
    while len(sizes) < MULTISET_CLASSES:
        sizes.add(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
    return weights.WeightMultiset((s, rng.randint(1, 4)) for s in sizes)


def _ellipsoid_sweep(e: Ellipsoid, k_max: int):
    w = weights.ellipsoid_weights(e)
    return w, capacities.multiset_capacity_sweep(w, k_max, oracle_limit=ORACLE_LIMIT)


def _round_trip(w, t):
    profile = weights.realize(w, realization_limit=REALIZATION_LIMIT)
    back, _ = weights.weight_expansion(profile, step_limit=STEP_LIMIT)
    inclusion = distance.inclusion_distance(profile, geometry.scale(profile, t))
    return profile, back, inclusion


def _chart(x):
    point = quasiflat.chart_embed(x, snap="exact", precision=PRECISION)
    return point, quasiflat.map_linear_inverse(quasiflat.map_linear(point.folded))


def concave_domains(rng) -> Workload:
    ellipsoids = [_seeded_ellipsoid(rng, lead) for lead in ELLIPSOID_LEADS]
    lattice = [(e, k + rng.randrange(k // 100)) for e in ellipsoids for k in LATTICE_KS]
    multisets = [(_random_multiset(rng), _scale(rng)) for _ in range(RANDOM_MULTISETS)]
    points = [
        tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 10)) for _ in range(CHART_DIM))
        for _ in range(CHART_POINTS)
    ]
    module = sys.modules[__name__]
    jobs = (
        [Job("ellipsoid sweep", module, "_ellipsoid_sweep", (e, ELLIPSOID_SWEEP_K), ops=2) for e in ellipsoids]
        + [
            Job("ellipsoid capacity", capacities, "ellipsoid_capacity", (e, k), {"k_limit": ELLIPSOID_K_LIMIT})
            for e, k in lattice
        ]
        + [Job("round trip", module, "_round_trip", (w, t), ops=3) for w, t in multisets]
        + [Job("chart", module, "_chart", (x,), ops=3) for x in points]
    )
    order = list(range(len(jobs)))
    rng.shuffle(order)
    warm = Job("round trip", module, "_round_trip", multisets[0])

    def check(outputs):
        out = [None] * len(jobs)
        for i, o in zip(order, outputs):
            out[i] = o
        it = iter(out)
        problems = []
        sweeps = [next(it) for _ in ellipsoids]
        values = [next(it) for _ in lattice]
        for e, (w, sweep) in zip(ellipsoids, sweeps):
            if sweep != checkers.lattice_values(e.a, e.b, ELLIPSOID_SWEEP_K + 1):
                problems.append(f"E({e.a}, {e.b}): weight sweep differs from the lattice values")
        for (e, k), value in zip(lattice, values):
            if value != checkers.lattice_value(e.a, e.b, k):
                problems.append(f"E({e.a}, {e.b}): c_{k} = {value} differs from the lattice value")
        for w, t in multisets:
            profile, back, inclusion = next(it)
            if back != w:
                problems.append(f"{w}: weight_expansion(realize(W)) = {back}")
            if checkers.shoelace_area(profile.vertices) != checkers.multiset_area(w.entries):
                problems.append(f"{w}: realized area differs from sum m w^2 / 2")
            if inclusion.scale_into_u != t or inclusion.scale_into_v != 1 / t:
                problems.append(
                    f"{w}: inclusion scales {inclusion.scale_into_v}, {inclusion.scale_into_u} for t = {t}"
                )
        for x in points:
            point, back = next(it)
            folded = tuple(3 + max(c, 0) if j % 2 == 0 else 3 + max(-c, 0) for c in x for j in (0, 1))
            if point.folded != folded or back != folded:
                problems.append(f"chart at {x}: fold or linear round trip is wrong")
            y = point.y
            if not (y[0] >= 12 and all(b >= 2 * a for a, b in zip(y, y[1:]))):
                problems.append(f"chart at {x}: linear stage not doubling")
            if any(math.isqrt(int(b)) ** 2 != b for b in point.B):
                problems.append(f"chart at {x}: snapped parameters are not perfect squares")
        return problems

    return Workload(
        "concave-domains",
        [jobs[i] for i in order],
        warm,
        check,
        inputs={
            "ellipsoids": [f"E({e.a}, {e.b})" for e in ellipsoids],
            "weight_classes": [len(weights.ellipsoid_weights(e)) for e in ellipsoids],
            "sweep_k_max": ELLIPSOID_SWEEP_K,
            "lattice_k": [k for _, k in lattice],
            "random_multisets": RANDOM_MULTISETS,
            "multiset_classes": MULTISET_CLASSES,
            "chart_points": CHART_POINTS,
            "chart_dim": CHART_DIM,
        },
    )


BUILDERS = {
    "flat-certificate": flat_certificate,
    "flat-sweep": flat_sweep,
    "concave-domains": concave_domains,
}
