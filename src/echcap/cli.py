"""Command-line entry points.

Verbs: capacity, weights, realize, build-flat, chart, distance,
certificate, lemma-cap, ched, notsame, weyl.  Exit code 0 iff every
configured assertion passes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from .capacities import DEFAULT_ORACLE_LIMIT, CapacityProfile, relative_gap, weyl_ratio
from .distance import DEFAULT_K_CAP, certificate, distance_report
from .domainfile import load_domain, to_document
from .errors import EchcapError
from .experiments import (
    ExperimentConfig,
    emit_report,
    run_ched_warmup,
    run_lemma_cap_sweep,
    run_notsame,
)
from .geometry import Ellipsoid, MomentProfile
from .quasiflat import (
    ParameterVector,
    build_domain,
    build_weights,
    chart_embed,
    validate_parameters,
)
from .scalars import format_rational, parse_rational
from .weights import WeightMultiset, ellipsoid_weights, realize, weight_expansion


def _parse_params(text: str) -> ParameterVector:
    return ParameterVector([parse_rational(p) for p in text.split(",")])


def _emit(doc, out: str | None, name: str):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        path = Path(out)
        if not path.is_dir():
            raise EchcapError(f"output directory does not exist: {path}")
        (path / name).write_text(text)
    else:
        sys.stdout.write(text)


def _load_weights(domain) -> WeightMultiset:
    if isinstance(domain, WeightMultiset):
        return domain
    if isinstance(domain, Ellipsoid):
        return ellipsoid_weights(domain)
    if isinstance(domain, MomentProfile):
        return weight_expansion(domain)[0]
    if isinstance(domain, ParameterVector):
        return build_weights(domain)
    raise EchcapError(f"cannot derive weights from {type(domain).__name__}")


def _capacity_domain(path):
    """A domain file as CapacityProfile takes it: quasi-flat parameter
    vectors become their weights, every other type is passed through."""
    domain = load_domain(path)
    if isinstance(domain, ParameterVector):
        return build_weights(domain)
    return domain


def cmd_capacity(args) -> int:
    if args.k is None and args.kmax is None:
        raise EchcapError("capacity needs --k or --kmax")
    k_max = args.k if args.kmax is None else args.kmax
    profile = CapacityProfile(_capacity_domain(args.domain), k_max, args.oracle_limit)
    if args.kmax is not None:
        rows = []
        for k in range(args.kmax + 1):
            lo, hi = profile.interval(k)
            gap = format(float(relative_gap(lo, hi)), ".12g")
            rows.append((k, lo.numerator, lo.denominator, int(lo == hi), gap))
        writer = csv.writer(sys.stdout)
        writer.writerow(("k", "c_k_num", "c_k_den", "exact", "gap"))
        writer.writerows(rows)
        return 0
    lo, hi = profile.interval(args.k)
    _emit(
        {
            "k": args.k,
            "value": format_rational(lo),
            "upper": format_rational(hi),
            "exact": lo == hi,
        },
        args.out,
        "capacity.json",
    )
    return 0


def cmd_weights(args) -> int:
    domain = load_domain(args.domain)
    _emit(to_document(_load_weights(domain)), args.out, "weights.json")
    return 0


def cmd_realize(args) -> int:
    domain = load_domain(args.domain)
    profile = realize(_load_weights(domain))
    _emit(to_document(profile), args.out, "profile.json")
    return 0


def cmd_build_flat(args) -> int:
    v = _parse_params(args.params)
    record = validate_parameters(v, threshold=Fraction(args.threshold))
    weights = build_weights(v)
    doc = {
        "params": [format_rational(b) for b in v.B],
        "admissible": record.admissible,
        "exact_representable": record.exact_representable,
        "flags": {
            "above_threshold": list(record.above_threshold),
            "growth": list(record.growth),
            "integral_powers": list(record.integral_powers),
            "exact_mode": list(record.exact_mode),
        },
        "weights": to_document(weights),
    }
    try:
        doc["profile"] = to_document(build_domain(v))
    except EchcapError:
        doc["profile"] = None
    _emit(doc, args.out, "quasiflat.json")
    return 0


def cmd_chart(args) -> int:
    if args.points:
        rows = []
        with open(args.points, newline="") as fh:
            for row in csv.reader(fh):
                if row and not row[0].lstrip().startswith("#"):
                    rows.append([Fraction(c) for c in row])
    else:
        rows = [[parse_rational(c) for c in args.x.split(",")]]
    sink = (
        open(Path(args.out) / "chart.csv", "w", newline="")
        if args.out
        else contextlib.nullcontext(sys.stdout)
    )
    with sink as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "y_stage", "b_stage", "snap_error"))
        for point in rows:
            cp = chart_embed(point, snap=args.mode, precision=args.precision)
            writer.writerow(
                (
                    ";".join(str(c) for c in cp.x),
                    ";".join(str(c) for c in cp.y),
                    ";".join(
                        format_rational(b) if isinstance(b, Fraction) else format(float(b), ".12g")
                        for b in cp.B
                    ),
                    ";".join(format(float(e), ".6g") for e in cp.snap_errors),
                )
            )
    return 0


def cmd_distance(args) -> int:
    u = load_domain(args.domain)
    v = load_domain(args.domain2)
    params = None
    if isinstance(u, ParameterVector) and isinstance(v, ParameterVector):
        params = (u, v)
        u, v = build_weights(u), build_weights(v)
    if isinstance(u, ParameterVector) or isinstance(v, ParameterVector):
        raise EchcapError("distance needs two comparable domains")
    report = distance_report(
        u, v, args.kmax, parameters=params, oracle_limit=args.oracle_limit
    )
    doc = {
        "lower_capacity": report.lower_capacity,
        "capacity_witness_k": report.capacity_witness_k,
        "lower_volume": report.lower_volume,
        "upper_inclusion": (
            None
            if report.upper_inclusion is None
            else {
                "distance": report.upper_inclusion.distance,
                "scale_into_v": format_rational(report.upper_inclusion.scale_into_v),
                "scale_into_u": format_rational(report.upper_inclusion.scale_into_u),
            }
        ),
        "upper_lemma": report.upper_lemma,
        "lower": report.lower,
        "upper": report.upper,
        "consistent": report.consistent,
    }
    _emit(doc, args.out, "distance.json")
    return 0 if report.consistent else 1


def cmd_certificate(args) -> int:
    bases = [parse_rational(b) for b in args.grid.split(",")]
    vectors = [ParameterVector([b, b * b]) for b in bases]
    pairs = [(v, w) for v in vectors for w in vectors]
    cert = certificate(
        pairs,
        k_cap=args.k_cap,
        oracle_limit=args.oracle_limit,
        include_inclusion=not args.no_inclusion,
    )
    rows = []
    for idx, p in enumerate(cert.pairs):
        rows.append(
            {
                "pair": idx,
                "v": [format_rational(b) for b in p.v.B],
                "w": [format_rational(b) for b in p.w.B],
                "metric": p.metric,
                "lower": p.lower,
                "upper": p.upper,
                "witness_k": p.witness_k,
                "gap": (None if p.skipped else p.upper - p.lower),
                "skipped": p.skipped,
                "reason": p.reason,
            }
        )
    doc = {
        "constant_a": cert.constant_a,
        "constant_b": cert.constant_b,
        "consistent": cert.consistent,
        "pairs": rows,
    }
    _emit(doc, args.out, "certificate.json")
    if args.out:
        with open(Path(args.out) / "certificate.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("pair", "metric", "lower", "upper", "witness_k", "gap"))
            for row in rows:
                writer.writerow(
                    (
                        row["pair"],
                        format(row["metric"], ".12g"),
                        format(row["lower"], ".12g"),
                        format(row["upper"], ".12g"),
                        row["witness_k"],
                        format(row["gap"], ".12g"),
                    )
                )
    return 0 if cert.consistent else 1


def cmd_weyl(args) -> int:
    ratio = weyl_ratio(
        _capacity_domain(args.domain), args.k, oracle_limit=args.oracle_limit
    )
    _emit(
        {"k": args.k, "ratio": format_rational(ratio), "ratio_float": float(ratio)},
        args.out,
        "weyl.json",
    )
    return 0


def _experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig(oracle_limit=args.oracle_limit)
    if getattr(args, "params", None):
        cfg.params = tuple(_parse_params(args.params).B)
    if getattr(args, "epsilon", None):
        cfg.epsilon = parse_rational(args.epsilon)
    if getattr(args, "volume", None):
        cfg.volume = parse_rational(args.volume)
    if getattr(args, "kmax", None):
        cfg.k_max = args.kmax
        cfg.k0_max = args.kmax
    return cfg


def _run_experiment(runner, args) -> int:
    cfg = _experiment_config(args)
    report = runner(cfg)
    for name, ok, detail in report.verdicts:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
    if args.out:
        emit_report(report, args.out)
    return 0 if report.passed else 1


def _add_common(parser, oracle_limit: bool = True):
    parser.add_argument("--out", help="output directory")
    if oracle_limit:
        parser.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echcap",
        description="ECH capacities of concave toric domains and "
        "Banach-Mazur distance certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity of a domain file")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--kmax", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("weights", help="weight expansion of a domain")
    p.add_argument("--domain", required=True)
    _add_common(p, oracle_limit=False)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("realize", help="realize a weight multiset")
    p.add_argument("--domain", required=True)
    _add_common(p, oracle_limit=False)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("build-flat", help="quasi-flat weights from parameters")
    p.add_argument("--params", required=True, help="e.g. 64,4096")
    p.add_argument("--threshold", default="64", choices=["8", "64"])
    _add_common(p, oracle_limit=False)
    p.set_defaults(func=cmd_build_flat)

    p = sub.add_parser("chart", help="chart-embed points of R^n")
    p.add_argument("--points", help="CSV of x-points")
    p.add_argument("--x", help="inline point, e.g. 0,1/2")
    p.add_argument("--mode", default="exact", choices=["exact", "approx"])
    p.add_argument("--precision", type=int, default=200)
    _add_common(p, oracle_limit=False)
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("distance", help="distance bounds between two domains")
    p.add_argument("--domain", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--kmax", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("certificate", help="quasi-flat certificate on a grid")
    p.add_argument("--grid", default="4,16,64,256,1024", help="B_1 values; B_2 = B_1^2")
    p.add_argument("--k-cap", type=int, default=DEFAULT_K_CAP)
    p.add_argument("--no-inclusion", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("lemma-cap", help="capacity growth sweep")
    p.add_argument("--params")
    _add_common(p)
    p.set_defaults(func=lambda a: _run_experiment(run_lemma_cap_sweep, a))

    p = sub.add_parser("ched", help="warm-up inequality experiment")
    p.add_argument("--epsilon")
    p.add_argument("--volume")
    p.add_argument("--kmax", type=int)
    _add_common(p)
    p.set_defaults(func=lambda a: _run_experiment(run_ched_warmup, a))

    p = sub.add_parser("notsame", help="inclusion vs embedding contrast")
    p.add_argument("--epsilon")
    p.add_argument("--kmax", type=int)
    _add_common(p)
    p.set_defaults(func=lambda a: _run_experiment(run_notsame, a))

    p = sub.add_parser("weyl", help="Weyl-law ratio diagnostic")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weyl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EchcapError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
