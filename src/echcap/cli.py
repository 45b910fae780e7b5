"""Command-line entry points.

Verbs: capacity, weights, realize, build-flat, chart, distance,
certificate, lemma-cap, ched, notsame, weyl.  Exit code 0 iff every
configured assertion passes.

Each verb returns its exit code and its files, ``[(file name, text), ...]``,
and ``main`` alone writes them, after the verb has succeeded: every file
into ``--out``, or the first one to standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .capacities import CapacityProfile, as_weights, relative_gap, weyl_ratio
from .distance import DEFAULT_K_CAP, certificate, distance_report
from .domainfile import load_domain, to_document
from .errors import EchcapError
from .experiments import (
    ExperimentConfig,
    run_ched_warmup,
    run_lemma_cap_sweep,
    run_notsame,
)
from .quasiflat import ParameterVector, build_weights, chart_embed, validate_parameters
from .scalars import format_rational, parse_rational
from .weights import realize


def _parse_params(text: str) -> ParameterVector:
    return ParameterVector([parse_rational(p) for p in text.split(",")])


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(columns, rows) -> str:
    """A header row and the rows, in the ``csv`` module's default dialect:
    a float cell to 12 significant digits, None as an empty cell."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(
        [format(cell, ".12g") if isinstance(cell, float) else cell for cell in row] for row in rows
    )
    return text.getvalue()


def cmd_capacity(args) -> tuple:
    if args.k is None and args.kmax is None:
        raise EchcapError("capacity needs --k or --kmax")
    if args.k is not None and args.kmax is not None:
        raise EchcapError("capacity takes --k or --kmax, not both")
    k_max = args.k if args.kmax is None else args.kmax
    profile = CapacityProfile(load_domain(args.domain), k_max)
    if args.kmax is not None:
        rows = []
        for k in range(args.kmax + 1):
            lo, hi = profile.interval(k)
            exact = lo == hi
            gap = 0.0 if exact else float(relative_gap(lo, hi))
            rows.append((k, lo.numerator, lo.denominator, int(exact), gap))
        return 0, [("capacity.csv", _csv(("k", "c_k_num", "c_k_den", "exact", "gap"), rows))]
    lo, hi = profile.interval(args.k)
    doc = {
        "k": args.k,
        "value": format_rational(lo),
        "upper": format_rational(hi),
        "exact": lo == hi,
    }
    return 0, [("capacity.json", _json(doc))]


def cmd_weights(args) -> tuple:
    return 0, [("weights.json", _json(to_document(as_weights(load_domain(args.domain)))))]


def cmd_realize(args) -> tuple:
    profile = realize(as_weights(load_domain(args.domain)))
    return 0, [("profile.json", _json(to_document(profile)))]


def cmd_build_flat(args) -> tuple:
    v = _parse_params(args.params)
    record = validate_parameters(v, threshold=Fraction(args.threshold))
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
        "weights": None,
        "profile": None,
    }
    # without exact weights there is no profile either
    with contextlib.suppress(EchcapError):
        weights = build_weights(v)
        doc["weights"] = to_document(weights)
        doc["profile"] = to_document(realize(weights))
    return 0, [("quasiflat.json", _json(doc))]


def cmd_chart(args) -> tuple:
    if args.points is None and args.x is None:
        raise EchcapError("chart needs --points or --x")
    if args.points:
        rows = []
        with open(args.points, newline="") as fh:
            for row in csv.reader(fh):
                if row and not row[0].lstrip().startswith("#"):
                    try:
                        rows.append([Fraction(c) for c in row])
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in point {row}") from None
    else:
        rows = [[parse_rational(c) for c in args.x.split(",")]]
    points = [chart_embed(point, snap=args.mode, precision=args.precision) for point in rows]
    cells = [
        (
            ";".join(str(c) for c in cp.x),
            ";".join(str(c) for c in cp.y),
            ";".join(
                format_rational(b) if isinstance(b, Fraction) else format(float(b), ".12g")
                for b in cp.B
            ),
            ";".join(format(float(e), ".6g") for e in cp.snap_errors),
        )
        for cp in points
    ]
    return 0, [("chart.csv", _csv(("x", "y_stage", "b_stage", "snap_error"), cells))]


def cmd_distance(args) -> tuple:
    report = distance_report(load_domain(args.domain), load_domain(args.domain2), args.kmax)
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
    return (0 if report.consistent else 1), [("distance.json", _json(doc))]


def cmd_certificate(args) -> tuple:
    bases = [parse_rational(b) for b in args.grid.split(",")]
    vectors = [ParameterVector([b, b * b]) for b in bases]
    pairs = [(v, w) for v in vectors for w in vectors]
    cert = certificate(pairs, k_cap=args.k_cap, include_inclusion=not args.no_inclusion)
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
    cells = [
        (row["pair"], row["metric"], row["lower"], row["upper"], row["witness_k"], row["gap"])
        for row in rows
    ]
    # the CSV second, so standard output gets only the JSON
    return (0 if cert.consistent else 1), [
        ("certificate.json", _json(doc)),
        ("certificate.csv", _csv(("pair", "metric", "lower", "upper", "witness_k", "gap"), cells)),
    ]


def cmd_weyl(args) -> tuple:
    ratio = weyl_ratio(load_domain(args.domain), args.k)
    doc = {"k": args.k, "ratio": format_rational(ratio), "ratio_float": float(ratio)}
    return 0, [("weyl.json", _json(doc))]


def _experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "params", None):
        cfg.params = tuple(_parse_params(args.params).B)
    if getattr(args, "epsilon", None):
        cfg.epsilon = parse_rational(args.epsilon)
    if getattr(args, "volume", None):
        cfg.volume = parse_rational(args.volume)
    if getattr(args, "kmax", None) is not None:
        cfg.k_max = args.kmax
        cfg.k0_max = args.kmax
    return cfg


def _run_experiment(runner, args) -> tuple:
    """Print the verdict lines, with or without --out, and return the
    report and its CSV only under --out."""
    report = runner(_experiment_config(args))
    for name, ok, detail in report.verdicts:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
    files = []
    if args.out:
        doc = {
            "command": report.command,
            "inputs": report.inputs,
            "verdicts": [{"name": n, "passed": ok, "detail": d} for n, ok, d in report.verdicts],
            "passed": report.passed,
        }
        files = [
            (f"{report.command}_report.json", _json(doc)),
            (f"{report.command}.csv", _csv(report.columns, report.rows)),
        ]
    return (0 if report.passed else 1), files


def cmd_notsame(args) -> tuple:
    # a negative --kmax is refused as a capacity index; 0 would sample no k
    if args.kmax == 0:
        raise EchcapError("notsame needs --kmax >= 1")
    return _run_experiment(run_notsame, args)


def _timed(args) -> int:
    """Run the verb and write its files: with --out, each into the
    directory (``newline=""`` keeps the CSVs' CRLF line ends), then
    ``<verb>_timing.txt`` (``-`` spelled ``_``) next to them, outside the
    byte-stable reports; without it, the first file to standard output."""
    start = time.monotonic()
    code, files = args.func(args)
    if args.out:
        for name, text in files:
            (Path(args.out) / name).write_text(text, newline="")
        timing = Path(args.out) / f"{args.command.replace('-', '_')}_timing.txt"
        timing.write_text(f"wall_clock_seconds {time.monotonic() - start:.3f}\n")
    elif files:
        sys.stdout.write(files[0][1])
    return code


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
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("weights", help="weight expansion of a domain")
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("realize", help="realize a weight multiset")
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("build-flat", help="quasi-flat weights from parameters")
    p.add_argument("--params", required=True, help="e.g. 64,4096")
    p.add_argument("--threshold", default="64", choices=["8", "64"])
    p.set_defaults(func=cmd_build_flat)

    p = sub.add_parser("chart", help="chart-embed points of R^n")
    p.add_argument("--points", help="CSV of x-points")
    p.add_argument("--x", help="inline point, e.g. 0,1/2")
    p.add_argument("--mode", default="exact", choices=["exact", "approx"])
    p.add_argument("--precision", type=int, default=200)
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("distance", help="distance bounds between two domains")
    p.add_argument("--domain", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--kmax", type=int, default=500)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("certificate", help="quasi-flat certificate on a grid")
    p.add_argument("--grid", default="4,16,64,256,1024", help="B_1 values; B_2 = B_1^2")
    p.add_argument("--k-cap", type=int, default=DEFAULT_K_CAP)
    p.add_argument("--no-inclusion", action="store_true")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("lemma-cap", help="capacity growth sweep")
    p.add_argument("--params")
    p.set_defaults(func=lambda a: _run_experiment(run_lemma_cap_sweep, a))

    p = sub.add_parser("ched", help="warm-up inequality experiment")
    p.add_argument("--epsilon")
    p.add_argument("--volume")
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=lambda a: _run_experiment(run_ched_warmup, a))

    p = sub.add_parser("notsame", help="inclusion vs embedding contrast")
    p.add_argument("--epsilon")
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=cmd_notsame)

    p = sub.add_parser("weyl", help="Weyl-law ratio diagnostic")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_weyl)

    for p in sub.choices.values():
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out and not Path(args.out).is_dir():
            raise EchcapError(f"output directory does not exist: {Path(args.out)}")
        return _timed(args)
    except (EchcapError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
