import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from echcap import capacities, cli
from echcap.capacities import (
    CapacityProfile,
    multiset_capacity_fast,
    multiset_capacity_oracle,
    relative_gap,
)
from echcap.cli import build_parser, main
from echcap.distance import distance_report
from echcap.domainfile import load_domain, save_domain
from echcap.experiments import (
    ExperimentConfig,
    ched_weight_model,
    run_ched_warmup,
    run_lemma_cap_sweep,
    run_notsame,
)
from echcap.geometry import Ellipsoid, MomentProfile
from echcap.quasiflat import ParameterVector, build_domain, build_weights
from echcap.scalars import format_rational
from echcap.weights import WeightMultiset


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    save_domain(Ellipsoid.ball(1), path)
    return str(path)


@pytest.fixture
def ellipsoid_file(tmp_path):
    path = tmp_path / "ell.json"
    save_domain(Ellipsoid(1, 2), path)
    return str(path)


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "weights.json"
    save_domain(WeightMultiset([(1, 1), (Fraction(2, 3), 2), (Fraction(1, 5), 7)]), path)
    return str(path)


@pytest.fixture
def quasiflat_file(tmp_path):
    path = tmp_path / "flat.json"
    save_domain(ParameterVector([4, 16]), path)
    return str(path)


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.json"
    save_domain(MomentProfile([(0, 2), (1, 0)]), path)  # weights {1, 1}
    return str(path)


def _csv_rows(capsys):
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


def test_capacity_single_k(ball_file, capsys):
    assert main(["capacity", "--domain", ball_file, "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"k": 3, "value": "2/1", "upper": "2/1", "exact": True}


def test_capacity_sweep_csv(ellipsoid_file, capsys):
    assert main(["capacity", "--domain", ellipsoid_file, "--kmax", "4"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["k", "c_k_num", "c_k_den", "exact", "gap"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "2", "2", "3"]


def test_capacity_sweep_out_file(ellipsoid_file, tmp_path, capsys):
    assert main(["capacity", "--domain", ellipsoid_file, "--kmax", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(io.StringIO((tmp_path / "capacity.csv").read_text())))
    assert rows[0] == ["k", "c_k_num", "c_k_den", "exact", "gap"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "2", "2", "3"]


def test_capacity_k_and_kmax(ball_file, capsys):
    assert main(["capacity", "--domain", ball_file, "--k", "5", "--kmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: capacity takes --k or --kmax, not both\n"


def test_capacity_of_quasiflat_profile(tmp_path, capsys):
    """The explicit profile of (1024, 1024^2) has 2^20 and 2^60 copies of
    its two weights; its capacity is the quasi-flat file's."""
    flat = tmp_path / "flat.json"
    profile = tmp_path / "profile.json"
    save_domain(ParameterVector([1024, 1024**2]), flat)
    save_domain(build_domain(ParameterVector([1024, 1024**2])), profile)
    docs = []
    for path in (profile, flat):
        assert main(["capacity", "--domain", str(path), "--k", "100000"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]
    assert Fraction(docs[0]["value"]) == 3125 and docs[0]["exact"]


@pytest.mark.parametrize("domain", ["ball_file", "ellipsoid_file", "weights_file"])
@pytest.mark.parametrize("flag", ["--kmax", "--k"])
def test_capacity_negative_index(domain, flag, request, capsys):
    path = request.getfixturevalue(domain)
    assert main(["capacity", "--domain", path, flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: capacity index must be >= 0\n"


def test_capacity_sweep_above_oracle_limit(weights_file, capsys):
    """Below the sweep's reach (oracle_limit // 2 = 2) c_k comes from the
    sweep, above it from the exact engine; both give the oracle's value, and
    so does the CLI just above the fixed reach of 2 * 10**5."""
    w = load_domain(weights_file)
    profile = CapacityProfile(w, 6, oracle_limit=4)
    assert profile.reach == 2
    for k in range(7):
        c = multiset_capacity_oracle(w, k).best
        assert profile.interval(k) == (c, c)
    k = capacities.DEFAULT_ORACLE_LIMIT // 2 + 1
    assert main(["capacity", "--domain", weights_file, "--k", str(k)]) == 0
    doc = json.loads(capsys.readouterr().out)
    c = multiset_capacity_oracle(w, k, oracle_limit=2 * k).best
    assert doc == {"k": k, "value": format_rational(c), "upper": format_rational(c), "exact": True}


def test_capacity_sweep_interval_rows(weights_file, monkeypatch, capsys):
    """With the sweep's reach at 2 and no window DP cells, the exact engine
    leaves intervals above k = 2: those rows read exact 0 and their relative
    gap, the others exact 1 and gap 0."""
    monkeypatch.setattr(cli, "CapacityProfile", functools.partial(CapacityProfile, oracle_limit=4))
    monkeypatch.setattr(capacities, "_CELL_LIMIT", 0)
    assert main(["capacity", "--domain", weights_file, "--kmax", "6"]) == 0
    rows = _csv_rows(capsys)[1:]
    w = load_domain(weights_file)
    profile = CapacityProfile(w, 6, oracle_limit=4)
    inexact = 0
    for k, num, den, exact, gap in rows:
        lo, hi = profile.interval(int(k))
        assert Fraction(int(num), int(den)) == lo <= multiset_capacity_oracle(w, int(k)).best <= hi
        if lo == hi:
            assert (exact, gap) == ("1", "0")
        else:
            inexact += 1
            assert (exact, gap) == ("0", format(float(relative_gap(lo, hi)), ".12g"))
            assert float(gap) > 0
    assert inexact > 0 and all(r[3] == "1" for r in rows[:3])


def test_capacity_sweep_ellipsoid_matches_enumeration(tmp_path, capsys):
    """Every row of a --kmax sweep on E(3/4, 5/3) is the (k+1)-st smallest
    of {3m/4 + 5n/3}, listed and sorted directly."""
    path = tmp_path / "ell.json"
    save_domain(Ellipsoid(Fraction(3, 4), Fraction(5, 3)), path)
    assert main(["capacity", "--domain", str(path), "--kmax", "2000"]) == 0
    rows = _csv_rows(capsys)[1:]
    # in twelfths: 3/4 = 9/12 and 5/3 = 20/12
    bound = math.isqrt(2 * 9 * 20 * 2001) + 9
    values = sorted(9 * m + 20 * n for n in range(bound // 20 + 1) for m in range((bound - 20 * n) // 9 + 1))
    assert len(values) >= 2001
    assert [int(r[0]) for r in rows] == list(range(2001))
    for (k, num, den, exact, gap), v in zip(rows, values):
        assert Fraction(int(num), int(den)) == Fraction(v, 12)
        assert (exact, gap) == ("1", "0")


def test_capacity_ellipsoid_above_a_million(tmp_path, capsys):
    """Lattice counting has no range limit: c_k of E(2, 3) at k = 2 * 10^6
    is the (k+1)-st smallest of {2m + 3n}, listed and sorted directly."""
    path = tmp_path / "e23.json"
    save_domain(Ellipsoid(2, 3), path)
    k = 2 * 10**6
    assert main(["capacity", "--domain", str(path), "--k", str(k)]) == 0
    doc = json.loads(capsys.readouterr().out)
    bound = math.isqrt(2 * 2 * 3 * (k + 1)) + 2
    values = sorted(2 * m + 3 * n for n in range(bound // 3 + 1) for m in range((bound - 3 * n) // 2 + 1))
    assert len(values) > k
    assert doc == {"k": k, "value": f"{values[k]}/1", "upper": f"{values[k]}/1", "exact": True}


def test_certificate_negative_k_cap(capsys):
    assert main(["certificate", "--grid", "4,16", "--k-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: capacity index must be >= 0\n"


def test_python_m_echcap(ball_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "echcap", "capacity", "--domain", ball_file, "--k", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"k": 3, "value": "2/1", "upper": "2/1", "exact": True}
    bad = subprocess.run(
        [sys.executable, "-m", "echcap", "capacity", "--domain", ball_file, "--k", "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2
    assert bad.stderr == "error: capacity index must be >= 0\n"


@pytest.mark.parametrize("domain", ["quasiflat_file", "profile_file"])
def test_capacity_and_weyl_through_weights(domain, request, capsys):
    path = request.getfixturevalue(domain)
    assert main(["capacity", "--domain", path, "--kmax", "5"]) == 0
    rows = _csv_rows(capsys)[1:]
    values = [Fraction(int(r[1]), int(r[2])) for r in rows]
    if domain == "profile_file":
        # two unit balls: c_k = max over k1 + k2 = k of d(k1) + d(k2)
        assert values == [0, 1, 2, 2, 3, 3]
    else:
        # 16 balls of size 1/2 and 4096 of size 1/16: the big ones first
        assert values == [Fraction(k, 2) for k in range(6)]
    assert all(r[3] == "1" for r in rows)
    assert main(["capacity", "--domain", path, "--k", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert Fraction(doc["value"]) == values[5] and doc["exact"] is True
    assert main(["weyl", "--domain", path, "--k", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # areas a^2 / 2: two unit balls, or 16 x 1/8 + 4096 x 1/512
    volume = 1 if domain == "profile_file" else 10
    assert Fraction(doc["ratio"]) == values[5] ** 2 / (4 * 5 * volume)


def test_weyl_needs_an_exact_capacity(weights_file, capsys, monkeypatch):
    # above the sweep's reach the exact engine answers c_200017 ...
    args = ["weyl", "--domain", weights_file, "--k", "200017"]
    assert main(args) == 0
    ratio = Fraction(json.loads(capsys.readouterr().out)["ratio"])
    w = load_domain(weights_file)
    c = multiset_capacity_oracle(w, 200017, oracle_limit=400034).best
    assert ratio == c * c / (4 * 200017 * w.total_area())
    # ... unless its window DP is over the cell limit, which leaves an interval
    monkeypatch.setattr(capacities, "_CELL_LIMIT", 0)
    assert main(args) == 2
    assert capsys.readouterr().err == "error: c_200017 is only known as an interval\n"


VERB_OPTIONS = {
    "capacity": {"--domain", "--k", "--kmax", "--out"},
    "weights": {"--domain", "--out"},
    "realize": {"--domain", "--out"},
    "build-flat": {"--params", "--threshold", "--out"},
    "chart": {"--points", "--x", "--mode", "--precision", "--out"},
    "distance": {"--domain", "--domain2", "--kmax", "--out"},
    "certificate": {"--grid", "--k-cap", "--no-inclusion", "--out"},
    "lemma-cap": {"--params", "--out"},
    "ched": {"--epsilon", "--volume", "--kmax", "--out"},
    "notsame": {"--epsilon", "--kmax", "--out"},
    "weyl": {"--domain", "--k", "--out"},
}


def test_verb_options():
    """Each verb takes exactly the options it reads."""
    (sub,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    found = {
        verb: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for verb, p in sub.choices.items()
    }
    assert found == VERB_OPTIONS


def test_capacity_needs_k_or_kmax(ball_file, capsys):
    assert main(["capacity", "--domain", ball_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_weights_and_realize(ellipsoid_file, capsys):
    assert main(["weights", "--domain", ellipsoid_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [["1/1", "2"]]
    assert main(["realize", "--domain", ellipsoid_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "profile"


def test_realize_empty_multiset(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"type": "weights", "entries": []}')
    assert main(["realize", "--domain", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot realize an empty weight multiset\n"


def test_build_flat(capsys):
    assert main(["build-flat", "--params", "64,4096"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["admissible"] is True
    assert doc["exact_representable"] is True
    assert doc["weights"]["entries"][0] == ["1/8", "4096"]
    # sqrt(2) is irrational: reported, not refused
    for params in ("2", "1/2"):
        assert main(["build-flat", "--params", params]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact_representable"] is False
        assert doc["weights"] is None and doc["profile"] is None


def test_chart_inline(capsys):
    assert main(["chart", "--x", "0"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "y_stage", "b_stage", "snap_error"]
    assert rows[1][2] == "400/1;3268864/1"


def test_chart_out_file(tmp_path, capsys):
    assert main(["chart", "--x", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(io.StringIO((tmp_path / "chart.csv").read_text())))
    assert rows[0] == ["x", "y_stage", "b_stage", "snap_error"]
    assert rows[1][2] == "400/1;3268864/1"


def test_chart_points_file(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("# x\n0\n1\n")
    assert main(["chart", "--points", str(points)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3


@pytest.mark.parametrize("entry", ["x", "points"])
def test_chart_reads_one_number_grammar(entry, tmp_path, capsys):
    """A points file and --x both read "p/q": decimals and exponents are a
    one-line error from each, and 1/2,1/10 gives one CSV from both."""

    def chart(point):
        if entry == "x":
            return main(["chart", "--x", point])
        path = tmp_path / "pts.csv"
        path.write_text(f"# x\n{point}\n")
        return main(["chart", "--points", str(path)])

    assert chart("0.5,1e-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert chart("1/2,1/10") == 0
    out = capsys.readouterr().out
    assert main(["chart", "--x", "1/2,1/10"]) == 0
    assert capsys.readouterr().out == out
    assert list(csv.reader(io.StringIO(out)))[1][0] == "1/2;1/10"


def test_chart_needs_points_or_x(capsys):
    assert main(["chart"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chart needs --points or --x\n"


@pytest.mark.parametrize("precision", ["0", "-5"])
def test_chart_precision_below_one(precision, tmp_path, capsys):
    """Refused before any output: at 0 bits B read 2048;8388608 where the
    default precision gives 403.43;3269017.37."""
    argv = ["chart", "--x", "0", "--mode", "approx", f"--precision={precision}"]
    assert main(argv) == 2
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: precision must be >= 1 bit, got {precision}\n" * 2


@pytest.mark.parametrize("precision", ["1", "4", "16"])
def test_chart_low_precision_snaps_as_the_default(precision, capsys):
    """The snap runs at least 64 bits past the integer part of y, so a low
    precision gives the default's parameters and a nonzero snap error."""
    assert main(["chart", "--x", "0", f"--precision={precision}"]) == 0
    rows = _csv_rows(capsys)
    assert rows[1] == ["0", "6;15", "400/1;3268864/1", "0.00853545;4.69181e-05"]
    assert main(["chart", "--x", "0"]) == 0
    assert _csv_rows(capsys) == rows


def test_distance_verb(ball_file, ellipsoid_file, capsys):
    rc = main(
        ["distance", "--domain", ball_file, "--domain2", ellipsoid_file, "--kmax", "50"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistent"] is True
    assert doc["lower"] <= doc["upper"]


def test_distance_of_quasiflat_files(tmp_path, capsys):
    """Two quasi-flat files get the inclusion bound of their realized
    profiles next to the lemma bound, and the capacity bound of their
    weights."""
    u, v = ParameterVector([4, 16]), ParameterVector([16, 256])
    save_domain(u, tmp_path / "u.json")
    save_domain(v, tmp_path / "v.json")
    args = ["distance", "--domain", str(tmp_path / "u.json"), "--domain2", str(tmp_path / "v.json")]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    want = distance_report(u, v, 500)
    assert doc == {
        "lower_capacity": want.lower_capacity,
        "capacity_witness_k": want.capacity_witness_k,
        "lower_volume": want.lower_volume,
        "upper_inclusion": {
            "distance": want.upper_inclusion.distance,
            "scale_into_v": format_rational(want.upper_inclusion.scale_into_v),
            "scale_into_u": format_rational(want.upper_inclusion.scale_into_u),
        },
        "upper_lemma": want.upper_lemma,
        "lower": want.lower,
        "upper": want.upper,
        "consistent": want.consistent,
    }
    assert doc["upper"] == doc["upper_inclusion"]["distance"] < doc["upper_lemma"]


@pytest.mark.parametrize("other", ["ball_file", "ellipsoid_file", "profile_file", "weights_file"])
def test_distance_of_quasiflat_and_other_domain(other, quasiflat_file, request, capsys):
    """A quasi-flat file against any other domain is compared as its
    realized profile: capacity and volume bounds always, the inclusion
    bound against a moment region, and no lemma bound, which needs two
    parameter vectors."""
    other_file = request.getfixturevalue(other)
    for sides in ([quasiflat_file, other_file], [other_file, quasiflat_file]):
        assert main(["distance", "--domain", sides[0], "--domain2", sides[1], "--kmax", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        u, v = (load_domain(path) for path in sides)
        u, v = (build_domain(d) if isinstance(d, ParameterVector) else d for d in (u, v))
        want = distance_report(u, v, 100)
        assert doc["upper_lemma"] is None and doc["consistent"] is True
        assert (doc["lower_capacity"], doc["lower_volume"]) == (want.lower_capacity, want.lower_volume)
        assert (doc["upper_inclusion"] is None) == (other == "weights_file")
        assert doc["lower_volume"] > 0  # the quasi-flat has volume 10, the others at most 2


def reference_cells(row) -> list:
    """A CSV row as the per-cell rule writes it: a float to 12 significant
    digits, None as an empty cell, anything else as its string."""
    return [
        format(c, ".12g") if isinstance(c, float) else "" if c is None else str(c) for c in row
    ]


def test_certificate_out_with_skipped_pairs(tmp_path, capsys):
    """B = 5 has no rational square root, so its pairs are skipped: null in
    the JSON, empty cells in the CSV; every CSV cell is the JSON's value
    by the per-cell rule."""
    assert main(["certificate", "--grid", "4,5", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    rows = list(csv.reader(io.StringIO((tmp_path / "certificate.csv").read_text())))
    assert len(rows) == 1 + len(doc["pairs"]) == 5
    for pair, row in zip(doc["pairs"], rows[1:]):
        assert pair["skipped"] == (pair["v"] != ["4/1", "16/1"] or pair["w"] != ["4/1", "16/1"])
        if pair["skipped"]:
            assert pair["lower"] is pair["upper"] is pair["gap"] is None
            assert (row[2], row[3], row[5]) == ("", "", "")
        else:
            assert row[2] != ""
        columns = ("pair", "metric", "lower", "upper", "witness_k", "gap")
        assert row == reference_cells(pair[c] for c in columns)


@pytest.mark.parametrize(
    "verb, args, runner, config",
    [
        ("lemma-cap", [], run_lemma_cap_sweep, ExperimentConfig()),
        (
            "notsame",
            ["--epsilon", "1/4", "--kmax", "20"],
            run_notsame,
            ExperimentConfig(epsilon=Fraction(1, 4), k_max=20),
        ),
    ],
)
def test_experiment_csv_follows_the_per_cell_rule(verb, args, runner, config, tmp_path, capsys):
    """The CSV of each experiment holds the driver's rows, formatted only
    in the columns the verb names as floats, which are every float cell."""
    assert main([verb, *args, "--out", str(tmp_path)]) == 0
    report = runner(config)
    rows = list(csv.reader(io.StringIO((tmp_path / f"{report.command}.csv").read_text())))
    assert rows == [list(report.columns)] + [reference_cells(row) for row in report.rows]


# the second file a verb writes with --out, after the one in its row below
SECOND_REPORT = {
    "certificate": "certificate.csv",
    "lemma-cap": "lemma_cap.csv",
    "ched": "ched.csv",
    "notsame": "notsame.csv",
}


@pytest.mark.parametrize(
    "verb, args, report",
    [
        ("capacity", ["--domain", "BALL", "--k", "7"], "capacity.json"),
        ("capacity", ["--domain", "BALL", "--kmax", "7"], "capacity.csv"),
        ("distance", ["--domain", "BALL", "--domain2", "ELLIPSOID", "--kmax", "50"], "distance.json"),
        ("certificate", ["--grid", "4,16"], "certificate.json"),
        ("weights", ["--domain", "ELLIPSOID"], "weights.json"),
        ("realize", ["--domain", "ELLIPSOID"], "profile.json"),
        ("build-flat", ["--params", "4,16"], "quasiflat.json"),
        ("chart", ["--x", "0"], "chart.csv"),
        ("lemma-cap", [], "lemma_cap_report.json"),
        ("ched", ["--kmax", "10"], "ched_report.json"),
        ("notsame", ["--epsilon", "1/4", "--kmax", "20"], "notsame_report.json"),
        ("weyl", ["--domain", "BALL", "--k", "100"], "weyl.json"),
    ],
)
def test_timing_sidecar(verb, args, report, ball_file, ellipsoid_file, tmp_path, capsys):
    """--out adds <verb>_timing.txt (with _ for -) next to the reports.  The
    first report holds what standard output gets without --out, except for
    the experiment drivers, which print their verdicts either way."""
    files = {"BALL": ball_file, "ELLIPSOID": ellipsoid_file}
    argv = [verb] + [files.get(a, a) for a in args]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    out.mkdir()
    assert main(argv + ["--out", str(out)]) == 0
    timing = f"{verb.replace('-', '_')}_timing.txt"
    reports = {report, SECOND_REPORT.get(verb, report)}
    assert {p.name for p in out.iterdir()} == reports | {timing}
    assert re.fullmatch(r"wall_clock_seconds \d+\.\d{3}\n", (out / timing).read_text())
    if verb in ("lemma-cap", "ched", "notsame"):
        assert capsys.readouterr().out == printed
    else:
        assert (out / report).read_bytes() == printed.encode()


def test_weyl_verb(ball_file, capsys):
    assert main(["weyl", "--domain", ball_file, "--k", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ratio"] == "169/200"


def test_experiment_verbs_exit_zero(capsys):
    assert main(["notsame", "--epsilon", "1/4", "--kmax", "200"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert main(["ched", "--kmax", "30"]) == 0


@pytest.mark.parametrize("verb", ["ched", "notsame"])
def test_experiment_negative_kmax(verb, capsys):
    assert main([verb, "--kmax", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: capacity index must be >= 0\n"


@pytest.mark.parametrize("verb", ["ched", "notsame"])
@pytest.mark.parametrize("epsilon", ["0", "-1/4"])
def test_experiment_epsilon_not_positive(verb, epsilon, capsys):
    assert main([verb, f"--epsilon={epsilon}", "--kmax", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epsilon must be positive\n"


@pytest.mark.parametrize("volume", ["0", "-3"])
def test_ched_volume_not_positive(volume, capsys):
    assert main(["ched", f"--volume={volume}", "--kmax", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: volume must be positive\n"
    with pytest.raises(ValueError, match="^volume must be positive$"):
        ched_weight_model(Fraction(1, 4), Fraction(volume))


def test_ched_small_volume_is_the_ball(tmp_path, capsys):
    """For V <= 1/2 the ball alone has area >= V, so no eps copies are
    added; just above 1/2 one is."""
    ball = WeightMultiset([(1, 1)])
    for volume in (Fraction(1, 4), Fraction(1, 2)):
        assert ched_weight_model(Fraction(1, 4), volume) == ball
    assert ched_weight_model(Fraction(1, 4), Fraction(1, 2) + Fraction(1, 64)) == WeightMultiset(
        [(1, 1), (Fraction(1, 4), 1)]
    )
    assert main(["ched", "--volume", "1/4", "--kmax", "10", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "ched.csv").read_text())))
    assert all(row[1:3] == row[3:5] for row in rows[1:])  # c_k0(X) = c_k0(B(1))


def test_notsame_kmax_zero(capsys):
    """--kmax 0 samples no k, so there is nothing to pass."""
    assert main(["notsame", "--kmax", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: notsame needs --kmax >= 1\n"


def test_run_notsame_kmax_zero():
    """The library refuses the empty range too, not only the CLI."""
    with pytest.raises(ValueError, match=r"^notsame needs k_max >= 1$"):
        run_notsame(ExperimentConfig(k_max=0))


def test_ched_kmax_zero(tmp_path, capsys):
    """--kmax 0 is a range of one k0, not the default range."""
    assert main(["ched", "--kmax", "0", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "ched.csv").read_text())))
    assert rows[1:] == [["0", "0", "1", "0", "1", "0"]]
    doc = json.loads((tmp_path / "ched_report.json").read_text())
    assert doc["inputs"]["k0_max"] == 0


def test_missing_output_directory(ball_file, capsys):
    rc = main(["capacity", "--domain", ball_file, "--k", "1", "--out", "/nonexistent-dir"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_output_directory_before_computing(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["notsame", "--epsilon", "1/4", "--kmax", "20", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict line
    assert captured.err == f"error: output directory does not exist: {missing}\n"


def test_bad_domain_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["capacity", "--domain", str(bad), "--k", "1"]) == 2


@pytest.mark.parametrize(
    "args, text",
    [
        (["chart", "--x", "1/0"], None),
        (["chart", "--points", "{file}"], "0,1/0\n"),
        (["build-flat", "--params", "1/0"], None),
        (["ched", "--epsilon", "1/0"], None),
        (["capacity", "--domain", "{file}", "--k", "1"], '{"type": "ball", "a": "1/0"}'),
        (["capacity", "--domain", "{file}", "--k", "1"], "[]"),
        (["capacity", "--domain", "{file}", "--k", "1"], '{"type": "profile", "vertices": 5}'),
        (["weyl", "--domain", "{file}", "--k", "5"], '{"type": "weights", "entries": []}'),
    ],
    ids=[
        "chart-x", "chart-points", "build-flat", "ched-epsilon",
        "ball-zero-denominator", "not-an-object", "vertices-not-a-list", "weyl-zero-volume",
    ],
)
def test_bad_input_is_a_one_line_error(args, text, tmp_path, capsys):
    """Exit 2, one ``error:`` line and no output, not a traceback."""
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([a.format(file=path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_report_bytes_deterministic(tmp_path):
    runs = {"notsame": ["--epsilon", "1/4", "--kmax", "100"], "ched": ["--kmax", "40"]}
    for verb, args in runs.items():
        outs = [tmp_path / verb / "a", tmp_path / verb / "b"]
        for out in outs:
            out.mkdir(parents=True)
            assert main([verb, *args, "--out", str(out)]) == 0
        for name in (f"{verb}_report.json", f"{verb}.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # wall clock lives in the sidecar, outside the deterministic contract
        assert all((out / f"{verb}_timing.txt").exists() for out in outs)


def test_ched_report_files(tmp_path, capsys):
    """The report and the CSV hold the driver's verdicts and rows."""
    assert main(["ched", "--kmax", "20", "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"ched_report.json", "ched.csv", "ched_timing.txt"}
    report = run_ched_warmup(ExperimentConfig(k0_max=20))
    doc = json.loads((tmp_path / "ched_report.json").read_text())
    assert doc["passed"] is True and doc["command"] == "ched"
    assert [v["name"] for v in doc["verdicts"]] == [name for name, _, _ in report.verdicts]
    with open(tmp_path / "ched.csv", newline="") as fh:
        assert fh.read().count("\r\n") == 22
    rows = list(csv.reader(io.StringIO((tmp_path / "ched.csv").read_text())))
    cells = [[format(c, ".12g") if isinstance(c, float) else str(c) for c in row] for row in report.rows]
    assert rows == [list(report.columns)] + cells


def test_lemma_cap_exact_below_reach():
    """Every row is exact: from the sweep below its reach, where the exact
    engine gives the same value, and from the exact engine above it."""
    cfg = ExperimentConfig()
    report = run_lemma_cap_sweep(cfg)
    assert report.passed
    reach = capacities.DEFAULT_ORACLE_LIMIT // 2
    below = [row for row in report.rows if row[0] <= reach]
    assert len(below) == 108 and len(report.rows) > len(below)
    assert all((exact, gap) == (1, 0.0) for _, _, _, _, exact, gap in report.rows)
    weights = build_weights(ParameterVector(cfg.params))
    for k, num, den, _, _, _ in below:
        assert multiset_capacity_fast(weights, k).value == Fraction(num, den)
