import csv
import io
import json

from fractions import Fraction

import pytest

from echcap.capacities import multiset_capacity_fast
from echcap.cli import build_parser, main
from echcap.domainfile import save_domain
from echcap.experiments import (
    ExperimentConfig,
    emit_report,
    run_ched_warmup,
    run_lemma_cap_sweep,
    run_notsame,
)
from echcap.geometry import Ellipsoid, MomentProfile
from echcap.quasiflat import ParameterVector, build_weights
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


@pytest.mark.parametrize("domain", ["ball_file", "ellipsoid_file", "weights_file"])
@pytest.mark.parametrize("flag", ["--kmax", "--k"])
def test_capacity_negative_index(domain, flag, request, capsys):
    path = request.getfixturevalue(domain)
    assert main(["capacity", "--domain", path, flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: capacity index must be >= 0\n"


def test_capacity_sweep_above_oracle_limit(weights_file, capsys):
    """Below the sweep's reach (oracle_limit // 2 = 2) every row is exact;
    above it rows are fast-solver intervals; each row is what --k gives."""
    args = ["capacity", "--domain", weights_file, "--oracle-limit", "4"]
    assert main(args + ["--kmax", "6"]) == 0
    rows = _csv_rows(capsys)[1:]
    assert [int(r[0]) for r in rows] == list(range(7))
    for k, num, den, exact, gap in rows:
        if int(k) <= 2:
            assert (exact, gap) == ("1", "0")
        assert main(args + ["--k", k]) == 0
        doc = json.loads(capsys.readouterr().out)
        lo, hi = Fraction(doc["value"]), Fraction(doc["upper"])
        assert (int(num), int(den)) == (lo.numerator, lo.denominator)
        assert exact == str(int(doc["exact"]))
        assert float(gap) == pytest.approx(float((hi - lo) / lo) if lo else 0.0)


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


def test_weyl_needs_an_exact_capacity(weights_file, capsys):
    # above the sweep's reach the fast solver leaves c_40 an open interval
    rc = main(["weyl", "--domain", weights_file, "--k", "40", "--oracle-limit", "4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: c_40 is only known as an interval")


VERB_OPTIONS = {
    "capacity": {"--domain", "--k", "--kmax", "--out", "--oracle-limit"},
    "weights": {"--domain", "--out"},
    "realize": {"--domain", "--out"},
    "build-flat": {"--params", "--threshold", "--out"},
    "chart": {"--points", "--x", "--mode", "--precision", "--out"},
    "distance": {"--domain", "--domain2", "--kmax", "--out", "--oracle-limit"},
    "certificate": {"--grid", "--k-cap", "--no-inclusion", "--out", "--oracle-limit"},
    "lemma-cap": {"--params", "--out", "--oracle-limit"},
    "ched": {"--epsilon", "--volume", "--kmax", "--out", "--oracle-limit"},
    "notsame": {"--epsilon", "--kmax", "--out", "--oracle-limit"},
    "weyl": {"--domain", "--k", "--out", "--oracle-limit"},
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


def test_build_flat(capsys):
    assert main(["build-flat", "--params", "64,4096"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["admissible"] is True
    assert doc["weights"]["entries"][0] == ["1/8", "4096"]


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


def test_distance_verb(ball_file, ellipsoid_file, capsys):
    rc = main(
        ["distance", "--domain", ball_file, "--domain2", ellipsoid_file, "--kmax", "50"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistent"] is True
    assert doc["lower"] <= doc["upper"]


def test_weyl_verb(ball_file, capsys):
    assert main(["weyl", "--domain", ball_file, "--k", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ratio"] == "169/200"


def test_experiment_verbs_exit_zero(capsys):
    assert main(["notsame", "--epsilon", "1/4", "--kmax", "200"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert main(["ched", "--kmax", "30"]) == 0


def test_missing_output_directory(ball_file, capsys):
    rc = main(["capacity", "--domain", ball_file, "--k", "1", "--out", "/nonexistent-dir"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_domain_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["capacity", "--domain", str(bad), "--k", "1"]) == 2


def test_report_bytes_deterministic(tmp_path):
    cfg = ExperimentConfig(epsilon="1/4", k_max=100)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    emit_report(run_notsame(cfg), out_a)
    emit_report(run_notsame(cfg), out_b)
    for name in ("notsame_report.json", "notsame.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # wall clock lives in the sidecar, outside the deterministic contract
    assert (out_a / "notsame_timing.txt").exists()


def test_ched_report_files(tmp_path):
    cfg = ExperimentConfig(k0_max=20)
    out = tmp_path / "r"
    out.mkdir()
    report = run_ched_warmup(cfg)
    written = emit_report(report, out)
    assert report.passed
    assert {p.name for p in written} == {"ched_report.json", "ched.csv"}
    doc = json.loads((out / "ched_report.json").read_text())
    assert doc["passed"] is True


def test_lemma_cap_exact_below_reach():
    """Rows the sweep reaches are exact, and inside the fast solver's
    interval; rows above it are the fast solver's."""
    cfg = ExperimentConfig()
    report = run_lemma_cap_sweep(cfg)
    assert report.passed
    reach = cfg.oracle_limit // 2
    below = [row for row in report.rows if row[0] <= reach]
    assert len(below) == 108 and len(report.rows) > len(below)
    for k, num, den, _, exact, gap in below:
        assert (exact, gap) == (1, "0")
        fast = multiset_capacity_fast(build_weights(ParameterVector(cfg.params)), k)
        assert fast.best <= Fraction(num, den) <= fast.upper
