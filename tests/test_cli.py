import csv
import io
import json

import pytest

from echcap.cli import main
from echcap.domainfile import save_domain
from echcap.experiments import (
    ExperimentConfig,
    emit_report,
    run_ched_warmup,
    run_notsame,
)
from echcap.geometry import Ellipsoid


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


def test_capacity_single_k(ball_file, capsys):
    assert main(["capacity", "--domain", ball_file, "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"k": 3, "value": "2/1", "upper": "2/1", "exact": True}


def test_capacity_sweep_csv(ellipsoid_file, capsys):
    assert main(["capacity", "--domain", ellipsoid_file, "--kmax", "4"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["k", "c_k_num", "c_k_den", "exact", "gap"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "2", "2", "3"]


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
