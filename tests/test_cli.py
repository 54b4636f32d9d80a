"""Tests for the command-line interface and its file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rigidflock
from rigidflock import engine, kernels
from rigidflock.cli import main
from rigidflock.scenario import bundled_scenario_path


def flock_json(tmp_path, **changes):
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        data = json.load(fh)
    data.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
               "--out", str(out), "--duration", "0.2"])
    assert rc == 0
    assert (out / "trajectory.csv").is_file()
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    stdout = capsys.readouterr().out
    assert "pentagon_flock" in stdout

    rows = read_csv(out / "trajectory.csv")
    assert rows[0][0] == "t_s"
    assert "x_m_1" in rows[0] and "vfhat_y_5" in rows[0] and "v0_x_mps" in rows[0]
    assert len(rows) == 1 + 21  # header + (200 steps / sample_every 10) + 1

    mrows = read_csv(out / "metrics.csv")
    assert "e_1_2" in mrows[0] and "shape_dist_m" in mrows[0]
    assert len(mrows) == len(rows)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "pentagon_flock"
    assert summary["mode"] == "flock"
    assert "final_max_edge_error" in summary
    assert summary["gains"]["k_a"] == 6.0


def test_simulate_intercept_outputs(tmp_path, monkeypatch):
    hull_calls = []
    hull = engine.hull_containment
    monkeypatch.setattr(engine, "hull_containment",
                        lambda log: hull_calls.append(1) or hull(log))
    out = tmp_path / "out"
    rc = main(["simulate", str(bundled_scenario_path("pentagon_intercept")),
               "--out", str(out), "--duration", "0.1"])
    assert rc == 0
    rows = read_csv(out / "trajectory.csv")
    assert "vthat_x_6" in rows[0] and "pt_x_m" in rows[0]
    mrows = read_csv(out / "metrics.csv")
    assert "e_t_norm_m" in mrows[0] and "hull_contains" in mrows[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["leader"] == 6
    assert "final_e_t_norm" in summary
    # The hull series is computed once per run; the CSV and summary share it.
    assert len(hull_calls) == 1
    assert mrows[-1][mrows[0].index("hull_contains")] == str(
        int(summary["hull_contains_final"]))


def test_simulate_zero_duration(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
               "--out", str(out), "--duration", "0"])
    assert rc == 0
    assert len(read_csv(out / "trajectory.csv")) == 2  # header + initial row


def test_simulate_determinism_byte_identical(tmp_path):
    args = ["simulate", str(bundled_scenario_path("pentagon_flock")),
            "--duration", "1.0"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_seed_changes_trajectory(tmp_path):
    args = ["simulate", str(bundled_scenario_path("pentagon_flock")),
            "--duration", "0.1"]
    blobs = []
    for seed in ("5", "6"):
        out = tmp_path / f"s{seed}"
        assert main(args + ["--out", str(out), "--seed", seed]) == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] != blobs[1]


def test_simulate_kernel_flag(tmp_path, capsys):
    for kernel in ("jit", "numpy"):
        out = tmp_path / kernel
        rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
                   "--out", str(out), "--duration", "0.05",
                   "--kernel", kernel])
        err = capsys.readouterr().err
        if kernel == "jit" and not kernels.HAS_NUMBA:
            # A missing backend is an input error, not a traceback.
            assert rc == 1
            assert "error:" in err and "numba" in err
            assert not (out / "summary.json").exists()
            continue
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kernel"] == ("numba" if kernel == "jit" else "numpy")


def test_simulate_invalid_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_file_exits_1(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check-rigidity"])
def test_non_utf8_file_exits_1_without_traceback(tmp_path, command):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    # A child interpreter, so a traceback would reach stderr as text.
    src = str(Path(rigidflock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "rigidflock.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


def test_simulate_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
               "--out", str(blocker / "sub"), "--duration", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_divergence_exits_3(tmp_path, capsys):
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        data = json.load(fh)
    data["gains"]["k_a"] = 1e12
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["simulate", str(path), "--out", str(tmp_path / "o"),
               "--duration", "1.0"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_check_rigidity_pentagon(tmp_path, capsys):
    rc = main(["check-rigidity", str(bundled_scenario_path("pentagon_flock"))])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 7
    assert report["infinitesimally_rigid"] is True
    assert report["minimally_rigid"] is True


def test_check_rigidity_square_no_diagonal(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "n": 4,
        "edges": [[1, 2], [2, 3], [3, 4], [1, 4]],
        "positions_m": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }), encoding="utf-8")
    rc = main(["check-rigidity", str(path)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 4
    assert report["infinitesimally_rigid"] is False


def test_check_rigidity_collinear(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [[1, 2], [1, 3], [2, 3]],
        "positions_m": [[0, 0], [1, 0], [2, 0]],
    }), encoding="utf-8")
    rc = main(["check-rigidity", str(path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["infinitesimally_rigid"] is False


def test_check_rigidity_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    rc = main(["check-rigidity", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    path.write_text(json.dumps({"positions_m": [[0, 0]]}), encoding="utf-8")
    assert main(["check-rigidity", str(path)]) == 1


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
