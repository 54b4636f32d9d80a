"""Tests for the command-line interface and its file outputs."""

import csv
import dataclasses
import errno
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidflock
from rigidflock import cli, engine, kernels
from rigidflock.cli import main
from rigidflock.scenario import bundled_scenario_path, load_scenario


def scenario_json(tmp_path, name="pentagon_flock", **changes):
    with open(bundled_scenario_path(name)) as fh:
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
    for kernel in ("jit", "numpy", "auto"):
        out = tmp_path / kernel
        rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
                   "--out", str(out), "--duration", "0.05",
                   "--kernel", kernel])
        err = capsys.readouterr().err
        if kernel == "jit" and not kernels.HAS_NUMBA:
            # A missing backend is an input error, not a traceback.
            assert rc == 1
            assert "error:" in err and "numba" in err
            assert os.listdir(out) == []  # OUTDIR exists, with no output
            continue
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        if kernel == "auto":  # uncompiled, a pentagon runs the loop form
            assert summary["kernel"] == ("numba" if kernels.USE_NUMBA else "numpy")
            assert summary["form"] == "loops"
        else:
            assert summary["kernel"] == ("numba" if kernel == "jit" else "numpy")
            assert summary["form"] == ("loops" if kernel == "jit" else "law")


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


def run_child(argv, code=None):
    """The CLI in a child interpreter, so a traceback reaches stderr as text.

    ``code``, when given, runs instead of ``-m rigidflock.cli`` with the
    same arguments.
    """
    src = str(Path(rigidflock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    entry = ["-c", code] if code else ["-m", "rigidflock.cli"]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env)


def assert_one_error_line(out):
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


@pytest.mark.parametrize("command", ["simulate", "check-rigidity"])
def test_non_utf8_file_exits_1_without_traceback(tmp_path, command):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    assert_one_error_line(run_child(argv))


@pytest.mark.parametrize("command", ["simulate", "check-rigidity"])
def test_non_pair_edge_exits_1_without_traceback(tmp_path, command):
    path = scenario_json(tmp_path, edges=[[1, 2], [1]])
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    out = run_child(argv)
    assert_one_error_line(out)
    assert out.stderr.startswith("error: edges:")


@pytest.mark.parametrize("command", ["simulate", "check-rigidity"])
def test_non_integer_node_id_exits_1_without_traceback(tmp_path, command):
    # [1.5, 2] was once truncated to the edge (1, 2) and loaded.
    path = scenario_json(tmp_path, edges=[[1.5, 2], [1, 3], [1, 4], [1, 5],
                                          [2, 3], [3, 4], [4, 5]])
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    out = run_child(argv)
    assert_one_error_line(out)
    assert out.stderr.startswith("error: edges:")


@pytest.mark.parametrize("name, key, field, value", [
    pytest.param("pentagon_flock", "flock_velocity", "radius_m", "0.3",
                 id="flock_velocity-radius_m-numeric-str"),
    pytest.param("pentagon_intercept", "target", "omega_radps", True,
                 id="target-omega_radps-bool"),
])
def test_non_number_path_field_exits_1_without_traceback(tmp_path, name, key,
                                                         field, value):
    with open(bundled_scenario_path(name)) as fh:
        path_spec = json.load(fh)[key]
    path = scenario_json(tmp_path, name, **{key: dict(path_spec, **{field: value})})
    out = run_child(["simulate", str(path), "--out", str(tmp_path / "o")])
    assert_one_error_line(out)
    assert out.stderr.startswith(f"error: {key}: {field} must be a number")


def test_impossible_horizon_exits_1_without_traceback(tmp_path):
    # 1e15 steps: the first array of the rollout (petabytes) cannot be
    # allocated, so this fails at once without touching real memory.
    out = tmp_path / "o"
    assert_one_error_line(run_child([
        "simulate", str(bundled_scenario_path("pentagon_flock")),
        "--out", str(out), "--duration", "1e12"]))
    assert not (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# CSV writers against a per-value reference
# ---------------------------------------------------------------------------

def reference_csvs(log, edges):
    """Both CSVs as bytes, one ``format(x, ".17g")`` per value via csv.writer."""
    def fmt(x):
        return format(float(x), ".17g")

    n = log.n
    flock = log.mode == "flock"
    per_agent = ([log.poses, log.commands, log.u, log.v_f_hat] if flock else
                 [log.poses, log.commands, log.u, log.v_t_hat, log.e_t_hat])
    shared = [log.v0] if flock else [log.target_pos, log.target_vel]
    header = ["t_s"]
    for i in range(1, n + 1):
        header += [f"x_m_{i}", f"y_m_{i}", f"theta_rad_{i}",
                   f"v_mps_{i}", f"omega_radps_{i}", f"ux_{i}", f"uy_{i}"]
        header += ([f"vfhat_x_{i}", f"vfhat_y_{i}"] if flock else
                   [f"vthat_x_{i}", f"vthat_y_{i}", f"ethat_x_{i}", f"ethat_y_{i}"])
    header += (["v0_x_mps", "v0_y_mps"] if flock else
               ["pt_x_m", "pt_y_m", "vt_x_mps", "vt_y_mps"])
    traj = io.StringIO(newline="")
    w = csv.writer(traj)
    w.writerow(header)
    for r in range(log.rows):
        row = [fmt(log.t[r])]
        for k in range(n):
            for a in per_agent:
                row += [fmt(v) for v in a[r, k]]
        for a in shared:
            row += [fmt(v) for v in a[r]]
        w.writerow(row)

    header = ["t_s"] + [f"e_{i}_{j}" for i, j in edges]
    header += [f"theta_err_{i}" for i in range(1, n + 1)]
    if flock:
        header += [f"vf_err_{i}" for i in range(1, n + 1)] + ["shape_dist_m"]
    else:
        header += [f"vt_err_{i}" for i in range(1, n + 1)]
        header += [f"et_err_{i}" for i in range(1, n + 1)]
        header += ["e_t_norm_m", "shape_dist_m", "hull_contains"]
    metrics = io.StringIO(newline="")
    w = csv.writer(metrics)
    w.writerow(header)
    for r in range(log.rows):
        row = [fmt(log.t[r])]
        row += [fmt(v) for v in log.edge_errors[r]]
        row += [fmt(v) for v in log.heading_errors[r]]
        if flock:
            row += [fmt(v) for v in log.est_errors[r]] + [fmt(log.shape_dist[r])]
        else:
            row += [fmt(v) for v in log.v_t_err[r]]
            row += [fmt(v) for v in log.e_t_err[r]]
            row += [fmt(log.e_t_norm[r]), fmt(log.shape_dist[r]),
                    str(int(log.hull_inside[r]))]
        w.writerow(row)
    return traj.getvalue().encode(), metrics.getvalue().encode()


def written_csvs(log, edges, tmp_path):
    cli.write_trajectory_csv(log, tmp_path / "trajectory.csv")
    cli.write_metrics_csv(log, edges, tmp_path / "metrics.csv")
    return ((tmp_path / "trajectory.csv").read_bytes(),
            (tmp_path / "metrics.csv").read_bytes())


def simulated(name, duration, kernel="numpy"):
    scn = load_scenario(bundled_scenario_path(name), duration=duration)
    return engine.run(scn.to_run_config(), force_kernel=kernel), scn.graph.edges


def width(csv_bytes):
    return csv_bytes.split(b"\r\n", 1)[0].count(b",") + 1


def block_rows(csv_bytes):
    return max(1, cli._BLOCK_VALUES // width(csv_bytes))


# 251 and 151 rows span several blocks of either table and end in a
# partial one; a --duration 0 run writes a single row.
@pytest.mark.parametrize("name, duration, rows", [
    ("pentagon_flock", 2.5, 251), ("pentagon_intercept", 1.5, 151),
    ("pentagon_flock", 0.0, 1), ("pentagon_intercept", 0.0, 1)])
def test_writers_match_per_value_reference(tmp_path, name, duration, rows):
    log, edges = simulated(name, duration)
    assert log.rows == rows
    expected = reference_csvs(log, edges)
    for blob in expected:
        assert rows % block_rows(blob) != 0
        assert rows == 1 or rows > block_rows(blob)
    assert written_csvs(log, edges, tmp_path) == expected


def test_writers_match_reference_when_a_row_exceeds_a_block(tmp_path):
    log, edges = simulated("pentagon_intercept", 0.02)
    # 250 copies of the six agents: each row of either table holds more
    # values than one block.
    copies = 250
    per_agent = ("poses", "commands", "u", "v_t_hat", "e_t_hat",
                 "heading_errors", "v_t_err", "e_t_err", "edge_errors")
    wide = dataclasses.replace(log, **{
        name: np.concatenate([getattr(log, name)] * copies, axis=1)
        for name in per_agent})
    wide_edges = list(edges) * copies
    expected = reference_csvs(wide, wide_edges)
    for blob in expected:
        assert width(blob) > cli._BLOCK_VALUES
    assert written_csvs(wide, wide_edges, tmp_path) == expected


@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_writers_match_reference_on_extreme_values(tmp_path, name):
    log, edges = simulated(name, 0.05)
    specials = [-0.0, 5e-324, 1e308, 1 / 3]
    log.t[:4] = specials
    log.poses[1, 0, :3] = specials[:3]
    log.commands[2, -1] = specials[2:]
    log.edge_errors[0, :4] = specials
    log.heading_errors[3, :4] = specials
    log.shape_dist[:4] = specials
    if log.mode == "intercept":
        log.hull_inside[1] = False
    traj, metrics = written_csvs(log, edges, tmp_path)
    assert (traj, metrics) == reference_csvs(log, edges)
    for text in (b"-0,", b"4.9406564584124654e-324,", b"1e+308,",
                 b"0.33333333333333331,"):
        assert text in traj and text in metrics


# ---------------------------------------------------------------------------
# Tables split between the CLI and a forked writer
# ---------------------------------------------------------------------------

def counting_forks(monkeypatch):
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


# 2 and 3 rows split after the first row; at 251 and 151 rows the split
# point rows // 2 falls inside a block of either table.
@pytest.mark.parametrize("name, duration, rows", [
    ("pentagon_flock", 0.01, 2), ("pentagon_intercept", 0.02, 3),
    ("pentagon_flock", 2.5, 251), ("pentagon_intercept", 1.5, 151)])
def test_split_writers_match_per_value_reference(tmp_path, monkeypatch, name,
                                                 duration, rows):
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    forks = counting_forks(monkeypatch)
    log, edges = simulated(name, duration, kernel=None)
    assert log.rows == rows
    expected = reference_csvs(log, edges)
    if rows > 3:
        for blob in expected:
            assert (rows // 2) % block_rows(blob) != 0
    assert written_csvs(log, edges, tmp_path) == expected
    assert len(forks) == 2


def reference_table(header, values):
    lines = [",".join(header)] + [",".join(format(x, ".17g") for x in row)
                                  for row in values]
    return "".join(line + "\r\n" for line in lines).encode()


SPLIT_ROWS_AT_WIDTH_8 = -(-cli._SPLIT_MIN_VALUES // 8)


@pytest.mark.parametrize("rows, width, split", [
    pytest.param(SPLIT_ROWS_AT_WIDTH_8 - 1, 8, False, id="below-min-values"),
    pytest.param(SPLIT_ROWS_AT_WIDTH_8, 8, True, id="at-min-values"),
    pytest.param(1, cli._SPLIT_MIN_VALUES, False, id="one-row"),
])
def test_tables_split_from_min_values(tmp_path, monkeypatch, rows, width, split):
    forks = counting_forks(monkeypatch)
    values = np.arange(rows * width, dtype=float).reshape(rows, width) / 7
    header = [f"c{j}" for j in range(width)]
    path = tmp_path / "table.csv"
    cli._write_table(path, header, rows, lambda r0, r1: values[r0:r1])
    assert len(forks) == split
    assert path.read_bytes() == reference_table(header, values)


def test_tables_are_written_in_process_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    log, edges = simulated("pentagon_intercept", 0.02)
    assert written_csvs(log, edges, tmp_path) == reference_csvs(log, edges)


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_failed_writer_process_raises_oserror(tmp_path, monkeypatch, failure):
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    parent, rows = os.getpid(), 10

    def block(r0, r1):
        if r0 >= rows // 2 and os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("writer failed")
        return np.zeros((r1 - r0, 2))

    path = tmp_path / "table.csv"
    with pytest.raises(OSError, match=r"rows 5\.\.10 failed"):
        cli._write_table(path, ["a", "b"], rows, block)
    assert os.listdir(tmp_path) == []  # no partial CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure, reason", [
    ("raises", f"rows 5..10 failed (exit status 1): OSError: [Errno {errno.ENOSPC}] "
               "No space left on device"),
    ("killed", f"rows 5..10 failed (exit status {-signal.SIGKILL})"),
], ids=["raises", "killed"])
def test_failed_writer_process_reports_why(tmp_path, monkeypatch, failure, reason):
    # The child's exception reaches the parent's OSError; a killed child
    # raised nothing, so only its status is reported.
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    parent = os.getpid()

    def block(r0, r1):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(errno.ENOSPC, "No space left on device")
        return np.zeros((r1 - r0, 2))

    with pytest.raises(OSError) as err:
        cli._write_table(tmp_path / "table.csv", ["a", "b"], 10, block)
    assert str(err.value).endswith(reason), str(err.value)


def test_failure_in_the_cli_process_reaps_the_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    parent = os.getpid()

    def block(r0, r1):
        if os.getpid() == parent:
            raise RuntimeError("block failed")
        return np.zeros((r1 - r0, 2))

    with pytest.raises(RuntimeError, match="block failed"):
        cli._write_table(tmp_path / "table.csv", ["a", "b"], 10, block)
    assert os.listdir(tmp_path) == []  # no partial CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The CLI with every table split and a forked writer that fails.
FAILING_WRITER = """
import os, sys
from rigidflock import cli
cli._SPLIT_MIN_VALUES = 0
parent, write_rows = os.getpid(), cli._write_rows

def failing(out, *args):
    if os.getpid() != parent:
        raise OSError(28, "No space left on device")
    write_rows(out, *args)

cli._write_rows = failing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_writer_process_exits_1_without_traceback(tmp_path):
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "0.05"], code=FAILING_WRITER)
    assert_one_error_line(res)
    assert "trajectory.csv" in res.stderr
    assert os.listdir(out) == []  # no partial CSV


def no_space_writer(chunk_rows):
    """The CLI with rollout chunks of ``chunk_rows`` rows, every table
    split, and a forked writer that finds the disk full."""
    return f"""
import errno, os, sys
from rigidflock import cli, engine
engine._CHUNK_ROWS = {chunk_rows}
cli._SPLIT_MIN_VALUES = 0
parent, write_rows = os.getpid(), cli._write_rows

def failing(out, *args):
    if os.getpid() != parent:
        raise OSError(errno.ENOSPC, "No space left on device")
    write_rows(out, *args)

cli._write_rows = failing
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("chunk_rows", [2, 512], ids=["streamed", "split"])
def test_failed_writer_error_line_says_why(tmp_path, chunk_rows):
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "0.05"],
                    code=no_space_writer(chunk_rows))
    assert_one_error_line(res)
    assert "trajectory.csv: the process writing rows" in res.stderr
    assert f"OSError: [Errno {errno.ENOSPC}] No space left on device" in res.stderr
    assert os.listdir(out) == []


def test_failed_stream_writer_exits_1_without_traceback(tmp_path):
    # Two-row chunks: the trajectory is streamed by a writer forked during
    # the rollout, and that writer fails.
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "0.05"],
                    code="from rigidflock import engine\nengine._CHUNK_ROWS = 2\n"
                    + FAILING_WRITER)
    assert_one_error_line(res)
    assert "trajectory.csv: the process writing rows 0..6 failed" in res.stderr
    assert os.listdir(out) == []


# ---------------------------------------------------------------------------
# trajectory.csv streamed while the rollout runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fork", [True, False], ids=["forked", "without-fork"])
@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_streamed_trajectory_matches_per_value_reference(tmp_path, monkeypatch,
                                                         name, fork):
    # 51 rows in chunks of 10: the writer gets 5 reports, the last one
    # for a chunk of 11 rows.
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 10)
    if fork:
        forks = counting_forks(monkeypatch)
    else:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "o"
    assert main(["simulate", str(bundled_scenario_path(name)), "--out", str(out),
                 "--duration", "0.5"]) == 0
    log, edges = simulated(name, 0.5, kernel=None)
    assert log.rows == 51 > 3 * engine._CHUNK_ROWS
    assert ((out / "trajectory.csv").read_bytes(),
            (out / "metrics.csv").read_bytes()) == reference_csvs(log, edges)
    assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json",
                                       "trajectory.csv"]
    if fork:
        # The trajectory writer only: the metrics table is below the split.
        assert 51 * width(reference_csvs(log, edges)[1]) < cli._SPLIT_MIN_VALUES
        assert len(forks) == 1


def test_divergence_after_the_writer_forked_leaves_no_output(tmp_path, monkeypatch,
                                                             capsys):
    # One row per step and per chunk: the writer forks after step 1, and
    # the formation diverges at step 2.
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        data = json.load(fh)
    data["gains"]["k_a"] = 1e7
    data["sim"]["sample_every"] = 1
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 1)
    forks = counting_forks(monkeypatch)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", str(path), "--out", str(out), "--duration", "0.01"])
    assert rc == 3
    assert "diverged at t = 0.002 s" in capsys.readouterr().err
    assert len(forks) == 1
    assert os.listdir(out) == []


def test_failure_after_the_trajectory_removes_it(tmp_path, monkeypatch, capsys):
    def failing(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_metrics_csv", failing)
    out = tmp_path / "o"
    rc = main(["simulate", str(bundled_scenario_path("pentagon_flock")),
               "--out", str(out), "--duration", "0.05"])
    assert rc == 1
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(out) == []


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
    assert os.listdir(tmp_path / "o") == []


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
