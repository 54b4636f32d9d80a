"""Tests for the command-line interface and its file outputs."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                        lambda log, rows: hull_calls.append(1) or hull(log, rows))
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
    # The hull series is computed once per chunk (this run is one chunk);
    # the CSV and summary share it.
    assert len(hull_calls) == 1
    assert mrows[-1][mrows[0].index("hull_contains")] == str(
        int(summary["hull_contains_final"]))


@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_summary_reports_anchor_sign_for_flock_runs_only(tmp_path, name):
    # Only the flock law reads anchor_sign, so an intercept summary omits it.
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_json(tmp_path, name, anchor_sign=-1)),
                 "--out", str(out), "--duration", "0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    keys = ["scenario", "mode", "notes", "agents", "seed", "anchor_sign",
            "smoothing_epsilon", "gains"]
    if name == "pentagon_intercept":
        keys.remove("anchor_sign")
    else:
        assert summary["anchor_sign"] == -1.0
    assert list(summary)[:len(keys)] == keys


@pytest.mark.parametrize("duration, error", [
    pytest.param("0.0025", "error: sim.duration_s: duration / dt = 2.5 steps must "
                 "be a whole number", id="half-step"),
    pytest.param("0.002", "error: sim.duration_s: duration / dt = 2 steps must be "
                 "a multiple of sample_every = 10", id="between-rows"),
])
def test_simulate_duration_between_logged_rows_exits_1(tmp_path, duration, error):
    # pentagon_flock: dt 1e-3, sample_every 10.  Rounded to 2 steps, the
    # run logged only t = 0 and reported it as every final value.
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", duration])
    assert_one_error_line(res)
    assert res.stderr.strip() == error
    assert not (out / "summary.json").exists()


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


def nested_json(data, field, depth):
    """``data`` as JSON text with the value of ``field`` (a dotted path)
    inside ``depth`` lists."""
    *parents, key = field.split(".")
    obj = data
    for parent in parents:
        obj = obj[parent]
    inner, obj[key] = json.dumps(obj[key]), "@"
    return json.dumps(data).replace('"@"', "[" * depth + inner + "]" * depth)


# The decoder's RecursionError, and 500 levels of the recursive array
# check, once ended in a traceback.  check-rigidity never reads the gains.
@pytest.mark.parametrize("command, field, depth, error", [
    pytest.param(command, *case, id=f"{command}-{case[0] or 'document'}")
    for command in ("simulate", "check-rigidity") for case in [
        (None, 100_000, "error: {path}: JSON nested too deeply"),
        ("target_positions_m", 500, "error: target_positions_m: ")]
] + [pytest.param("simulate", "gains.c", 500, "error: gains.c: ", id="simulate-gains.c")])
def test_deeply_nested_json_exits_1_without_traceback(tmp_path, command, field,
                                                      depth, error):
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        data = json.load(fh)
    path = tmp_path / "nested.json"
    path.write_text("[" * depth if field is None else nested_json(data, field, depth),
                    encoding="utf-8")
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    out = run_child(argv)
    assert_one_error_line(out)
    assert out.stderr.startswith(error.format(path=path)), out.stderr


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


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
@pytest.mark.parametrize("name, mutate, code, stderr", [
    # A list element once reached set() and raised TypeError.
    pytest.param("pentagon_flock", lambda d: d.update(v0_access=[[0]]), 1,
                 ["error: v0_access: "], id="v0_access-list-element"),
    pytest.param("pentagon_flock", lambda d: d.update(v0_access=[[1, 2]]), 1,
                 ["error: v0_access: "], id="v0_access-pair-element"),
    # The numpy law once printed overflow and invalid-value RuntimeWarnings
    # before its own divergence report.
    pytest.param("pentagon_intercept", lambda d: d["gains"].update(alpha1=1e300), 3,
                 ["error: agent 1 diverged at t = 0.0005 s"], id="alpha1-1e300"),
    # The far centre makes gamma_t2 = 1e308, which fails the gain check.
    pytest.param("pentagon_intercept",
                 lambda d: d["target"]["center_m"].__setitem__(0, -1e308), 3,
                 ["WARNING rigidflock.scenario: gains.alpha2 = 0.25 does not dominate",
                  "error: agent 1 diverged at t = 0.00025 s"], id="center_m-minus-1e308"),
])
def test_extreme_value_exits_without_traceback_or_warning(tmp_path, name, mutate,
                                                          code, stderr, kernel):
    with open(bundled_scenario_path(name)) as fh:
        data = json.load(fh)
    mutate(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = run_child(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--duration", "1", "--kernel", kernel], code=(
        "import sys, warnings; warnings.simplefilter('error'); "
        "from rigidflock.cli import main; sys.exit(main(sys.argv[1:]))"))
    assert out.returncode == code, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == len(stderr), out.stderr
    assert all(line.startswith(start) for line, start in zip(lines, stderr)), out.stderr


@pytest.mark.parametrize("log", [None, "error"])
def test_warnings_reach_stderr_whatever_the_environment(tmp_path, monkeypatch, log):
    # RIGIDFLOCK_LOG=error once hid every warning the parser logs.
    if log is None:
        monkeypatch.delenv("RIGIDFLOCK_LOG", raising=False)
    else:
        monkeypatch.setenv("RIGIDFLOCK_LOG", log)
    path = scenario_json(tmp_path, bogus=1)
    out = run_child(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--duration", "0"])
    assert out.returncode == 0, out.stderr
    assert out.stderr == ("WARNING rigidflock.scenario: scenario: ignoring "
                          "unknown field 'bogus'\n")


@pytest.mark.parametrize("flag, value, error", [
    # 1e15 steps: the first array of the rollout (petabytes) cannot be
    # allocated, so this fails at once without touching real memory.
    pytest.param("--duration", "1e12", "error: out of memory", id="duration-1e12"),
    # 1e18 steps index, but the log's bytes exceed what mmap can count.
    pytest.param("--duration", "1e15", "error: out of memory", id="duration-1e15"),
    # 1e300 steps do not fit an index, and with the smallest subnormal
    # dt the step count is inf: the parser rejects both.
    pytest.param("--dt", "1e-300", "error: sim.dt_s:", id="dt-1e-300"),
    pytest.param("--dt", "5e-324", "error: sim.dt_s:", id="dt-5e-324"),
])
def test_impossible_horizon_exits_1_without_traceback(tmp_path, flag, value, error):
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "1", flag, value])
    assert_one_error_line(res)
    assert res.stderr.startswith(error)
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
    # est holds v_f_hat, or v_t_hat then e_t_hat; references v_0, or v_T then p_T.
    per_agent = [log.poses, log.commands, log.u, log.est]
    v_ref, p_ref = log.references[:, :2], log.references[:, 2:]
    shared = [v_ref] if flock else [p_ref, v_ref]
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
            row += [fmt(v) for v in log.est_errors[r, 0]] + [fmt(log.shape_dist[r])]
        else:
            row += [fmt(v) for v in log.est_errors[r, 0]]
            row += [fmt(v) for v in log.est_errors[r, 1]]
            row += [fmt(log.e_t_norm[r]), fmt(log.shape_dist[r]),
                    str(int(log.hull_inside[r]))]
        w.writerow(row)
    return traj.getvalue().encode(), metrics.getvalue().encode()


def written_csvs(log, edges, tmp_path):
    trajectory, metrics = tmp_path / "trajectory.csv", tmp_path / "metrics.csv"
    with cli._Outputs([(trajectory, cli._trajectory_table),
                       (metrics, lambda log: cli._metrics_table(log, edges))]) as outputs:
        cli.write_trajectory_csv(log, trajectory, outputs)
        cli.write_metrics_csv(log, metrics, outputs)
        outputs.commit()
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
    per_agent = ("poses", "commands", "u", "est", "heading_errors", "edge_errors")
    wide = dataclasses.replace(log, **{
        name: np.concatenate([getattr(log, name)] * copies, axis=1)
        for name in per_agent}, est_errors=np.concatenate([log.est_errors] * copies, axis=2))
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
    # inf, nan, a 17-digit tie (1.00000762939453125) and 2**53 + 2
    more = [np.inf, np.nan, 1 + 2.0 ** -17, 2.0 ** 53 + 2]
    log.t[4:6] = more[:2]
    log.poses[2, 0, :3] = more[1:]
    log.edge_errors[1, :4] = more
    log.heading_errors[4, :4] = more
    if log.mode == "intercept":
        log.hull_inside[1] = False
    traj, metrics = written_csvs(log, edges, tmp_path)
    assert (traj, metrics) == reference_csvs(log, edges)
    for text in (b"-0,", b"4.9406564584124654e-324,", b"1e+308,",
                 b"0.33333333333333331,", b"inf,", b"nan,", b"1.0000076293945312,",
                 b"9007199254740994,"):
        assert text in traj and text in metrics


def test_tables_are_written_in_process_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    log, edges = simulated("pentagon_intercept", 0.02)
    assert written_csvs(log, edges, tmp_path) == reference_csvs(log, edges)


# ---------------------------------------------------------------------------
# The block formatter against format(x, ".17g")
# ---------------------------------------------------------------------------

def formatted(values, width):
    """CSV rows of ``width`` values, one ``format(x, ".17g")`` per value."""
    rows = np.asarray(values, dtype=float).reshape(-1, width)
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\r\n"
                   for row in rows).encode()


def ties():
    """Doubles whose exact value has 18 significant digits, the last a 5."""
    ones = 1 + (2 * np.arange(500) + 1) * 2.0 ** -17  # 1.00000762939453125, ...
    rng = np.random.default_rng(5)
    small = [math.ldexp(float(m | 1), -e) for e in range(1, 40)
             for m in rng.integers(1, 2**53, 300).tolist()]
    found = [v for v in small
             if (t := Decimal(v).as_tuple()).digits[-1] == 5 and len(t.digits) == 18]
    assert len(found) > 100
    return np.concatenate([ones, found[:300]])


def powers_of_ten():
    """10**k, its two neighbours and their negatives for k in [-324, 308]."""
    p = np.array([float(f"1e{k}") for k in range(-324, 309)])
    p = np.stack([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)], axis=1)
    return np.concatenate([p, -p], axis=1)


VALUE_SETS = {
    "random-bits": (lambda: np.random.default_rng(24).integers(
        0, 2**64, 10**5, dtype=np.uint64).view(float), 50),
    "powers-of-ten": (powers_of_ten, 6),
    "specials": (lambda: [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          2.225073858507201e-308, 1.7976931348623157e308,
                          -np.inf, np.inf, np.nan], 10),
    "integers": (lambda: np.concatenate([
        np.arange(2**53 - 64, 2**53 + 64), 10**16 + np.arange(-64, 64),
        10**17 + 8 * np.arange(-128, 128)]).astype(float), 16),
    "ties": (ties, 8),
}


@pytest.mark.parametrize("name", VALUE_SETS)
def test_format_rows_matches_format(name):
    make, width = VALUE_SETS[name]
    values = np.asarray(make(), dtype=float).reshape(-1, width)
    assert cli._format_rows(values) == formatted(values, width)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_format_rows_matches_format_on_any_floats(values):
    assert cli._format_rows(np.array([values])) == formatted(values, len(values))


def test_exact_fallback_prints_ties_and_values_outside_the_table():
    # 1 + 2**-17 ends in ...125 at 18 digits; 5e-324 is subnormal and 1e300
    # lies beyond the power table.  The last two take the numpy path.
    values = np.array([1 + 2.0 ** -17, 5e-324, 1e300, 0.1, -0.0])
    _, _, slow = cli._decimal(values)
    assert slow.tolist() == [True, True, True, False, False]
    assert cli._format_rows(values[None]) == (
        b"1.0000076293945312,4.9406564584124654e-324,1.0000000000000001e+300,"
        b"0.10000000000000001,-0\r\n")


def test_power_table_is_exact():
    e0, e1 = min(cli._K_MIN + 1, 14 - cli._K_MAX), max(cli._K_MAX + 3, 16 - cli._K_MIN)
    for e, (hi, lo) in zip(range(e0, e1 + 1), cli._pow10(e0, e1).T):
        exact = Fraction(10) ** e
        assert hi == float(exact)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(1, 2**106)
    # Every slot's threshold is the least double >= 10**(k + 1).
    for k, threshold in zip(range(cli._K_MIN, cli._K_MAX + 3), cli._format_tables()[1]):
        exact = Fraction(10) ** (k + 1)
        assert Fraction(threshold) >= exact > Fraction(np.nextafter(threshold, 0))


# ---------------------------------------------------------------------------
# A forked writer that fails
# ---------------------------------------------------------------------------

def stream_table(tmp_path, block, body=None, rows=10):
    """Stream a two-column table of ``rows`` rows to table.csv in two reports.

    The first report forks the writer; ``body`` (if given) runs after it
    in this process.
    """
    path, log = tmp_path / "table.csv", SimpleNamespace(rows=rows)
    with cli._Outputs([(path, lambda log: (["a", "b"], block))]) as outputs:
        outputs(log, rows // 2)
        if body is not None:
            body()
        outputs(log, rows)
        outputs.finish(path, log)
        outputs.commit()


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_failed_writer_process_raises_oserror(tmp_path, failure):
    parent, rows = os.getpid(), 10

    def block(r0, r1):
        if r0 >= rows // 2 and os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("writer failed")
        return np.zeros((r1 - r0, 2))

    with pytest.raises(OSError, match=r"table\.csv: the process writing rows "
                                      r"0\.\.10 failed"):
        stream_table(tmp_path, block, rows=rows)
    assert os.listdir(tmp_path) == []  # no partial CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure, reason", [
    ("raises", f"rows 0..10 failed (exit status 1): OSError: [Errno {errno.ENOSPC}] "
               "No space left on device"),
    ("killed", f"rows 0..10 failed (exit status {-signal.SIGKILL})"),
], ids=["raises", "killed"])
def test_failed_writer_process_reports_why(tmp_path, failure, reason):
    # The child's exception reaches the parent's OSError; a killed child
    # raised nothing, so only its status is reported.
    parent = os.getpid()

    def block(r0, r1):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(errno.ENOSPC, "No space left on device")
        return np.zeros((r1 - r0, 2))

    with pytest.raises(OSError) as err:
        stream_table(tmp_path, block)
    assert str(err.value).endswith(reason), str(err.value)
    assert os.listdir(tmp_path) == []


def test_failure_in_the_cli_process_reaps_the_writer(tmp_path):
    def body():
        raise RuntimeError("rollout failed")

    with pytest.raises(RuntimeError, match="rollout failed"):
        stream_table(tmp_path, lambda r0, r1: np.zeros((r1 - r0, 2)), body)
    assert os.listdir(tmp_path) == []  # no partial CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_writer(table, failure="raise OSError(errno.ENOSPC, 'No space left on device')"):
    """The CLI in rollout chunks of two rows, whose forked writer runs
    ``failure`` (by default: finds the disk full) when it writes ``table``."""
    return f"""
import errno, os, signal, sys
from rigidflock import cli, engine
engine._CHUNK_ROWS = 2
parent, write_rows = os.getpid(), cli._write_rows

def failing(out, *args):
    if os.getpid() != parent and {table!r} in out.name:
        {failure}
    write_rows(out, *args)

cli._write_rows = failing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_writer_process_exits_1_without_traceback(tmp_path):
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_intercept")),
                     "--out", str(out), "--duration", "0.05"],
                    code=failing_writer("metrics.csv"))
    assert_one_error_line(res)
    assert "metrics.csv" in res.stderr
    assert os.listdir(out) == []  # no partial CSV


@pytest.mark.parametrize("table", ["trajectory.csv", "metrics.csv"],
                         ids=["streamed", "streamed-metrics"])
def test_failed_writer_error_line_says_why(tmp_path, table):
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "0.05"],
                    code=failing_writer(table))
    assert_one_error_line(res)
    assert (f"{out / 'trajectory.csv'}, {out / 'metrics.csv'}: the process "
            "writing rows 0..6 failed (exit status 1)") in res.stderr
    assert f"OSError: [Errno {errno.ENOSPC}] No space left on device" in res.stderr
    assert os.listdir(out) == []


def test_failed_stream_writer_exits_1_without_traceback(tmp_path):
    # Two-row chunks: both tables are streamed by one writer forked during
    # the rollout, and that writer is killed.
    out = tmp_path / "o"
    res = run_child(["simulate", str(bundled_scenario_path("pentagon_flock")),
                     "--out", str(out), "--duration", "0.05"],
                    code=failing_writer("trajectory.csv",
                                        "os.kill(os.getpid(), signal.SIGKILL)"))
    assert_one_error_line(res)
    assert (f"{out / 'trajectory.csv'}, {out / 'metrics.csv'}: the process "
            f"writing rows 0..6 failed (exit status {-signal.SIGKILL})") in res.stderr
    assert os.listdir(out) == []


# ---------------------------------------------------------------------------
# Both CSVs streamed while the rollout runs
# ---------------------------------------------------------------------------

def counting_forks(monkeypatch):
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


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
        assert len(forks) == 1  # one writer for both tables


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


@pytest.mark.parametrize("failure", ["cli-process", "writer-process"])
def test_failed_rerun_keeps_previous_outputs(tmp_path, monkeypatch, capsys, failure):
    # A rerun into the same OUT whose metrics writer finds the disk full
    # renames nothing: OUT keeps the first run's three files, not a mix.
    out = tmp_path / "o"
    argv = ["simulate", str(bundled_scenario_path("pentagon_flock")),
            "--out", str(out), "--duration", "0.05"]
    assert main(argv) == 0
    names = ["metrics.csv", "summary.json", "trajectory.csv"]
    before = {name: (out / name).read_bytes() for name in names}
    rerun = argv + ["--seed", "9"]  # a different trajectory
    if failure == "writer-process":
        assert_one_error_line(run_child(rerun, code=failing_writer("metrics.csv")))
    else:
        def failing(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_metrics_csv", failing)
        assert main(rerun) == 1
        assert "No space left" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == names
    assert {name: (out / name).read_bytes() for name in names} == before


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


def henneberg_formation(n, seed):
    """A formation file grown by Henneberg type-I steps (2n - 3 edges), as in
    ``test_kernels.henneberg_config``: each new agent joins both ends of a
    random existing edge, placed near that edge's midpoint."""
    rng = np.random.default_rng(seed)
    pos = [np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.05, 0.09])]
    edges = [[1, 2], [1, 3], [2, 3]]
    for k in range(4, n + 1):
        i, j = edges[rng.integers(len(edges))]
        pos.append(0.5 * (pos[i - 1] + pos[j - 1]) + rng.normal(scale=0.05, size=2))
        edges += [[i, k], [j, k]]
    return {"n": n, "edges": edges, "positions_m": np.array(pos).tolist()}


def check_rigidity_report(formation):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "formation.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(formation, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(["check-rigidity", path])
    return rc, json.loads(out.getvalue())


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**16))
def test_check_rigidity_matches_henneberg_construction(n, seed):
    # Henneberg type-I steps keep a generic framework minimally rigid
    # (Laman 1970), and its 2n - 3 rows are independent, so removing any
    # one edge leaves rank 2n - 4 and exit 2.
    formation = henneberg_formation(n, seed)
    rc, report = check_rigidity_report(formation)
    assert rc == 0
    assert report["minimally_rigid"] is True and report["rank"] == 2 * n - 3
    for k in range(len(formation["edges"])):
        cut = dict(formation, edges=formation["edges"][:k] + formation["edges"][k + 1:])
        rc, report = check_rigidity_report(cut)
        assert rc == 2
        assert report["rank"] == 2 * n - 4


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("inherited", [None, "4"])
def test_cli_process_has_one_thread(monkeypatch, inherited):
    # Importing the CLI pins OpenBLAS to one thread before numpy loads,
    # whatever the environment asks for, so a rollout burns no CPU on an
    # idle BLAS worker and the CSV writer forks from a one-thread process.
    if inherited is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
    out = run_child([], code="import os, rigidflock.cli; "
                              "print(len(os.listdir('/proc/self/task')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("before, module, expected", [
    # The CLI freezes the heap its imports leave and turns the collector
    # back on; a host that had switched it off keeps it off.
    pytest.param("", "rigidflock.cli", "True frozen", id="cli"),
    pytest.param("gc.disable(); ", "rigidflock.cli", "False frozen",
                 id="cli-gc-off"),
    # The library modules leave the collector alone.
    pytest.param("", "rigidflock.engine", "True 0", id="engine"),
])
def test_cli_import_freezes_the_heap_and_keeps_the_gc_setting(before, module,
                                                              expected):
    out = run_child([], code=f"import gc; {before}import {module}; "
                             "n = gc.get_freeze_count(); "
                             "print(gc.isenabled(), 'frozen' if n > 0 else n)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == expected


@pytest.mark.parametrize("command, name", [("simulate", "pentagon_flock"),
                                           ("check-rigidity", "pentagon_intercept")])
def test_cli_never_imports_numpy_random(tmp_path, command, name):
    # numpy.random would load secrets and OpenSSL's _hashlib, about 5 MB
    # of a process's peak, for a seeded scenario's 3n uniform draws.  The
    # CSV formatter builds its powers of ten from ints, without fractions
    # or decimal.
    argv = [command, str(bundled_scenario_path(name))]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o"), "--duration", "0.1"]
    out = run_child(argv, code=(
        "import sys; from rigidflock.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted({'numpy.random', 'secrets', '_hashlib', 'fractions', 'decimal'}"
        " & set(sys.modules)))"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_cli_never_imports_importlib_resources_or_tempfile(tmp_path):
    # Without site (-S), whose hooks may load them first, the modules a
    # run adds beyond numpy's own include neither.
    src = str(Path(rigidflock.__file__).resolve().parents[1])
    numpy_dir = str(Path(np.__file__).resolve().parents[1])
    code = ("import sys, numpy; before = set(sys.modules); "
            "from rigidflock.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted({'importlib.resources', 'tempfile'} "
            "& (set(sys.modules) - before)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, "simulate",
         str(bundled_scenario_path("pentagon_flock")), "--out", str(tmp_path / "o"),
         "--duration", "0"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, numpy_dir))))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_cli_builds_the_format_tables_on_first_use():
    # check-rigidity formats no value, so importing the CLI builds no
    # formatter table; the first formatted block builds them once.
    out = run_child([str(bundled_scenario_path("pentagon_flock"))], code=(
        "import sys, numpy as np; from rigidflock import cli; "
        "built = cli._format_tables.cache_info().currsize; "
        "rc = cli.main(['check-rigidity', sys.argv[1]]); "
        "after = cli._format_tables.cache_info().currsize; "
        "cli._format_rows(np.ones((2, 3))); cli._format_rows(np.ones((1, 1))); "
        "print(built, rc, after, cli._format_tables.cache_info().currsize)"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 0 0 1"


def test_cli_never_imports_the_oracle(tmp_path):
    # The agent's-eye measurement path is a test oracle: no run loads it.
    scenario = bundled_scenario_path("pentagon_intercept")
    out = run_child([str(tmp_path / "o"), str(scenario)], code=(
        "import sys; from rigidflock.cli import main; out, scn = sys.argv[1:]; "
        "rcs = [main(['simulate', scn, '--out', out, '--duration', '0.1']), "
        "main(['check-rigidity', scn])]; "
        "print(rcs, 'rigidflock.oracle' in sys.modules)"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


def test_only_loop_form_runs_import_the_generator(tmp_path):
    # Numpy-law runs never import rigidflock.unrolled, so they pay
    # neither its import nor a build; loop-form runs do, set-up runs
    # (--duration 0) included, and their summaries name the uncompiled
    # loop form as before.
    scenario = str(bundled_scenario_path("pentagon_intercept"))
    runs = {"setup": ["--duration", "0"], "law": ["--duration", "0.1", "--kernel", "numpy"],
            "loops": ["--duration", "0.1"]}
    for name, args in runs.items():
        out = run_child([str(tmp_path / name), scenario, *args], code=(
            "import sys; from rigidflock.cli import main; out, scn, *args = sys.argv[1:]; "
            "rc = main(['simulate', scn, '--out', out, *args]); "
            "print(rc, 'rigidflock.unrolled' in sys.modules)"))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 {name != 'law'}", name
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert (summary["kernel"], summary["form"]) == (
            "numpy", "law" if name == "law" else "loops"), name


@pytest.mark.parametrize("n_key, pos_key", [("n", "positions_m"),
                                            ("agents", "target_positions_m")])
def test_check_rigidity_rejects_non_number_positions(tmp_path, n_key, pos_key):
    # check-rigidity reads a formation by the scenario parser's rules:
    # neither a numeric string nor a bool is a coordinate.
    path = tmp_path / "formation.json"
    path.write_text(json.dumps({
        n_key: 3,
        "edges": [[1, 2], [1, 3], [2, 3]],
        pos_key: [["0", "0"], [True, 0], [0, "1"]],
    }), encoding="utf-8")
    out = run_child(["check-rigidity", str(path)])
    assert_one_error_line(out)
    assert out.stderr.startswith(f"error: {pos_key}:")


def test_check_rigidity_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    rc = main(["check-rigidity", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    path.write_text(json.dumps({"positions_m": [[0, 0]]}), encoding="utf-8")
    assert main(["check-rigidity", str(path)]) == 1
    capsys.readouterr()
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}),
                    encoding="utf-8")
    assert main(["check-rigidity", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: formation file needs positions_m or target_positions_m\n"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
