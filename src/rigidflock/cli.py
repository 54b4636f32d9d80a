"""Command-line interface and file output for the simulator.

Usage:
    rigidflock simulate SCENARIO.json --out OUTDIR [--duration S] [--dt S]
                        [--seed N] [--kernel auto|jit|numpy]
    rigidflock check-rigidity FILE.json

``simulate`` writes trajectory.csv, metrics.csv, and summary.json into
OUTDIR.  ``check-rigidity`` prints a JSON rigidity report for a
formation file (either a scenario file or a minimal
{"n", "edges", "positions_m"} object).

Exit codes: 0 success (for check-rigidity: infinitesimally and
minimally rigid), 1 input/validation error (including a requested
kernel that is unavailable, e.g. ``--kernel jit`` without numba),
2 formation not rigid, 3 simulation diverged.  Set
RIGIDFLOCK_LOG=debug|info|warning|error to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import engine
from .engine import SimulationDiverged, TrajectoryLog
from .graph import Graph, is_connected
from .kernels import KernelUnavailable
from .rigidity import Framework, is_minimally_rigid, rigidity_rank
from .scenario import Scenario, ScenarioError, load_scenario, read_json

logger = logging.getLogger("rigidflock.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_RIGID = 2
EXIT_DIVERGED = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(log: TrajectoryLog, path) -> None:
    """Raw sampled state and commands, one row per sample time."""
    n = log.n
    header = ["t_s"]
    for i in range(1, n + 1):
        header += [f"x_m_{i}", f"y_m_{i}", f"theta_rad_{i}",
                   f"v_mps_{i}", f"omega_radps_{i}", f"ux_{i}", f"uy_{i}"]
        if log.mode == "flock":
            header += [f"vfhat_x_{i}", f"vfhat_y_{i}"]
        else:
            header += [f"vthat_x_{i}", f"vthat_y_{i}",
                       f"ethat_x_{i}", f"ethat_y_{i}"]
    if log.mode == "flock":
        header += ["v0_x_mps", "v0_y_mps"]
    else:
        header += ["pt_x_m", "pt_y_m", "vt_x_mps", "vt_y_mps"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in range(log.rows):
            row = [_fmt(log.t[r])]
            for k in range(n):
                row += [_fmt(log.poses[r, k, 0]), _fmt(log.poses[r, k, 1]),
                        _fmt(log.poses[r, k, 2]), _fmt(log.commands[r, k, 0]),
                        _fmt(log.commands[r, k, 1]), _fmt(log.u[r, k, 0]),
                        _fmt(log.u[r, k, 1])]
                if log.mode == "flock":
                    row += [_fmt(log.v_f_hat[r, k, 0]), _fmt(log.v_f_hat[r, k, 1])]
                else:
                    row += [_fmt(log.v_t_hat[r, k, 0]), _fmt(log.v_t_hat[r, k, 1]),
                            _fmt(log.e_t_hat[r, k, 0]), _fmt(log.e_t_hat[r, k, 1])]
            if log.mode == "flock":
                row += [_fmt(log.v0[r, 0]), _fmt(log.v0[r, 1])]
            else:
                row += [_fmt(log.target_pos[r, 0]), _fmt(log.target_pos[r, 1]),
                        _fmt(log.target_vel[r, 0]), _fmt(log.target_vel[r, 1])]
            w.writerow(row)


def write_metrics_csv(log: TrajectoryLog, edges, path) -> None:
    """Derived error series, one row per sample time."""
    n = log.n
    header = ["t_s"]
    header += [f"e_{i}_{j}" for i, j in edges]
    header += [f"theta_err_{i}" for i in range(1, n + 1)]
    if log.mode == "flock":
        header += [f"vf_err_{i}" for i in range(1, n + 1)]
        header += ["shape_dist_m"]
    else:
        header += [f"vt_err_{i}" for i in range(1, n + 1)]
        header += [f"et_err_{i}" for i in range(1, n + 1)]
        header += ["e_t_norm_m", "shape_dist_m", "hull_contains"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in range(log.rows):
            row = [_fmt(log.t[r])]
            row += [_fmt(v) for v in log.edge_errors[r]]
            row += [_fmt(v) for v in log.heading_errors[r]]
            if log.mode == "flock":
                row += [_fmt(v) for v in log.est_errors[r]]
                row += [_fmt(log.shape_dist[r])]
            else:
                row += [_fmt(v) for v in log.v_t_err[r]]
                row += [_fmt(v) for v in log.e_t_err[r]]
                row += [_fmt(log.e_t_norm[r]), _fmt(log.shape_dist[r]),
                        str(int(log.hull_inside[r]))]
            w.writerow(row)


def build_summary(scn: Scenario, log: TrajectoryLog) -> dict:
    summary = {
        "scenario": scn.name,
        "mode": scn.mode,
        "notes": scn.notes,
        "agents": scn.n,
        "seed": scn.seed,
        "anchor_sign": scn.anchor_sign,
        "smoothing_epsilon": scn.smoothing_epsilon,
        "gains": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in vars(scn.gains).items()},
    }
    if scn.mode == "flock":
        summary["gamma0"] = scn.gamma0
        summary["v0_access"] = list(scn.v0_access)
    else:
        summary["gamma_t1"] = scn.gamma_t1
        summary["gamma_t2"] = scn.gamma_t2
        summary["leader"] = scn.leader
    summary.update(engine.metrics(log))
    return summary


def _cmd_simulate(args) -> int:
    force = None if args.kernel == "auto" else args.kernel
    scn = load_scenario(args.scenario, duration=args.duration, dt=args.dt,
                        seed=args.seed)
    log = engine.run(scn.to_run_config(), force_kernel=force)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(log, outdir / "trajectory.csv")
    write_metrics_csv(log, scn.graph.edges, outdir / "metrics.csv")
    summary = build_summary(scn, log)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if scn.mode == "flock":
        headline = f"final max edge error {summary['final_max_edge_error']:.3e} m"
    else:
        headline = f"final target error {summary['final_e_t_norm']:.3e} m"
    print(f"{scn.name}: {log.rows} rows -> {outdir} ({headline}, "
          f"{summary['kernel']} kernel, {summary['runtime_s']:.3f} s)")
    return EXIT_OK


def _cmd_check_rigidity(args) -> int:
    data = read_json(args.file)
    if not isinstance(data, dict):
        raise ScenarioError("formation file must be a JSON object")
    if "positions_m" in data:
        n, edges, pos = data.get("n"), data.get("edges"), data["positions_m"]
    elif "target_positions_m" in data:
        n = data.get("agents")
        edges = data.get("edges")
        pos = data["target_positions_m"]
    else:
        raise ScenarioError("formation file needs positions_m or target_positions_m")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ScenarioError("n/agents: must be an integer")
    try:
        g = Graph(n, [tuple(e) for e in edges])
        fw = Framework(g, np.array(pos, dtype=float))
        rank = rigidity_rank(fw)
        if n < 3:
            raise ScenarioError("rigidity test needs at least 3 nodes")
        rigid = rank == 2 * n - 3
        report = {
            "n": n,
            "edge_count": g.edge_count,
            "rank": rank,
            "required_rank": 2 * n - 3,
            "connected": is_connected(g),
            "infinitesimally_rigid": rigid,
            "minimally_rigid": rigid and g.edge_count == 2 * n - 3,
        }
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc
    print(json.dumps(report, indent=2))
    ok = report["infinitesimally_rigid"] and report["minimally_rigid"]
    return EXIT_OK if ok else EXIT_NOT_RIGID


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rigidflock",
        description="Distance-based flocking / target interception simulator "
                    "for unicycle agents.")
    sub = p.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="roll out a scenario file")
    sim.add_argument("scenario", help="path to a scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--duration", type=float, default=None,
                     help="override duration_s")
    sim.add_argument("--dt", type=float, default=None, help="override dt_s")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the initial-condition seed")
    sim.add_argument("--kernel", choices=("auto", "jit", "numpy"),
                     default="auto", help="kernel implementation (default: auto)")
    sim.set_defaults(func=_cmd_simulate)
    chk = sub.add_parser("check-rigidity", help="rigidity report for a formation")
    chk.add_argument("file", help="scenario or formation JSON file")
    chk.set_defaults(func=_cmd_check_rigidity)
    return p


def _setup_logging() -> None:
    level = os.environ.get("RIGIDFLOCK_LOG", "warning").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=getattr(logging, level),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def main(argv=None) -> int:
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, KernelUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
