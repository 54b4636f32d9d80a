"""Command-line interface and file output for the simulator.

Usage:
    rigidflock simulate SCENARIO.json --out OUTDIR [--duration S] [--dt S]
                        [--seed N] [--kernel auto|jit|numpy]
    rigidflock check-rigidity FILE.json

``simulate`` writes trajectory.csv, metrics.csv, and summary.json into
OUTDIR, each under a temporary name; all three are renamed together
once all three are complete.
Where ``os.fork`` exists and the rollout spans more than one chunk, one
forked writer formats the rows of both CSVs while the rollout runs;
otherwise this process writes them after the rollout.  The bytes are
the same either way.  ``check-rigidity`` prints a JSON rigidity report
for a formation file (either a scenario file or a minimal {"n",
"edges", "positions_m"} object).

Exit codes: 0 success (for check-rigidity: infinitesimally and
minimally rigid), 1 input/validation or I/O error (including a
requested kernel that is unavailable, e.g. ``--kernel jit`` without
numba, a horizon too long to allocate or to index, and a failed writer
process), 2 formation not rigid, 3 simulation diverged.  OUTDIR is
created before the rollout; a run that exits 1 or 3 renames nothing,
so it leaves OUTDIR's earlier files as they were.  Only a kill the
process cannot catch leaves its ``.NAME.PID.part`` files behind.  Set
RIGIDFLOCK_LOG=debug|info|warning|error to control log verbosity.

Importing this module sets the process up for one run: it pins OpenBLAS
to one thread before numpy loads, and it keeps the cyclic garbage
collector off while numpy and the package import, then ``gc.freeze()``s
the objects they leave, so no collection walks them, teardown's
included.  It switches the collector back on only if it was on before
the import, so a caller that imports this module keeps its own setting.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import sys
from pathlib import Path

# Before numpy loads: the run is sequential and forks, so one BLAS thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# What numpy and the package import lives until exit, so the cyclic
# collector neither walks it while it is built nor at teardown: it is
# off for the imports, and the heap they leave is frozen.
_gc_was_enabled = gc.isenabled()
gc.disable()

import numpy as np

from . import engine
from .engine import SimulationDiverged, TrajectoryLog
from .graph import is_connected
from .kernels import KernelUnavailable
from .rigidity import rigidity_rank
from .scenario import (Scenario, ScenarioError, framework_from_dict,
                       load_scenario, read_json)

gc.freeze()
if _gc_was_enabled:
    gc.enable()

logger = logging.getLogger("rigidflock.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_RIGID = 2
EXIT_DIVERGED = 3


# Values per formatted block: bounds the transient lists and strings
# whether a row holds 40 values or 2,000.
_BLOCK_VALUES = 4096
# Longest exception text a failed writer process reports.
_REASON_CHARS = 1000


def _write_rows(out, line: str, step: int, block, r0: int, r1: int) -> None:
    """Rows ``[r0, r1)`` as ASCII CSV lines, ``step`` rows per block."""
    for a in range(r0, r1, step):
        values = block(a, min(a + step, r1))
        out.write((line * values.shape[0] % tuple(values.ravel().tolist()))
                  .encode("ascii"))


def _table_format(table, log: TrajectoryLog) -> tuple[bytes, str, int, object]:
    """``table(log)``'s header line, row format, rows per block and block.

    ``table(log)`` gives a CSV's header and ``block(r0, r1)``, which
    returns a (r1 - r0, len(header)) float array.  Every value is written
    as ``%.17g`` (so a 0/1 flag reads ``0``/``1``) with the csv module's
    CRLF line ends, about ``_BLOCK_VALUES`` values at a time.
    """
    header, block = table(log)
    width = len(header)
    return ((",".join(header) + "\r\n").encode("utf-8"),
            ",".join(["%.17g"] * width) + "\r\n", max(1, _BLOCK_VALUES // width), block)


def _part(path) -> str:
    """The temporary name beside ``path`` that it is written under."""
    path = os.path.abspath(path)
    return os.path.join(os.path.dirname(path),
                        f".{os.path.basename(path)}.{os.getpid()}.part")


def _trajectory_table(log: TrajectoryLog) -> tuple[list[str], object]:
    """trajectory.csv's header and its ``block(r0, r1)`` (see _table_format)."""
    agent_cols = ["x_m", "y_m", "theta_rad", "v_mps", "omega_radps", "ux", "uy"]
    if log.mode == "flock":
        agent_cols += ["vfhat_x", "vfhat_y"]
        shared_cols = ["v0_x_mps", "v0_y_mps"]
        per_agent = [log.poses, log.commands, log.u, log.v_f_hat]
        shared = [log.v0]
    else:
        agent_cols += ["vthat_x", "vthat_y", "ethat_x", "ethat_y"]
        shared_cols = ["pt_x_m", "pt_y_m", "vt_x_mps", "vt_y_mps"]
        per_agent = [log.poses, log.commands, log.u, log.v_t_hat, log.e_t_hat]
        shared = [log.target_pos, log.target_vel]
    header = (["t_s"] + [f"{c}_{i}" for i in range(1, log.n + 1) for c in agent_cols]
              + shared_cols)

    def block(r0, r1):
        agents = np.concatenate([a[r0:r1] for a in per_agent], axis=2)
        return np.hstack([log.t[r0:r1, None], agents.reshape(r1 - r0, -1),
                          *(a[r0:r1] for a in shared)])

    return header, block


def _metrics_table(log: TrajectoryLog, edges) -> tuple[list[str], object]:
    """metrics.csv's header and its ``block(r0, r1)`` (see _table_format)."""
    if log.mode == "flock":
        agent_cols = ["theta_err", "vf_err"]
        shared_cols = ["shape_dist_m"]
        columns = [log.t, log.edge_errors, log.heading_errors, log.est_errors,
                   log.shape_dist]
    else:
        agent_cols = ["theta_err", "vt_err", "et_err"]
        shared_cols = ["e_t_norm_m", "shape_dist_m", "hull_contains"]
        columns = [log.t, log.edge_errors, log.heading_errors, log.v_t_err,
                   log.e_t_err, log.e_t_norm, log.shape_dist, log.hull_inside]
    header = (["t_s"] + [f"e_{i}_{j}" for i, j in edges]
              + [f"{c}_{i}" for c in agent_cols for i in range(1, log.n + 1)]
              + shared_cols)

    def block(r0, r1):
        return np.hstack([c[r0:r1].reshape(r1 - r0, -1) for c in columns])

    return header, block


def _write_files(parts, formats, counts) -> None:
    """Each ``(head, line, step, block)`` table to its file in ``parts``:
    the header, then the rows up to every count of final rows in ``counts``."""
    with contextlib.ExitStack() as files:
        outs = [files.enter_context(open(tmp, "wb")) for tmp in parts]
        for out, (head, *_) in zip(outs, formats):
            out.write(head)
        done = 0
        for count in counts:
            ready = int(count)
            for out, (_, line, step, block) in zip(outs, formats):
                _write_rows(out, line, step, block, done, ready)
            done = ready


class _Outputs:
    """A run's output files, written under ``_part`` names and renamed together.

    ``tables`` lists ``(path, table)`` pairs (see ``_table_format``).  As
    ``engine.run``'s ``on_rows``, the first report that is not the whole
    log forks one writer for every table (where ``os.fork`` exists), and
    every report sends it the count of final rows.  ``finish(path, log)``
    completes one table: it waits for the writer or, if none was forked,
    writes the table in this process.  ``part(path)`` names the file any
    other output is written to.  ``commit()`` renames every file to its
    path, in the order the paths were given, and is the only rename.
    Leaving the ``with`` block reaps the writer and removes every file
    not renamed, so a failed run leaves earlier outputs as they were.  A
    failed writer (nonzero exit or a signal) raises ``OSError`` naming
    the files, its status and, if it raised, its ``Type: message``.

    Run as a program, the CLI pins OpenBLAS to one thread before numpy
    loads, so its process has one thread when it forks the writer, and
    Python 3.12+'s warning about forking a multi-threaded process cannot
    fire; the CI workflow runs the CLI on 3.12 and fails on that warning.
    """

    def __init__(self, tables):
        self.tables = dict(tables)
        self.started = False
        self._pid = self._counts = self._reasons = None
        self._parts = {path: _part(path) for path in self.tables}  # until renamed

    def part(self, path) -> str:
        """The temporary name ``path`` is written under until ``commit``."""
        return self._parts.setdefault(path, _part(path))

    def __call__(self, log: TrajectoryLog, ready: int) -> None:
        if not self.started:
            if ready == log.rows or not hasattr(os, "fork"):
                return
            self._start(log)
        try:
            os.write(self._counts, b"%d\n" % ready)
        except BrokenPipeError:
            self._wait(check=True)  # the writer has failed: raise its error
            raise

    def _start(self, log: TrajectoryLog) -> None:
        self.started = True
        formats = [_table_format(table, log) for table in self.tables.values()]
        parts = [self._parts[path] for path in self.tables]
        paths = ", ".join(str(path) for path in self.tables)
        self._what = f"{paths}: the process writing rows 0..{log.rows}"
        counts, self._counts = os.pipe()
        self._reasons, report = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (counts, self._counts, self._reasons, report):
                os.close(fd)
            self._counts = None
            raise
        if self._pid:
            os.close(counts)
            os.close(report)
            return
        status = 1
        try:
            os.close(self._counts)
            os.close(self._reasons)
            with open(counts, "rb") as lines:
                _write_files(parts, formats, lines)
            status = 0
        except Exception as exc:  # reported to the parent, which raises
            with contextlib.suppress(OSError):
                os.write(report, f"{type(exc).__name__}: {exc}"[:_REASON_CHARS]
                         .encode("utf-8", "replace"))
        finally:
            os._exit(status)  # never return into the caller or flush its buffers

    def _wait(self, check: bool) -> None:
        """Reap the writer, if any; if ``check``, raise if it failed."""
        if self._counts is not None:
            os.close(self._counts)  # the writer reads to EOF and exits
            self._counts = None
        if self._pid is None:
            return
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        # Only the writer held the pipe's write end, so this reads to EOF.
        with open(self._reasons, "rb", buffering=0) as why:
            reason = why.read().decode("utf-8", "replace") if code else ""
        if check and code != 0:
            raise OSError(f"{self._what} failed (exit status {code})"
                          + (f": {reason}" if reason else ""))

    def finish(self, path, log: TrajectoryLog) -> None:
        """Wait for the writer, or write ``path``'s table if none was forked."""
        if self.started:
            self._wait(check=True)
        else:
            _write_files([self._parts[path]],
                         [_table_format(self.tables[path], log)], [log.rows])

    def commit(self) -> None:
        """Rename every file to its path, in order."""
        for path, tmp in list(self._parts.items()):
            os.replace(tmp, path)
            del self._parts[path]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._wait(check=exc[0] is None)
        finally:
            for tmp in self._parts.values():
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)


def write_trajectory_csv(log: TrajectoryLog, path, outputs: _Outputs) -> None:
    """Finish ``path``'s table of sampled states and commands in ``outputs``."""
    outputs.finish(path, log)


def write_metrics_csv(log: TrajectoryLog, path, outputs: _Outputs) -> None:
    """Finish ``path``'s table of error series in ``outputs``."""
    outputs.finish(path, log)


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
        del summary["anchor_sign"]  # the intercept law never reads it
    summary.update(engine.metrics(log))
    return summary


def _cmd_simulate(args) -> int:
    force = None if args.kernel == "auto" else args.kernel
    scn = load_scenario(args.scenario, duration=args.duration, dt=args.dt,
                        seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trajectory, metrics = outdir / "trajectory.csv", outdir / "metrics.csv"
    tables = [(trajectory, _trajectory_table),
              (metrics, lambda log: _metrics_table(log, scn.graph.edges))]
    with _Outputs(tables) as outputs:
        log = engine.run(scn.to_run_config(), force_kernel=force, on_rows=outputs)
        write_trajectory_csv(log, trajectory, outputs)
        write_metrics_csv(log, metrics, outputs)
        summary = build_summary(scn, log)
        with open(outputs.part(outdir / "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        outputs.commit()
    if scn.mode == "flock":
        headline = f"final max edge error {summary['final_max_edge_error']:.3e} m"
    else:
        headline = f"final target error {summary['final_e_t_norm']:.3e} m"
    print(f"{scn.name}: {log.rows} rows -> {outdir} ({headline}, "
          f"{summary['kernel']} kernel, {summary['form']} form, "
          f"{summary['runtime_s']:.3f} s)")
    return EXIT_OK


def _cmd_check_rigidity(args) -> int:
    data = read_json(args.file)
    if not isinstance(data, dict):
        raise ScenarioError("formation file must be a JSON object")
    if "positions_m" in data:
        fw = framework_from_dict(data, ("n", "edges", "positions_m"))
    elif "target_positions_m" in data:
        fw = framework_from_dict(data)
    else:
        raise ScenarioError("formation file needs positions_m or target_positions_m")
    n, g = fw.n, fw.graph
    rank = rigidity_rank(fw)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
