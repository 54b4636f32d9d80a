"""Command-line interface and file output for the simulator.

Usage:
    rigidflock simulate SCENARIO.json --out OUTDIR [--duration S] [--dt S]
                        [--seed N] [--kernel auto|jit|numpy]
    rigidflock check-rigidity FILE.json

``simulate`` writes trajectory.csv, metrics.csv, and summary.json into
OUTDIR, each under a temporary name that is renamed when complete.
Where ``os.fork`` exists, a forked writer formats trajectory.csv while
the rollout runs (once the rollout spans more than one chunk), and a
large metrics.csv (or one-chunk trajectory.csv) is written by two
processes, the CLI and one forked writer, each formatting half of the
rows; the bytes are the same as from one process.  ``check-rigidity``
prints a JSON rigidity report for a formation file (either a scenario
file or a minimal {"n", "edges", "positions_m"} object).

Exit codes: 0 success (for check-rigidity: infinitesimally and
minimally rigid), 1 input/validation or I/O error (including a
requested kernel that is unavailable, e.g. ``--kernel jit`` without
numba, a horizon too long to allocate, and a failed writer process),
2 formation not rigid, 3 simulation diverged.  OUTDIR is created before
the rollout; a run that exits 1 or 3 leaves no output file in it.  Set
RIGIDFLOCK_LOG=debug|info|warning|error to control log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import engine
from .engine import SimulationDiverged, TrajectoryLog
from .graph import Graph, is_connected
from .kernels import KernelUnavailable
from .rigidity import Framework, rigidity_rank
from .scenario import Scenario, ScenarioError, load_scenario, read_json

logger = logging.getLogger("rigidflock.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_RIGID = 2
EXIT_DIVERGED = 3


# Values per formatted block: bounds the transient lists and strings
# whether a row holds 40 values or 2,000.
_BLOCK_VALUES = 4096
# Tables with at least this many values are split between this process
# and one forked writer.  Formatting costs about 1 us per value; the
# split costs about 10 ms at the CLI's ~50 MB (fork, copy-on-write
# faults, waitpid, the copy).  Timed on 2 vCPUs, the split broke even
# between 22,000 and 45,000 values and won by 30% at 140,000.
_SPLIT_MIN_VALUES = 32_768
# Longest exception text a failed writer process reports.
_REASON_CHARS = 1000


def _write_rows(out, line: str, step: int, block, r0: int, r1: int) -> None:
    """Rows ``[r0, r1)`` as ASCII CSV lines, ``step`` rows per block."""
    for a in range(r0, r1, step):
        values = block(a, min(a + step, r1))
        out.write((line * values.shape[0] % tuple(values.ravel().tolist()))
                  .encode("ascii"))


def _table_format(header: list[str]) -> tuple[bytes, str, int]:
    """A CSV's header line, its row format and the rows per block.

    Every value is written as ``%.17g`` (so a 0/1 flag reads ``0``/``1``)
    with the csv module's CRLF line ends, about ``_BLOCK_VALUES`` values
    at a time.
    """
    width = len(header)
    return ((",".join(header) + "\r\n").encode("utf-8"),
            ",".join(["%.17g"] * width) + "\r\n", max(1, _BLOCK_VALUES // width))


@contextlib.contextmanager
def _staged(path):
    """A temporary name beside ``path``, renamed to ``path`` on success.

    When the body raises, the temporary file is removed instead, so a
    failed writer leaves no partial output.
    """
    path = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.part")
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


@contextlib.contextmanager
def _forked(work, what: str):
    """Run ``work()`` in one forked child while the body of the ``with`` runs.

    The child never returns into the caller: it ends in ``os._exit``,
    with status 0 only if ``work`` returned, and flushes nothing it
    inherited.  Leaving the body reaps the child, also when the body
    raises; a child that failed (nonzero exit or a signal) then raises
    ``OSError`` naming ``what``, the exit status and, if ``work`` raised,
    the child's ``Type: message``, which it sends back over a pipe.

    OpenBLAS starts a worker thread at ``import numpy``, and a fork of a
    threaded process is unsafe in general: Python 3.12 and later warn
    about it, and the writers have been run on 3.11 only.  A child only
    slices arrays, formats and writes; it makes no BLAS call and takes
    no lock that thread could hold.
    """
    reasons, report = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reasons)
        os.close(report)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(reasons)
            work()
            status = 0
        except Exception as exc:  # reported to the parent, which raises
            with contextlib.suppress(OSError):
                os.write(report, f"{type(exc).__name__}: {exc}"[:_REASON_CHARS]
                         .encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(report)
    with open(reasons, "rb", buffering=0) as why:
        try:
            yield
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            # Only the child held the pipe's write end, so this reads to EOF.
            reason = why.read().decode("utf-8", "replace")
            raise OSError(f"{what} failed (exit status {code})"
                          + (f": {reason}" if reason else ""))


def _write_table(path, header: list[str], rows: int, block) -> None:
    """Write a CSV: ``header``, then ``block(r0, r1)`` for every row range.

    ``block`` returns a (r1 - r0, len(header)) float array, formatted as
    ``_table_format`` says.  The table is written under a temporary name
    and renamed to ``path`` when complete.

    Formatting is CPU-bound, so a table of ``_SPLIT_MIN_VALUES`` or more
    is split where ``os.fork`` exists: this process writes the first
    ``rows // 2`` rows while a forked child writes the rest to an
    anonymous temporary file, whose bytes are then appended.  The file
    is the same either way.  A failed child raises ``OSError``.
    """
    head, line, step = _table_format(header)
    split = rows
    if rows > 1 and rows * len(header) >= _SPLIT_MIN_VALUES and hasattr(os, "fork"):
        split = rows // 2
    with _staged(path) as tmp, open(tmp, "wb") as fh:
        fh.write(head)
        if split == rows:
            _write_rows(fh, line, step, block, 0, rows)
            return
        with tempfile.TemporaryFile(dir=os.path.dirname(tmp)) as tail:
            def work():
                _write_rows(tail, line, step, block, split, rows)
                tail.flush()

            with _forked(work, f"{path}: the process writing rows {split}..{rows}"):
                _write_rows(fh, line, step, block, 0, split)
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


def _trajectory_table(log: TrajectoryLog) -> tuple[list[str], object]:
    """trajectory.csv's header and its ``block(r0, r1)`` (see _write_table)."""
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


class _TrajectoryStream:
    """trajectory.csv formatted by one forked writer while the rollout runs.

    Pass it as ``engine.run``'s ``on_rows``.  On the first report that
    is not the whole table, and where ``os.fork`` exists, it forks a
    writer that formats rows as the counts of final rows arrive over a
    pipe; otherwise it does nothing and the table is written after the
    run.  ``write_trajectory_csv`` finishes it.  Used as a context
    manager, it reaps the writer and removes its file if the body raises.
    """

    def __init__(self, path):
        self.path = path
        self.started = False
        self.counts = None  # the pipe's write end while the writer runs
        self._stack = contextlib.ExitStack()

    def __call__(self, log: TrajectoryLog, ready: int) -> None:
        if not self.started:
            if ready == log.rows or not hasattr(os, "fork"):
                return
            self._start(log)
        try:
            os.write(self.counts, b"%d\n" % ready)
        except BrokenPipeError:
            self.finish()  # the writer has failed: raise its error
            raise

    def _start(self, log: TrajectoryLog) -> None:
        self.started = True
        header, block = _trajectory_table(log)
        head, line, step = _table_format(header)
        tmp = self._stack.enter_context(_staged(self.path))
        read_end, self.counts = os.pipe()

        def work():
            os.close(self.counts)
            with open(read_end, "rb") as counts, open(tmp, "wb") as out:
                out.write(head)
                done = 0
                for count in counts:
                    ready = int(count)
                    _write_rows(out, line, step, block, done, ready)
                    done = ready

        try:
            self._stack.enter_context(_forked(
                work, f"{self.path}: the process writing rows 0..{log.rows}"))
        finally:
            os.close(read_end)

    def _close_pipe(self) -> None:
        if self.counts is not None:
            os.close(self.counts)
            self.counts = None

    def finish(self) -> None:
        """Wait for the writer; rename its file to ``path`` if it succeeded."""
        self._close_pipe()
        self._stack.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._close_pipe()
        return self._stack.__exit__(*exc)


def write_trajectory_csv(log: TrajectoryLog, path, stream=None) -> None:
    """Raw sampled state and commands, one row per sample time.

    If ``stream`` (a ``_TrajectoryStream`` for ``path``) wrote the rows
    during the rollout, this only waits for it to finish.
    """
    if stream is not None and stream.started:
        stream.finish()
        return
    header, block = _trajectory_table(log)
    _write_table(path, header, log.rows, block)


def write_metrics_csv(log: TrajectoryLog, edges, path) -> None:
    """Derived error series, one row per sample time."""
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

    _write_table(path, header, log.rows, block)


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
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trajectory = outdir / "trajectory.csv"
    written = []
    try:
        with _TrajectoryStream(trajectory) as stream:
            log = engine.run(scn.to_run_config(), force_kernel=force,
                             on_rows=stream)
            write_trajectory_csv(log, trajectory, stream)
        written.append(trajectory)
        write_metrics_csv(log, scn.graph.edges, outdir / "metrics.csv")
        written.append(outdir / "metrics.csv")
        summary = build_summary(scn, log)
        with _staged(outdir / "summary.json") as tmp, \
                open(tmp, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except BaseException:
        # A failed run leaves no output file behind.
        for path in written:
            path.unlink(missing_ok=True)
        raise
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
        keys = ("n", "edges", "positions_m")
    elif "target_positions_m" in data:
        keys = ("agents", "edges", "target_positions_m")
    else:
        raise ScenarioError("formation file needs positions_m or target_positions_m")
    n, edges, pos = (data.get(k) for k in keys)
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise ScenarioError(f"{keys[0]}: must be an integer >= 3, got {n!r}")
    try:
        g = Graph(n, [tuple(e) for e in edges])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"edges: {exc}") from exc
    try:
        fw = Framework(g, np.array(pos, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{keys[2]}: {exc}") from exc
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
