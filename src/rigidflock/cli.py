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
the same either way: every value is what ``b"%.17g" % x`` prints, made
a block at a time in numpy by ``_format_rows``, which calls ``%`` only
for values it cannot round exactly (near-ties, inf, nan, subnormals and
magnitudes outside about 1e-290 to 1e291).  ``check-rigidity`` prints
a JSON rigidity report for a formation file (either a scenario file or
a minimal {"n", "edges", "positions_m"} object).

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
import functools
import gc
import json
import logging
import math
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


# Values per formatted block: bounds the block's arrays (48 bytes of
# output words and about 150 bytes of temporaries a value, under 1 MB)
# whether a row holds 40 values or 2,000.  Median formatting cost of
# dense_log's 816,102 values (10 alternating rounds, 2 vCPUs): 2,048
# values 123 ns a value, 4,096 112 ns, 8,192 176 ns, 16,384 192 ns.
_BLOCK_VALUES = 4096
# Longest exception text a failed writer process reports.
_REASON_CHARS = 1000

# ``b"%.17g" % x`` for a block of doubles, in numpy.  A finite x != 0 with
# k = floor(log10|x|) prints the 17 digits of D = round(|x| * 10**(16 - k))
# by the %g rules.  The product is taken in double-double arithmetic: hi +
# lo = 10**(16 - k) to 2**-106, and |x| * hi is split exactly by Dekker's
# two-product (numpy has no fma), so D's fraction is off by less than
# 2**-46.  A fraction within 2**-40 of one half (exact ties included), inf,
# nan, subnormals and k outside [_K_MIN, _K_MAX] take the exact fallback.
_K_MIN, _K_MAX = -290, 290  # both splits stay finite and normal in between
_TIE = 0.5 - 2.0 ** -40
# A value is 6 words of 8 bytes, its bytes in order, NUL where nothing
# prints: word 0 holds the sign, the "0.000" of 1e-4 <= |x| < 1, digit 0
# and a point slot; words 1-4 hold digits 1-16, each with a point slot;
# word 5 holds "e+XX" or "e-XXX" and the separator, ',' or CRLF.
_WORD = np.dtype("<i8")
_WORD0 = int.from_bytes(b"\x000.0000.", "little")  # digit 0 is added to byte 6


def _pow10(e0: int, e1: int) -> np.ndarray:
    """(hi, lo) rows: hi + lo = 10**e to 2**-106 for e in [e0, e1], e0 < 0.

    From Python ints: hi is 10**e rounded to a double and lo the rounded
    rest; for e < 0 both come from the top 120 bits of 2**1120 // 10**-e.
    """
    hi, lo = [], []
    f = 1 << 1120
    for _ in range(-e0):
        f //= 10
        s = f.bit_length() - 120
        top = f >> s
        h = float(top)
        hi.append(math.ldexp(h, s - 1120))
        lo.append(math.ldexp(float(top - int(h)), s - 1120))
    hi.reverse()
    lo.reverse()
    p = 1
    for _ in range(e1 + 1):
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    return np.array([hi, lo])


@functools.cache
def _format_tables() -> tuple:
    """The lookup tables of ``_format_rows``, built on its first call."""
    # Slot j is k = _K_MIN + j, up to _K_MAX + 2 after rounding; the last
    # slot is zero's, printed as D = 0 with k = 0.
    k = np.arange(_K_MIN, _K_MAX + 3)
    e0 = min(_K_MIN + 1, 14 - _K_MAX)
    hi, lo = _pow10(e0, max(_K_MAX + 3, 16 - _K_MIN))
    scale = np.zeros((4, k.size + 1))  # hi, lo and hi's two halves
    scale[:2, :-1] = hi[16 - k - e0], lo[16 - k - e0]
    m, ex = np.frexp(scale[0])
    m = m * 134217729.0 - (m * 134217729.0 - m)  # Veltkamp: 26 + 26 bits
    scale[2] = np.ldexp(m, ex)
    scale[3] = scale[0] - scale[2]
    up_hi, up_lo = hi[k + 1 - e0], lo[k + 1 - e0]  # the least double >= 10**(k + 1)
    threshold = np.append(np.where(up_lo > 0, np.nextafter(up_hi, np.inf), up_hi), np.inf)
    e = np.arange(2048)  # biased exponents: |x| in [2**(e - 1023), 2**(e - 1022))
    k0 = ((e - 1023) * 78913) >> 18  # floor(log10 2**(e - 1023)), exact here
    inside = (e > 0) & (k0 >= _K_MIN) & (k0 <= _K_MAX)
    slot = np.where(inside, k0 - _K_MIN, k.size)
    k = np.append(k, 0)
    fixed = (k >= -4) & (k <= 16)
    point = np.where(fixed, np.where(k >= 0, k, 16 - k), 0)  # 17-20: "0." and 0-3 zeros
    ak = np.abs(k)
    exponent = np.where(fixed, 0, 101 | np.where(k < 0, 45, 43) << 8
                        | np.where(ak >= 100, 48 + ak // 100, 0) << 16
                        | (48 + ak // 10 % 10) << 24 | (48 + ak % 10) << 32)
    d = np.arange(10)
    digits = (d[:, None, None, None] | d[:, None, None] << 16 | d[:, None] << 32 | d << 48
              ).reshape(-1) + int.from_bytes(b"0.0.0.0.", "little")
    # Layout code 21 * keep + point: digits 0..keep-1 print (through the
    # last nonzero one, and all before the point).  Group i of four digits
    # raises keep to its last nonzero digit.
    last = np.where(d > 0, 4, np.where(d[:, None] > 0, 3, np.where(d[:, None, None] > 0, 2, 1)))
    last = np.broadcast_to(last, (10,) * 4).reshape(-1)
    keep_codes = (21 * (1 + 4 * np.arange(4)[:, None] + last)).astype(np.int16)
    keep_codes[:, 0] = 21
    p = np.arange(21)[:, None]
    keep = np.maximum(np.arange(18)[:, None, None], np.where(p <= 16, p + 1, 1))
    b = np.arange(40)
    digit = (b - 6) >> 1  # bytes 6 + 2i and 7 + 2i: digit i and the point after it
    shown = ((b == 0) | (p >= 17) & (b >= 1) & (b < p - 14)
             | (b >= 6) & (b % 2 == 0) & (digit < keep)
             | (b % 2 == 1) & (digit == p) & (keep > p + 1))
    masks = (shown * np.uint8(255)).view(_WORD).reshape(-1, 5).T.copy()
    return (scale, threshold, slot, ~inside, point.astype(np.int16),
            exponent.astype(_WORD), digits.astype(_WORD), keep_codes, masks)


def _decimal(x: np.ndarray) -> tuple:
    """Each |x|'s 17 digits D as an int64, its slot j (k = _K_MIN + j) and
    whether the exact fallback prints it instead."""
    scale, threshold, slots, outside = _format_tables()[:4]
    a = np.abs(x)
    e = a.view(np.int64) >> 52
    j = slots[e]
    slow = outside[e] & (a != 0)
    if slow.any():
        a[slow] = 0.0
    j += a >= threshold[j]  # k is k0 or k0 + 1
    hi, lo, hh, hl = (table[j] for table in scale)
    p = a * hi  # a * hi = p + err exactly; a splits into 26 + 27 bits
    ah = (a.view(np.int64) & -(1 << 27)).view(float)
    al = a - ah
    frac = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo  # err + a * lo
    r = np.rint(frac)
    frac -= r
    slow |= np.abs(frac) > _TIE
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    up = d == 10 ** 17
    if up.any():
        d[up] = 10 ** 16
        j += up
    return d, j, slow


def _format_rows(values: np.ndarray) -> bytes:
    """A (rows, width) float block as CSV lines of ``b"%.17g" % v`` values."""
    rows, width = values.shape
    points, exponents, digits, keep_codes, masks = _format_tables()[4:]
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    d, j, slow = _decimal(x)
    # D is the lead digit and four groups of four digits.
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    g0, g2 = high // 10 ** 4, low // 10 ** 4
    groups = (g0, high - g0 * 10 ** 4, g2, low - g2 * 10 ** 4)
    code = keep_codes[0][groups[0]]
    for i in (1, 2, 3):
        np.maximum(code, keep_codes[i][groups[i]], out=code)
    code = np.add(code, points[j], dtype=np.intp)  # one index conversion, not five
    out = np.empty((rows, width, 6), _WORD)
    words = out.reshape(-1, 6)
    lead <<= 48
    lead += _WORD0
    lead |= (x.view(np.int64) >> 63) & 45  # '-'
    np.bitwise_and(lead, masks[0][code], out=words[:, 0])
    for i in range(4):
        np.bitwise_and(digits[groups[i]], masks[i + 1][code], out=words[:, i + 1])
    sep = np.full(width, 44 << 40, _WORD)
    sep[-1] = 0x0A0D << 40
    np.bitwise_or(exponents[j].reshape(rows, width), sep, out=out[:, :, 5])
    for i in np.flatnonzero(slow):
        text = b"%.17g" % x[i]
        words[i, :5] = np.frombuffer(text.ljust(40, b"\0"), _WORD)
        words[i, 5] &= 0xFFFF << 40  # the separator
    return out.tobytes().translate(None, b"\0")


def _write_rows(out, step: int, block, r0: int, r1: int) -> None:
    """Rows ``[r0, r1)`` as CSV lines, ``step`` rows per block."""
    for a in range(r0, r1, step):
        out.write(_format_rows(block(a, min(a + step, r1))))


def _table_format(table, log: TrajectoryLog) -> tuple[bytes, int, object]:
    """``table(log)``'s header line, rows per block and block.

    ``table(log)`` gives a CSV's header and ``block(r0, r1)``, which
    returns a (r1 - r0, len(header)) float array.  Every value is written
    as ``%.17g`` (so a 0/1 flag reads ``0``/``1``) with the csv module's
    CRLF line ends, about ``_BLOCK_VALUES`` values at a time.
    """
    header, block = table(log)
    return ((",".join(header) + "\r\n").encode("utf-8"),
            max(1, _BLOCK_VALUES // len(header)), block)


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
    """Each ``(head, step, block)`` table to its file in ``parts``:
    the header, then the rows up to every count of final rows in ``counts``."""
    with contextlib.ExitStack() as files:
        outs = [files.enter_context(open(tmp, "wb")) for tmp in parts]
        for out, (head, *_) in zip(outs, formats):
            out.write(head)
        done = 0
        for count in counts:
            ready = int(count)
            for out, (_, step, block) in zip(outs, formats):
                _write_rows(out, step, block, done, ready)
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
