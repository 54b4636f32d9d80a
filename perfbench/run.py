"""Layered benchmark of ``rigidflock simulate``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense_log --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the benchmark times the real CLI as child processes
(``python -m rigidflock.cli simulate`` with ``PYTHONPATH=src``), one at a
time: each round is ``SETUPS_PER_ROUND`` set-up runs (``--duration 0``)
followed by one full run, repeated until ``--seconds`` is spent.  It reports medians of
``wall_s``, ``setup_s``, ``cpu_s`` and ``peak_rss_mb``.  With
``--trace 1`` it instead calls ``cli.main`` in this process, alternating
untraced runs with runs whose layer functions are wrapped in span
recorders, and reports per-layer self times and counts.

Every run's outputs are checked (see ``check_outputs``); the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3
# Set-up runs are short, so each round takes several to steady setup_s.
SETUPS_PER_ROUND = 3
# Child runs are killed after this long; a healthy one takes seconds.
CHILD_TIMEOUT_S = 60.0

# Physical acceptance, from the closed loop's behaviour over the
# shortened horizon rather than from bitwise references: the largest edge
# error must shrink below this share of its initial value, and in
# intercept mode (dense_log) the leader must be within criterion 7's 1e-2 m
# of the target.  Over 16-40 seeds per workload the shipped code stayed
# below half of each bound (worst edge ratios 0.33-0.50, worst target
# error 5.8e-3 m at the dense_log horizon).
EDGE_CONTRACTION = 0.7
TARGET_ERROR_M = 1e-2

OUTPUTS = ("trajectory.csv", "metrics.csv", "summary.json")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def expected_rows(data: dict) -> int:
    sim = data["sim"]
    return int(round(sim["duration_s"] / sim["dt_s"])) // sim.get("sample_every", 1) + 1


def run_child(argv: list[str], env: dict, log_path: Path) -> dict:
    """One ``python -m rigidflock.cli`` child: exit code, wall, CPU, peak RSS.

    CPU is the child's user + system time and peak RSS its ``ru_maxrss``,
    both from ``os.wait4``.
    """
    with open(log_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rigidflock.cli", *argv],
                                cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def file_digest(path: Path) -> tuple[str, int]:
    """SHA-256 and line count of one output file."""
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def check_outputs(outdir: Path, rows: int, *,
                  physics: bool) -> tuple[list[str], dict, tuple]:
    """Problems found in one run's outputs, its summary and its CSV digests.

    Checks that all three files exist, that both CSVs hold a header plus
    ``rows`` rows, that the summary names a kernel and, for a full run,
    the physical tolerance of ``EDGE_CONTRACTION``/``TARGET_ERROR_M``.
    """
    missing = [f for f in OUTPUTS if not (outdir / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"], {}, ()
    problems = []
    try:
        with open(outdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except ValueError as exc:
        return [f"summary.json: {exc}"], {}, ()
    digests = tuple(file_digest(outdir / f) for f in OUTPUTS[:2])
    for name, (_, lines) in zip(OUTPUTS, digests):
        if lines != rows + 1:
            problems.append(f"{name}: {lines} lines, expected {rows + 1}")
    if summary.get("rows") != rows:
        problems.append(f"summary rows {summary.get('rows')} != {rows}")
    if summary.get("kernel") not in ("numpy", "numba"):
        problems.append(f"summary kernel {summary.get('kernel')!r}")
    if physics:
        e0 = summary.get("max_edge_error_initial", math.nan)
        e1 = summary.get("final_max_edge_error", math.nan)
        bound = EDGE_CONTRACTION * e0
        if not (math.isfinite(e1) and e1 < bound):
            problems.append(f"final edge error {e1:.3e} m not below {bound:.3e} m")
        if summary.get("mode") == "intercept":
            et = summary.get("final_e_t_norm", math.nan)
            if not (math.isfinite(et) and et < TARGET_ERROR_M):
                problems.append(f"final target error {et:.3e} m not below "
                                f"{TARGET_ERROR_M:g} m")
    return problems, summary, tuple(d for d, _ in digests)


class Run:
    """State of one benchmark invocation: inputs, work dir and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        data = workloads.GENERATORS[workload](ROOT, seed)
        self.work = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.scenario = self.work / "scenario.json"
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        self.rows = expected_rows(data)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: tuple | None = None
        self.kernels: set[str] = set()

    def cli_args(self, outdir: Path, *extra: str) -> list[str]:
        return ["simulate", str(self.scenario), "--out", str(outdir), *extra]

    def record(self, label: str, problems: list[str], summary: dict,
               digests: tuple, *, full: bool) -> None:
        """Count one attempt; compare a full run's CSVs with the first one."""
        self.attempted += 1
        if summary.get("kernel"):
            self.kernels.add(summary["kernel"])
        if full and digests:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems = problems + ["CSV bytes differ from the first same-seed run"]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def certify(self) -> None:
        """check-rigidity must accept the generated formation (exit 0)."""
        res = run_child(["check-rigidity", str(self.scenario)],
                        self.env, self.work / "check.err")
        if res["rc"] != 0:
            fail(f"check-rigidity rejected the {self.workload} formation "
                 f"(exit {res['rc']}): {(self.work / 'check.err').read_text()[-2000:]}")

    def child(self, label: str, outdir: Path, *extra: str, full: bool) -> dict:
        err = self.work / "child.err"
        res = run_child(self.cli_args(outdir, *extra), self.env, err)
        rows = self.rows if full else 1
        if res["rc"] != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            self.record(label, [f"exit {res['rc']} {' '.join(tail)}"], {}, (), full=full)
        else:
            self.record(label, *check_outputs(outdir, rows,
                                              physics=full), full=full)
        return res

    def end_to_end(self) -> dict:
        """Rounds of (set-up runs, full run) until the time is spent."""
        setup_dir, full_dir = self.work / "setup", self.work / "full"
        # Untimed and unchecked: it only brings the interpreter, numpy and
        # the sources into the file cache.
        run_child(self.cli_args(setup_dir, "--duration", "0"), self.env,
                  self.work / "warm-up.err")
        setups: list[dict] = []
        fulls: list[dict] = []
        t0 = time.perf_counter()
        while True:
            k = len(fulls)
            setups += [self.child(f"setup {k}.{j}", setup_dir, "--duration", "0",
                                  full=False) for j in range(SETUPS_PER_ROUND)]
            fulls.append(self.child(f"run {k}", full_dir, full=True))
            spent = time.perf_counter() - t0
            if len(fulls) >= MIN_ROUNDS and spent * (1 + 1 / len(fulls)) > self.seconds:
                break
        return {
            "wall_s": [f["wall"] for f in fulls],
            "setup_s": [s["wall"] for s in setups],
            "cpu_s": [f["cpu"] for f in fulls],
            "peak_rss_mb": [f["rss_mb"] for f in fulls],
        }

    def traced(self) -> dict:
        """In-process untraced/traced pairs until the time is spent."""
        from rigidflock import cli

        walls: list[float] = []
        layers: list[dict] = []
        evals: list[float] = []
        step_eval = eval_closure(self.scenario)
        t0 = time.perf_counter()
        outdir = self.work / "inproc"
        while True:
            k = len(walls)
            tic = time.perf_counter()
            rc = quiet_main(cli, self.cli_args(outdir))
            walls.append(time.perf_counter() - tic)
            self.record_inproc(f"untraced {k}", rc, outdir)
            tracer = tracing.Tracer()
            install(tracer)
            try:
                tic = time.perf_counter()
                rc = quiet_main(cli, self.cli_args(outdir), tracer)
                wall = time.perf_counter() - tic
            finally:
                tracer.restore()
            summary = self.record_inproc(f"traced {k}", rc, outdir)
            layers.append(layer_metrics(tracer, wall, summary, outdir))
            evals += time_calls(step_eval)
            spent = time.perf_counter() - t0
            if len(layers) >= 2 and spent * (1 + 1 / len(layers)) > self.seconds:
                break
        out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        out["kernels.eval_us"] = 1e6 * statistics.median(evals)
        out["kernels.driver_us_per_step"] = out["kernels.us_per_step"] - out["kernels.eval_us"]
        out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls)
        return out

    def record_inproc(self, label: str, rc: int, outdir: Path) -> dict:
        if rc != 0:
            self.record(label, [f"cli.main returned {rc}"], {}, (), full=True)
            return {}
        problems, summary, digests = check_outputs(outdir, self.rows,
                                                   physics=True)
        self.record(label, problems, summary, digests, full=True)
        return summary


def quiet_main(cli, argv: list[str], tracer: tracing.Tracer | None = None) -> int:
    """``cli.main(argv)`` with its one-line report kept off our stdout."""
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# Layer boundaries: (module, attribute, span name).  Each attribute is
# the one its caller looks the function up through at call time.
SPANS = (
    ("cli", "load_scenario", "scenario.load"),
    ("rigidity", "is_minimally_rigid", "rigidity.validate"),
    ("scenario.Scenario", "to_run_config", "scenario.to_run_config"),
    ("engine", "run", "engine.run"),
    ("kernels", "flock_rollout", "kernels.rollout"),
    ("kernels", "intercept_rollout", "kernels.rollout"),
    ("engine", "metrics", "engine.metrics"),
    ("engine", "hull_containment", "engine.hull"),
    ("cli", "write_trajectory_csv", "cli.trajectory_csv"),
    ("cli", "write_metrics_csv", "cli.metrics_csv"),
    ("cli", "build_summary", "cli.summary"),
)
HULL_TEST_OWNERS = ("engine", "scenario")


def _resolve(path: str):
    mod, _, attr = path.partition(".")
    obj = importlib.import_module(f"rigidflock.{mod}")
    return getattr(obj, attr) if attr else obj


def install(tracer: tracing.Tracer) -> None:
    """Wrap every layer boundary, or exit with code 2 if one is missing.

    A layer that can no longer be wrapped would read 0, which looks like
    a large gain; the benchmark refuses to report it instead.
    """
    missing = [f"{owner}.{attr}" for owner, attr, name in SPANS
               if not tracer.patch(_resolve(owner), attr, name)]
    trajectories = _resolve("trajectories")
    if not sum(tracer.patch(obj, "sample", "trajectories.sample")
               for obj in vars(trajectories).values()
               if isinstance(obj, type) and obj.__module__ == trajectories.__name__):
        missing.append("trajectories.*.sample")
    missing += [f"{owner}.convex_hull_contains" for owner in HULL_TEST_OWNERS
                if not tracer.patch(_resolve(owner), "convex_hull_contains",
                                    "interception.hull_tests", count_only=True)]
    if missing:
        tracer.restore()
        fail(f"cannot wrap {', '.join(missing)}; update SPANS in perfbench/run.py")


def layer_metrics(tracer: tracing.Tracer, wall: float, summary: dict,
                  outdir: Path) -> dict:
    """Per-layer numbers of one traced run (everything but eval timing)."""
    spans = tracer.spans
    agg = tracing.layer_totals(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    steps = summary.get("n_steps", 0)
    rows = summary.get("rows", 0)
    rollout = get("kernels.rollout", "total")
    writers = get("cli.trajectory_csv", "self") + get("cli.metrics_csv", "self")
    attributed = sum(v["self"] for k, v in agg.items() if k != "cli.main")
    return {
        "scenario.load_s": get("scenario.load", "self"),
        "rigidity.validate_s": get("rigidity.validate", "total"),
        "scenario.to_run_config_s": get("scenario.to_run_config", "total"),
        "trajectories.sample_s": get("trajectories.sample", "total"),
        "kernels.rollout_s": rollout,
        "kernels.steps": steps,
        "kernels.us_per_step": 1e6 * rollout / steps if steps else 0.0,
        "engine.run_self_s": get("engine.run", "self"),
        "engine.metrics_self_s": get("engine.metrics", "self"),
        "engine.hull_s": get("engine.hull", "total"),
        "engine.hull_calls": get("engine.hull", "calls"),
        "interception.hull_tests": tracer.counts["interception.hull_tests"],
        "cli.trajectory_csv_s": get("cli.trajectory_csv", "self"),
        "cli.metrics_csv_s": get("cli.metrics_csv", "self"),
        "cli.summary_s": get("cli.summary", "self"),
        "cli.rows": rows,
        "cli.bytes_written": sum((outdir / f).stat().st_size for f in OUTPUTS),
        "cli.us_per_row": 1e6 * writers / rows if rows else 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
    }


def eval_closure(scenario_path: Path):
    """One vectorized step evaluation on the workload's initial state."""
    from rigidflock import kernels
    from rigidflock.engine import initial_state
    from rigidflock.scenario import load_scenario

    cfg = load_scenario(scenario_path).to_run_config()
    w = initial_state(cfg)
    if cfg.mode == "flock":
        _, v0, _ = cfg.signal.state(0.0)
        fn = kernels.flock_eval
        args = (w.poses, w.v_f_hat, v0, cfg._edges, cfg._d2, cfg.access_flags,
                cfg.k_a, cfg.c, cfg.alpha, cfg.anchor_sign, cfg.smoothing_epsilon)
    else:
        pt, vt, at = cfg.signal.state(0.0)
        fn = kernels.intercept_eval
        args = (w.poses, w.v_t_hat, w.e_t_hat, pt, vt, at, cfg._edges, cfg._d2,
                cfg.leader - 1, cfg.k_a, cfg.k_t, cfg.c, cfg.alpha1, cfg.alpha2,
                cfg.smoothing_epsilon)
    return lambda: fn(*args)


def time_calls(fn, batches: int = 5, calls: int = 50) -> list[float]:
    """Seconds per call of ``fn``, one figure per batch of ``calls`` calls."""
    fn()
    out = []
    for _ in range(batches):
        tic = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter() - tic) / calls)
    return out


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    import numpy

    from rigidflock import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "has_numba": kernels.HAS_NUMBA,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rigidflock" / "cli.py").is_file():
        fail(f"no rigidflock sources under {SRC}; run from a checkout's root")

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(SRC))
    env = environment()
    env["loadavg_before"] = loadavg()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.certify()
        if args.trace:
            values, samples = run.traced(), {}
        else:
            samples = run.end_to_end()
            values = {k: statistics.median(v) for k, v in samples.items()}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    env["loadavg_after"] = loadavg()
    expect = "numba" if env["has_numba"] and os.environ.get("RIGIDFLOCK_NUMBA", "1") != "0" \
        else "numpy"
    env["summary_kernel"] = sorted(run.kernels)
    env["kernel_mismatch"] = run.kernels != {expect}

    if set(values) != set(declared):
        fail(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}")
    report = {k: (values[k], unit) for k, unit in declared.items()}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in report.items():
        line = f"{name:28s} {value:14.6g} {unit}"
        if name in samples:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            line += f"   (median of {len(samples[name])}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    failed = len(run.failures)
    print(f"{'failed_share':28s} {failed / run.attempted:14.6g} ratio "
          f"({failed} of {run.attempted} runs)")
    for msg in run.failures:
        print(f"# FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
