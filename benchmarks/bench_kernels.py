"""Benchmark the numba rollout kernels against the pure-numpy fallback.

Runs each bundled scenario with every kernel that is installed and
reports the best wall time over a few repeats, in seconds and in
microseconds per integration step.  When both kernels ran (numba
imports), it also reports the speedup and the worst command-level
disagreement between the two.

Usage::

    python3 benchmarks/bench_kernels.py [--repeats 5] [--duration 10]
"""

import argparse

import numpy as np

from rigidflock import kernels
from rigidflock.engine import run
from rigidflock.scenario import bundled_scenario_path, load_scenario

SCENARIOS = ("pentagon_flock", "pentagon_intercept")
KERNELS = ("jit", "numpy") if kernels.HAS_NUMBA else ("numpy",)
LABELS = {"jit": "numba", "numpy": "numpy"}


def bench_scenario(name, repeats, duration):
    """Time one scenario under each installed kernel.

    Returns the step count, the best runtime per kernel and, when both
    kernels ran, their worst command disagreement (else None).
    """
    overrides = {} if duration is None else {"duration": duration}
    scn = load_scenario(bundled_scenario_path(name), **overrides)
    cfg = scn.to_run_config()
    results = {}
    logs = {}
    for kernel in KERNELS:
        run(scn.to_run_config(), force_kernel=kernel)  # warm-up / compile
        best = np.inf
        for _ in range(repeats):
            log = run(scn.to_run_config(), force_kernel=kernel)
            best = min(best, log.meta["runtime_s"])
            logs[kernel] = log
        results[kernel] = best
    parity = None
    if kernels.HAS_NUMBA:
        parity = float(np.abs(logs["jit"].commands - logs["numpy"].commands).max())
    steps = int(round(cfg.duration / cfg.dt))
    return steps, results, parity


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per kernel (default 5)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override scenario duration in seconds")
    args = parser.parse_args(argv)

    if not kernels.HAS_NUMBA:
        print("numba is not installed: timing the numpy kernel only")
    header = f"{'scenario':<20} {'steps':>8}" + "".join(
        f" {LABELS[k] + ' [s]':>10} {'[us/step]':>9}" for k in KERNELS)
    if kernels.HAS_NUMBA:
        header += f" {'speedup':>8} {'parity':>9}"
    print(header)
    print("-" * len(header))
    for name in SCENARIOS:
        steps, results, parity = bench_scenario(name, args.repeats,
                                                args.duration)
        line = f"{name:<20} {steps:>8d}" + "".join(
            f" {results[k]:>10.4f} {1e6 * results[k] / steps:>9.1f}"
            for k in KERNELS)
        if parity is not None:
            line += (f" {results['numpy'] / results['jit']:>7.1f}x "
                     f"{parity:>9.1e}")
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
