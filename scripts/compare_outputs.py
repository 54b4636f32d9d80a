"""Compare the simulator's output files at a git revision with the working tree's.

Usage::

    python scripts/compare_outputs.py [REV]   # REV defaults to HEAD

Extracts ``git archive REV`` into a temporary directory and runs one
matrix of ``rigidflock simulate`` runs in both trees, each tree on its
own ``src/`` and its own scenario files:

- full runs of both bundled scenarios, with ``--kernel auto`` and with
  ``--kernel numpy``;
- perfbench's ``dense_log`` and ``wide_formation`` workloads at seeds
  1-3, generated by each tree's ``perfbench/workloads.py``.

For each output file it prints "identical", or the largest absolute
difference of every column (``summary.json``: every key) that differs.
``summary.json``'s ``runtime_s`` is wall time and is left out.  Exits 0
when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from output_records import numbers, read_csv  # noqa: E402  (tests/ is no package)

BUNDLED = ("pentagon_flock", "pentagon_intercept")
WORKLOADS = ("dense_log", "wide_formation")
SEEDS = (1, 2, 3)
FILES = ("trajectory.csv", "metrics.csv", "summary.json")


def matrix(tree: Path, scratch: Path) -> list[tuple[str, Path, str]]:
    """(run name, scenario file, kernel) of every run, for ``tree``."""
    runs = [(f"{name}-{kernel}", tree / "src" / "rigidflock" / "scenarios" / f"{name}.json",
             kernel) for name in BUNDLED for kernel in ("auto", "numpy")]
    spec = importlib.util.spec_from_file_location(
        f"workloads_{scratch.name}", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in WORKLOADS:
        for seed in SEEDS:
            path = scratch / f"{name}-{seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(workloads.GENERATORS[name](tree, seed), fh, indent=2)
            runs.append((f"{name}-{seed}", path, "auto"))
    return runs


def run_all(tree: Path, scratch: Path) -> dict[str, Path]:
    """Run the matrix with ``tree``'s sources; the output directory of each run."""
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    outs = {}
    for name, scenario, kernel in matrix(tree, scratch):
        out = scratch / name
        subprocess.run([sys.executable, "-m", "rigidflock.cli", "simulate", str(scenario),
                        "--out", str(out), "--kernel", kernel],
                       env=env, cwd=tree, check=True, stdout=subprocess.DEVNULL)
        outs[name] = out
    return outs


def csv_differences(a: Path, b: Path) -> list[str]:
    (head, x), (other_head, y) = read_csv(a), read_csv(b)
    if head != other_head:
        return ["headers differ"]
    if x.shape != y.shape:
        return [f"shapes differ: {x.shape} against {y.shape}"]
    diff = np.abs(x - y)
    diff[np.isnan(x) & np.isnan(y)] = 0.0
    worst = diff.max(axis=0, initial=0.0)
    return [f"{head[c]} {worst[c]:.3g}" for c in np.flatnonzero(worst != 0)] or [
        "bytes differ, values equal"]


def summary_differences(a: Path, b: Path) -> list[str]:
    """Every number of two summaries that differs (``runtime_s`` aside), and
    every top-level text field."""
    x, y = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    nx, ny = numbers(x), numbers(y)
    out = [f"{key}: in one summary only" for key in sorted(nx.keys() ^ ny.keys())]
    for key in sorted(nx.keys() & ny.keys()):
        u, v = nx[key], ny[key]
        if u != v and not (math.isnan(u) and math.isnan(v)):
            out.append(f"{key} {abs(u - v):.3g}")
    for key in sorted(x.keys() | y.keys()):
        u, v = x.get(key), y.get(key)
        if str in (type(u), type(v)) and u != v:
            out.append(f"{key}: {u!r} against {v!r}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        old, new = run_all(base, tmp / "old"), run_all(ROOT, tmp / "new")
        same = True
        for name in old:
            for file in FILES:
                a, b = old[name] / file, new[name] / file
                if a.read_bytes() == b.read_bytes():
                    found = []
                elif file == "summary.json":
                    found = summary_differences(a, b)
                else:
                    found = csv_differences(a, b)
                same &= not found
                print(f"{name}/{file}: " + ("identical" if not found
                                            else "max |diff| " + ", ".join(found)))
    print(f"{args.rev} against the working tree: "
          + ("every file identical" if same else "outputs differ"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
