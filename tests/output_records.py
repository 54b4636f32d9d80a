"""Output records: a few short CLI runs, kept as reference values.

Each record holds every ``EVERY``-th row of a run's ``trajectory.csv``
and ``metrics.csv`` and the numbers of its ``summary.json`` except
``runtime_s``, under ``tests/records/<run>-<kernel>/``.
``tests/test_records.py`` re-runs each one and compares it with its
record to ``ATOL`` absolute, the tolerance CI's form-parity step uses.
Exact bytes are not recorded: the reference signal is sampled with
numpy's ``sin``/``cos``, whose last bits may differ between CPUs.

Regenerate every record (a change whose outputs move must do so and say
why) with::

    PYTHONPATH=src python tests/output_records.py

The 12-agent formation is written once, by perfbench's apex-placing
``henneberg_formation``, and then kept: a record always belongs to the
scenario file beside it.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORDS = Path(__file__).resolve().parent / "records"
EVERY = 50
ATOL = 1e-9
CSVS = ("trajectory.csv", "metrics.csv")
KERNELS = ("auto", "numpy")
HENNEBERG_AGENTS = 12
# Each record's run: its name, duration in s and kernels.  A name that is
# not a bundled scenario is a scenario file under RECORDS.  The 12-agent
# formation has 21 edges, more than kernels.LIST_MAX_EDGES, so without
# numba "auto" runs the law form too and would repeat the numpy record.
# The bundled scenarios use the plain sign; the smoothed pentagon runs
# the loop form's smoothed-sign branch.
RUNS = {"pentagon_flock": (4.0, KERNELS), "pentagon_intercept": (2.0, KERNELS),
        "henneberg12_flock": (4.0, ("numpy",)),
        "pentagon_intercept_smoothed": (2.0, ("auto",))}
RECORDED = [(name, kernel) for name, (_, kernels) in RUNS.items() for kernel in kernels]


def scenario_path(name: str) -> Path:
    from rigidflock.scenario import bundled_scenario_path

    path = RECORDS / f"{name}.json"
    return path if path.exists() else Path(bundled_scenario_path(name))


def numbers(tree, prefix: str = "") -> dict:
    """The numeric leaves of a JSON tree by their dotted path, without
    ``runtime_s`` (wall time)."""
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else None)
    if items is None:
        return {prefix: tree} if isinstance(tree, (int, float)) else {}
    out = {}
    for key, value in items:
        if key != "runtime_s":
            out.update(numbers(value, f"{prefix}{'.' if prefix else ''}{key}"))
    return out


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def simulate(name: str, kernel: str, outdir: Path) -> dict:
    """Run ``name`` through the CLI into ``outdir``; return what its record holds."""
    from rigidflock import cli

    status = cli.main(["simulate", str(scenario_path(name)), "--out", str(outdir),
                       "--duration", repr(RUNS[name][0]), "--kernel", kernel])
    if status != cli.EXIT_OK:
        raise RuntimeError(f"{name} --kernel {kernel} exited {status}")
    record = {}
    for csv in CSVS:
        header, rows = read_csv(outdir / csv)
        record[csv] = header, rows[::EVERY]
    with open(outdir / "summary.json", encoding="utf-8") as fh:
        record["summary.json"] = numbers(json.load(fh))
    return record


def record_dir(name: str, kernel: str) -> Path:
    return RECORDS / f"{name}-{kernel}"


def read_record(name: str, kernel: str) -> dict:
    where = record_dir(name, kernel)
    record = {csv: read_csv(where / csv) for csv in CSVS}
    with open(where / "summary.json", encoding="utf-8") as fh:
        record["summary.json"] = json.load(fh)
    return record


def write_record(name: str, kernel: str, record: dict) -> None:
    where = record_dir(name, kernel)
    where.mkdir(parents=True, exist_ok=True)
    for csv in CSVS:
        header, rows = record[csv]
        np.savetxt(where / csv, rows, fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
    with open(where / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(record["summary.json"], fh, indent=1)
        fh.write("\n")


def _differs(got, want) -> bool:
    """True unless both are nan or within ATOL."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) != math.isnan(want)
    return not abs(got - want) <= ATOL


def compare(got: dict, want: dict) -> list[str]:
    """One line per file of ``got`` that differs from the record ``want``:
    its first differing row and column, or what else differs."""
    problems = []
    for csv in CSVS:
        (head, rows), (want_head, want_rows) = got[csv], want[csv]
        if head != want_head or rows.shape != want_rows.shape:
            problems.append(f"{csv}: header or shape differs: {len(head)} columns, "
                            f"{rows.shape} rows against {len(want_head)}, "
                            f"{want_rows.shape} in the record")
            continue
        for (r, c), value in np.ndenumerate(rows):
            value, wanted = float(value), float(want_rows[r, c])
            if _differs(value, wanted):
                problems.append(
                    f"{csv}: first difference at row {r * EVERY}, column {head[c]}: "
                    f"{value!r} against {wanted!r} in the record")
                break
    nums, want_nums = got["summary.json"], want["summary.json"]
    if nums.keys() != want_nums.keys():
        problems.append("summary.json: keys differ: "
                        f"{sorted(nums.keys() ^ want_nums.keys())}")
    else:
        for key, value in nums.items():
            if _differs(value, want_nums[key]):
                problems.append(f"summary.json: first difference at {key}: "
                                f"{value!r} against {want_nums[key]!r} in the record")
                break
    return problems


def write_henneberg_scenario(path: Path, seed: int = HENNEBERG_AGENTS) -> None:
    """A well-conditioned Henneberg flock on pentagon_flock's gains."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import _bundled, henneberg_formation

    pos, pairs = henneberg_formation(HENNEBERG_AGENTS, np.random.default_rng(seed))
    pos -= pos.mean(axis=0)
    data = _bundled(ROOT, "pentagon_flock")
    data.update(name=path.stem, agents=HENNEBERG_AGENTS,
                notes=f"{HENNEBERG_AGENTS}-agent Henneberg type-I flock, apex-placed by "
                      f"perfbench henneberg_formation(n, default_rng({seed})), "
                      "on pentagon_flock's gains",
                edges=[list(e) for e in pairs], target_positions_m=pos.tolist())
    data["initial"] = {"seed": seed, "perturbation_radius_m": 0.02}
    data["sim"]["duration_s"] = RUNS[path.stem][0]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main() -> None:
    RECORDS.mkdir(exist_ok=True)
    henneberg = RECORDS / "henneberg12_flock.json"
    if not henneberg.exists():
        write_henneberg_scenario(henneberg)
    for name, kernel in RECORDED:
        with tempfile.TemporaryDirectory() as tmp:
            write_record(name, kernel, simulate(name, kernel, Path(tmp)))
        print(f"wrote {record_dir(name, kernel).relative_to(ROOT)}")


if __name__ == "__main__":
    main()
