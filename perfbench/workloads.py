"""Seeded scenario generators, one per benchmark workload.

Every generator maps a benchmark seed to one scenario dict that the
simulator reads from a file; the same seed always gives the same dict.
The shipped pentagon scenarios are read from the checkout's source
tree, so a workload follows whatever the repository ships.

Durations are shortened from the shipped 40 s so that one run of the
CLI takes a few seconds and a measuring window holds several runs; the
per-step cost, which is what the workloads measure, does not depend on
the horizon.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SCENARIO_DIR = Path("src") / "rigidflock" / "scenarios"

# Simulated seconds per workload (see the module docstring).  Below 2 s
# the dense_log leader is not yet within 1e-2 m of the target.
DENSE_DURATION_S = 2.0
WIDE_DURATION_S = 3.0

WIDE_AGENTS = 200
WIDE_SIDE_M = 0.15
WIDE_PERTURBATION_M = 0.02


def _bundled(root: Path, name: str) -> dict:
    with open(root / SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _initial_seed(seed: int) -> int:
    """The scenario's own nonnegative initial-condition seed."""
    return int(np.random.default_rng(seed).integers(2**31 - 1))


def _reseeded(root: Path, name: str, seed: int, duration: float) -> dict:
    data = _bundled(root, name)
    data["initial"]["seed"] = _initial_seed(seed)
    data["sim"]["duration_s"] = duration
    return data


def dense_log(root: Path, seed: int) -> dict:
    """pentagon_intercept writing one output row per integration step."""
    data = _reseeded(root, "pentagon_intercept", seed, DENSE_DURATION_S)
    data["name"] = "dense_log"
    data["sim"]["sample_every"] = 1
    return data


def henneberg_formation(n: int, rng: np.random.Generator,
                        side: float = WIDE_SIDE_M):
    """A minimally rigid planar framework grown by Henneberg type-I steps.

    Starts from a triangle and adds each further node with edges to the
    two ends of an existing edge, so the graph has 2n - 3 edges and,
    for generic positions, is minimally infinitesimally rigid.  The new
    node goes on the outward side of its base edge, picked among a few
    random candidate edges as the one farthest from every placed node,
    so the formation spreads out instead of piling up.  Returns
    (positions (n, 2), edges as sorted 1-based pairs).
    """
    if n < 3:
        raise ValueError("a Henneberg formation needs n >= 3")
    pos = np.zeros((n, 2))
    pos[1] = (side, 0.0)
    pos[2] = (0.5 * side, 0.5 * np.sqrt(3.0) * side)
    pos[:3] += rng.normal(scale=0.05 * side, size=(3, 2))
    edges = [(0, 1), (0, 2), (1, 2)]
    for k in range(3, n):
        centroid = pos[:k].mean(axis=0)
        best, best_gap = None, -1.0
        for c in rng.integers(len(edges), size=8):
            i, j = edges[c]
            mid = 0.5 * (pos[i] + pos[j])
            d = pos[j] - pos[i]
            half = 0.5 * float(np.hypot(*d))
            normal = np.array([-d[1], d[0]]) / (2.0 * half)
            if normal @ (mid - centroid) < 0:
                normal = -normal
            height = np.sqrt(max(side**2 - half**2, (0.5 * side) ** 2))
            apex = mid + height * normal + rng.normal(scale=0.1 * side, size=2)
            gap = float(np.min(np.hypot(*(pos[:k] - apex).T)))
            if gap > best_gap:
                best, best_gap = (i, j, apex), gap
        i, j, apex = best
        pos[k] = apex
        edges += [(i, k), (j, k)]
    pairs = sorted((min(i, j) + 1, max(i, j) + 1) for i, j in edges)
    return pos, pairs


def wide_formation(root: Path, seed: int) -> dict:
    """A seeded 200-agent Henneberg flock on pentagon_flock's gains."""
    rng = np.random.default_rng(seed)
    pos, pairs = henneberg_formation(WIDE_AGENTS, rng)
    pos -= pos.mean(axis=0)
    data = _bundled(root, "pentagon_flock")
    data.update(
        name="wide_formation",
        notes=f"{WIDE_AGENTS}-agent Henneberg type-I formation",
        agents=WIDE_AGENTS,
        edges=[list(e) for e in pairs],
        target_positions_m=pos.tolist(),
    )
    data["initial"] = {"seed": _initial_seed(seed),
                       "perturbation_radius_m": WIDE_PERTURBATION_M}
    data["sim"]["duration_s"] = WIDE_DURATION_S
    # One row holds ~2,200 values at n = 200; sparse rows keep the writers
    # from hiding the per-edge rollout cost this workload exists for.
    data["sim"]["sample_every"] = 100
    return data


GENERATORS = {
    "dense_log": dense_log,
    "wide_formation": wide_formation,
}
