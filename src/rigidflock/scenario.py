"""Scenario files: schema, validation, seeding, RunConfig conversion.

A scenario JSON fixes the mode ("flock" or "intercept"), the target
formation (graph + embedded positions, optionally explicit distances),
gains, the reference signal (flocking velocity or moving target),
initial conditions (explicit poses or seed + perturbation radius), and
integration parameters.  Field names carry SI suffixes (``_m``,
``_s``, ``_mps``, ``_radps``) where they denote physical quantities.

Validation failures raise ScenarioError with the offending field path;
soft conditions (observer gain bounds) only log warnings to stderr.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .engine import RunConfig
from .flocking import FlockingGains
from .graph import Graph
from .interception import InterceptionGains, convex_hull_contains
from .observers import gain_check
from .rigidity import Framework, TargetFormation, edge_function
from .trajectories import make_trajectory, trajectory_to_dict

logger = logging.getLogger("rigidflock.scenario")

HULL_TOL = 1e-9

_KNOWN_KEYS = {
    "name", "mode", "notes", "agents", "edges", "target_positions_m",
    "target_distances_m", "gains", "flock_velocity", "v0_access", "gamma0",
    "target", "gamma_t1", "gamma_t2", "anchor_sign", "smoothing_epsilon",
    "initial", "sim",
}


class ScenarioError(ValueError):
    """A scenario failed validation; the message names the field."""


def _fail(pointer: str, msg: str):
    raise ScenarioError(f"{pointer}: {msg}")


def _need(data: dict, key: str, pointer: str = ""):
    if key not in data:
        _fail(pointer + key, "missing required field")
    return data[key]


@dataclass
class Scenario:
    """A fully validated simulation setup."""

    name: str
    mode: str
    notes: str
    graph: Graph
    target: TargetFormation
    signal: object
    gains: object
    dt: float
    duration: float
    sample_every: int
    anchor_sign: float
    smoothing_epsilon: float
    initial_poses: np.ndarray
    raw_initial: dict
    seed: int | None
    # flock mode
    v0_access: tuple[int, ...] = ()
    gamma0: float = 0.0
    initial_v_f_hat: np.ndarray | None = None
    # intercept mode
    gamma_t1: float = 0.0
    gamma_t2: float = 0.0
    initial_v_t_hat: np.ndarray | None = None
    initial_e_t_hat: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def leader(self) -> int:
        return self.graph.n

    def to_run_config(self) -> RunConfig:
        common = dict(
            mode=self.mode,
            graph=self.graph,
            distances=self.target.distances,
            initial_poses=self.initial_poses,
            signal=self.signal,
            dt=self.dt,
            duration=self.duration,
            sample_every=self.sample_every,
            k_a=self.gains.k_a,
            c=self.gains.c,
            smoothing_epsilon=self.smoothing_epsilon,
            target_positions=self.target.framework.positions,
        )
        if self.mode == "flock":
            flags = np.zeros(self.n)
            flags[[i - 1 for i in self.v0_access]] = 1.0
            return RunConfig(alpha=self.gains.alpha, access_flags=flags,
                             anchor_sign=self.anchor_sign,
                             initial_v_f_hat=self.initial_v_f_hat, **common)
        return RunConfig(k_t=self.gains.k_t, alpha1=self.gains.alpha1,
                         alpha2=self.gains.alpha2,
                         initial_v_t_hat=self.initial_v_t_hat,
                         initial_e_t_hat=self.initial_e_t_hat, **common)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "mode": self.mode,
            "notes": self.notes,
            "agents": self.n,
            "edges": [list(e) for e in self.graph.edges],
            "target_positions_m": self.target.framework.positions.tolist(),
            "target_distances_m": self.target.distances.tolist(),
            "anchor_sign": self.anchor_sign,
            "smoothing_epsilon": self.smoothing_epsilon,
            "initial": dict(self.raw_initial),
            "sim": {"dt_s": self.dt, "duration_s": self.duration,
                    "sample_every": self.sample_every},
        }
        if self.mode == "flock":
            d["gains"] = {"k_a": self.gains.k_a, "c": self.gains.c.tolist(),
                          "alpha": self.gains.alpha}
            d["flock_velocity"] = trajectory_to_dict(self.signal)
            d["v0_access"] = list(self.v0_access)
            d["gamma0"] = self.gamma0
        else:
            d["gains"] = {"k_a": self.gains.k_a, "c": self.gains.c.tolist(),
                          "k_t": self.gains.k_t, "alpha1": self.gains.alpha1,
                          "alpha2": self.gains.alpha2}
            d["target"] = trajectory_to_dict(self.signal)
            d["gamma_t1"] = self.gamma_t1
            d["gamma_t2"] = self.gamma_t2
        return d

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _seeded_poses(anchor: np.ndarray, seed: int, radius: float) -> np.ndarray:
    """Anchor positions perturbed uniformly on a disk; headings uniform."""
    n = anchor.shape[0]
    rng = np.random.default_rng(seed)
    rr = radius * np.sqrt(rng.uniform(size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    theta = rng.uniform(-np.pi, np.pi, size=n)
    poses = np.zeros((n, 3))
    poses[:, 0] = anchor[:, 0] + rr * np.cos(ang)
    poses[:, 1] = anchor[:, 1] + rr * np.sin(ang)
    poses[:, 2] = theta
    return poses


def _parse_array(value, shape, pointer: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        _fail(pointer, "must be a numeric array")
    if arr.shape != shape:
        _fail(pointer, f"must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(pointer, "entries must be finite")
    return arr


def _positive(value, pointer: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        _fail(pointer, "must be a number")
    if not (np.isfinite(x) and x > 0):
        _fail(pointer, f"must be positive, got {value!r}")
    return x


def scenario_from_dict(data: dict, *, duration: float | None = None,
                       dt: float | None = None,
                       seed: int | None = None) -> Scenario:
    """Validate a scenario dict; optional CLI-style overrides."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a JSON object")
    for key in data:
        if key not in _KNOWN_KEYS:
            logger.warning("scenario: ignoring unknown field %r", key)
    mode = _need(data, "mode")
    if mode not in ("flock", "intercept"):
        _fail("mode", f"must be 'flock' or 'intercept', got {mode!r}")
    name = str(data.get("name", "scenario"))
    notes = str(data.get("notes", ""))

    n = _need(data, "agents")
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        _fail("agents", f"must be an integer >= 3, got {n!r}")
    edges = _need(data, "edges")
    try:
        graph = Graph(n, [tuple(e) for e in edges])
    except (TypeError, ValueError) as exc:
        _fail("edges", str(exc))

    pos = _parse_array(_need(data, "target_positions_m"), (n, 2),
                       "target_positions_m")
    try:
        fw = Framework(graph, pos)
        if "target_distances_m" in data:
            dists = _parse_array(data["target_distances_m"],
                                 (graph.edge_count,), "target_distances_m")
        else:
            dists = np.sqrt(edge_function(fw))
        target = TargetFormation(fw, dists)
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail("target_positions_m", str(exc))

    gains_d = _need(data, "gains")
    if not isinstance(gains_d, dict):
        _fail("gains", "must be an object")
    k_a = _positive(gains_d.get("k_a"), "gains.k_a")
    c_raw = gains_d.get("c")
    if c_raw is None:
        _fail("gains.c", "missing required field")
    c_arr = np.atleast_1d(np.array(c_raw, dtype=float))
    if c_arr.size == 1:
        c_arr = np.full(n, float(c_arr[0]))
    if c_arr.shape != (n,):
        _fail("gains.c", f"must be a scalar or length-{n} list")

    sim = _need(data, "sim")
    if not isinstance(sim, dict):
        _fail("sim", "must be an object")
    dt_val = _positive(sim.get("dt_s") if dt is None else dt, "sim.dt_s")
    dur_raw = sim.get("duration_s") if duration is None else duration
    try:
        dur_val = float(dur_raw)
    except (TypeError, ValueError):
        _fail("sim.duration_s", "must be a number")
    if not (np.isfinite(dur_val) and dur_val >= 0):
        _fail("sim.duration_s", f"must be >= 0, got {dur_raw!r}")
    se = sim.get("sample_every", 1)
    if not isinstance(se, int) or isinstance(se, bool) or se < 1:
        _fail("sim.sample_every", f"must be an integer >= 1, got {se!r}")
    if dt_val * float(c_arr.max()) >= 1.0:
        _fail("sim.dt_s", f"dt * max(c) = {dt_val * float(c_arr.max()):g} "
                          "must be < 1 for a stable heading loop")

    anchor_sign = float(data.get("anchor_sign", 1.0))
    if anchor_sign not in (1.0, -1.0):
        _fail("anchor_sign", "must be +1 or -1")
    smoothing = float(data.get("smoothing_epsilon", 0.0))
    if smoothing < 0 or not np.isfinite(smoothing):
        _fail("smoothing_epsilon", "must be >= 0")

    # --- mode-specific blocks -------------------------------------------
    if mode == "flock":
        try:
            signal = make_trajectory(_need(data, "flock_velocity"))
        except ValueError as exc:
            _fail("flock_velocity", str(exc))
        alpha = _positive(gains_d.get("alpha"), "gains.alpha")
        try:
            gains = FlockingGains(k_a, c_arr, alpha)
        except ValueError as exc:
            _fail("gains", str(exc))
        access = _need(data, "v0_access")
        if (not isinstance(access, list) or not access
                or len(set(access)) != len(access)
                or any(not isinstance(i, int) or isinstance(i, bool)
                       or not 1 <= i <= n for i in access)):
            _fail("v0_access", f"must be a nonempty list of distinct agent ids in 1..{n}")
        gamma0 = float(data.get("gamma0", signal.sup_accel()))
        if gamma0 < 0 or not np.isfinite(gamma0):
            _fail("gamma0", "must be >= 0")
        if not gain_check(alpha, gamma0):
            logger.warning(
                "gains.alpha = %g does not dominate gamma0 = %g; "
                "finite-time velocity estimation is not guaranteed", alpha, gamma0)
        model_bound = signal.sup_accel()
        if not gain_check(alpha, model_bound):
            logger.warning(
                "gains.alpha = %g does not dominate the flock velocity's "
                "acceleration bound %g", alpha, model_bound)
    else:
        try:
            signal = make_trajectory(_need(data, "target"))
        except ValueError as exc:
            _fail("target", str(exc))
        k_t = _positive(gains_d.get("k_t"), "gains.k_t")
        alpha1 = _positive(gains_d.get("alpha1"), "gains.alpha1")
        alpha2 = _positive(gains_d.get("alpha2"), "gains.alpha2")
        try:
            gains = InterceptionGains(k_a, k_t, c_arr, alpha1, alpha2)
        except ValueError as exc:
            _fail("gains", str(exc))
        # The designated interception point (the leader's spot in the
        # target formation) must lie inside the followers' hull so the
        # converged formation surrounds the target.
        if not convex_hull_contains(pos[: n - 1], pos[n - 1], HULL_TOL):
            _fail("target_positions_m",
                  f"leader position (agent {n}) must lie inside the convex "
                  "hull of the follower positions")

    # --- initial conditions ---------------------------------------------
    init = _need(data, "initial")
    if not isinstance(init, dict):
        _fail("initial", "must be an object")
    raw_initial = dict(init)
    seed_val: int | None = None
    if seed is not None:
        if "poses" in init:
            _fail("initial", "seed override conflicts with explicit poses")
        raw_initial["seed"] = int(seed)
    if "poses" in raw_initial:
        poses = _parse_array(raw_initial["poses"], (n, 3), "initial.poses")
    else:
        if "seed" not in raw_initial or "perturbation_radius_m" not in raw_initial:
            _fail("initial", "needs either poses or seed + perturbation_radius_m")
        seed_val = raw_initial["seed"]
        if not isinstance(seed_val, int) or isinstance(seed_val, bool) or seed_val < 0:
            _fail("initial.seed", f"must be a nonnegative integer, got {seed_val!r}")
        radius = float(raw_initial["perturbation_radius_m"])
        if radius < 0 or not np.isfinite(radius):
            _fail("initial.perturbation_radius_m", "must be >= 0")
        poses = _seeded_poses(pos, seed_val, radius)

    kw = dict(name=name, mode=mode, notes=notes, graph=graph, target=target,
              signal=signal, gains=gains, dt=dt_val, duration=dur_val,
              sample_every=se, anchor_sign=anchor_sign,
              smoothing_epsilon=smoothing, initial_poses=poses,
              raw_initial=raw_initial, seed=seed_val)
    if mode == "flock":
        vfh = (_parse_array(init["v_f_hat"], (n, 2), "initial.v_f_hat")
               if "v_f_hat" in init else np.zeros((n, 2)))
        return Scenario(v0_access=tuple(access), gamma0=gamma0,
                        initial_v_f_hat=vfh, **kw)
    vth = (_parse_array(init["v_t_hat"], (n, 2), "initial.v_t_hat")
           if "v_t_hat" in init else np.zeros((n, 2)))
    eth = (_parse_array(init["e_t_hat"], (n, 2), "initial.e_t_hat")
           if "e_t_hat" in init else np.zeros((n, 2)))
    # The leader measures the target velocity, so its estimate starts
    # exact; anything else in the file is overridden.
    _, vt0, _ = signal.state(0.0)
    if "v_t_hat" in init and not np.allclose(vth[n - 1], vt0):
        logger.warning("initial.v_t_hat: leader row replaced by the target "
                       "velocity at t = 0")
    vth[n - 1] = vt0
    gamma_t1 = float(data.get("gamma_t1", signal.sup_accel()))
    if gamma_t1 < 0 or not np.isfinite(gamma_t1):
        _fail("gamma_t1", "must be >= 0")
    if "gamma_t2" in data:
        gamma_t2 = float(data["gamma_t2"])
        if gamma_t2 < 0 or not np.isfinite(gamma_t2):
            _fail("gamma_t2", "must be >= 0")
    else:
        # Bound on |edot_T| at t = 0: |v_T| + |u_n| <= 2 sup|v_T| + k_T |e_T(0)|.
        pt0 = signal.state(0.0)[0]
        e0 = float(np.hypot(*(pt0 - poses[n - 1, :2])))
        gamma_t2 = 2.0 * signal.sup_speed() + gains.k_t * e0
    if not gain_check(gains.alpha1, gamma_t1):
        logger.warning("gains.alpha1 = %g does not dominate gamma_t1 = %g",
                       gains.alpha1, gamma_t1)
    if not gain_check(gains.alpha2, gamma_t2):
        logger.warning("gains.alpha2 = %g does not dominate gamma_t2 = %g",
                       gains.alpha2, gamma_t2)
    return Scenario(gamma_t1=gamma_t1, gamma_t2=gamma_t2,
                    initial_v_t_hat=vth, initial_e_t_hat=eth, **kw)


def read_json(path):
    """The document in a JSON file; ScenarioError unless it is UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def load_scenario(path, *, duration: float | None = None,
                  dt: float | None = None, seed: int | None = None) -> Scenario:
    """Load and validate a scenario JSON file."""
    return scenario_from_dict(read_json(path), duration=duration, dt=dt, seed=seed)


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package."""
    p = resources.files("rigidflock") / "scenarios" / f"{name}.json"
    if not p.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return p
