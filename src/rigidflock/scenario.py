"""Scenario files: schema, validation, seeding.

A scenario JSON fixes the mode ("flock" or "intercept"), the target
formation (graph + embedded positions, optionally explicit distances),
gains, the reference signal (flocking velocity or moving target),
initial conditions (explicit poses or seed + perturbation radius), and
integration parameters.  Field names carry SI suffixes (``_m``,
``_s``, ``_mps``, ``_radps``) where they denote physical quantities.

A parsed ``Scenario`` is the run's ``engine.RunConfig``: it adds only
the fields the run report reads (name, notes, seed, target formation,
v0_access and the observer rate bounds).

Seeded poses come from the module's own copy of numpy's default stream
(``SeedSequence`` into PCG64): a seed gives the draws of
``np.random.default_rng(seed).uniform`` bit for bit, whatever numpy is
installed, and a CLI process never imports ``numpy.random``, which
would load ``secrets`` and OpenSSL's ``_hashlib`` (about 5 MB) for 3n
draws.

Failures raise ScenarioError with the field's path.  The parser checks
JSON types and the fields only it reads, and reports RunConfig's
ConfigError under its field's path.  Soft conditions (observer gain
bounds of a valid file, fields never read) only log warnings to stderr.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from types import SimpleNamespace

import numpy as np

from .engine import GAINS, ConfigError, RunConfig, convex_hull_contains
from .graph import Graph
from .observers import gain_check
from .rigidity import Framework, TargetFormation, edge_function
from .trajectories import is_json_number, is_json_numeric_array, make_trajectory

logger = logging.getLogger("rigidflock.scenario")

# Every field the parser reads, by the path of its object, in either mode.
_KNOWN_KEYS = {
    "": {"name", "mode", "notes", "agents", "edges", "target_positions_m",
         "target_distances_m", "gains", "flock_velocity", "v0_access",
         "gamma0", "target", "gamma_t1", "gamma_t2", "anchor_sign",
         "smoothing_epsilon", "initial", "sim"},
    "gains.": {"k_a", "c", "alpha", "k_t", "alpha1", "alpha2"},
    "initial.": {"poses", "seed", "perturbation_radius_m", "v_f_hat",
                 "v_t_hat", "e_t_hat"},
    "sim.": {"dt_s", "duration_s", "sample_every"},
}


# Paths of the fields RunConfig checks that are not top-level under their name.
_POINTERS = {"dt": "sim.dt_s", "duration": "sim.duration_s",
             "sample_every": "sim.sample_every",
             **{g: "gains." + g for g in ("c", *GAINS["flock"], *GAINS["intercept"])}}


class ScenarioError(ValueError):
    """A scenario failed validation; the message names the field."""


def _fail(pointer: str, msg: str):
    raise ScenarioError(f"{pointer}: {msg}")


def _need(data: dict, key: str, pointer: str = ""):
    if key not in data:
        _fail(pointer + key, "missing required field")
    return data[key]


def _object(data, pointer: str) -> dict:
    """The object at ``pointer``; warns of each field the parser never reads."""
    if not isinstance(data, dict):
        if not pointer:
            raise ScenarioError("scenario: top level must be a JSON object")
        _fail(pointer[:-1], "must be an object")
    for key in data:
        if key not in _KNOWN_KEYS[pointer]:
            logger.warning("scenario: ignoring unknown field %r", pointer + key)
    return data


@dataclass
class Scenario(RunConfig):
    """A validated setup: the run's RunConfig plus the fields its report reads."""

    name: str = "scenario"
    notes: str = ""
    seed: int | None = None
    target: TargetFormation | None = None
    # flock mode
    v0_access: tuple[int, ...] = ()
    gamma0: float = 0.0
    # intercept mode
    gamma_t1: float = 0.0
    gamma_t2: float = 0.0

    @property
    def gains(self) -> SimpleNamespace:
        """k_a, c, alpha (flock) or k_a, k_t, c, alpha1, alpha2 (intercept)."""
        if self.mode == "flock":
            return SimpleNamespace(k_a=self.k_a, c=self.c, alpha=self.alpha)
        return SimpleNamespace(k_a=self.k_a, k_t=self.k_t, c=self.c,
                               alpha1=self.alpha1, alpha2=self.alpha2)

    def to_run_config(self) -> RunConfig:
        return self


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64(seed: int):
    """The 64-bit outputs of ``np.random.PCG64(seed)``, without numpy.random.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of
    four and draws four 64-bit words from it: the LCG's start and its
    increment.  PCG64 (O'Neill, HMC-CS-2014-0905) steps a 128-bit LCG
    and outputs its XSL-RR permutation.
    """
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, half = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        half.append(value ^ value >> 16)
    s0, s1, i0, i1 = (half[k] | half[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> rot | x << (64 - rot)) & _M64


def _uniform(raw, low: float, high: float, n: int) -> np.ndarray:
    """``Generator.uniform(low, high, size=n)`` on the 64-bit stream ``raw``."""
    return np.array([low + (high - low) * ((next(raw) >> 11) * 2.0**-53)
                     for _ in range(n)])


def _seeded_poses(anchor: np.ndarray, seed: int, radius: float) -> np.ndarray:
    """Anchor positions perturbed uniformly on a disk; headings uniform.

    The draws are ``np.random.default_rng(seed).uniform``'s, bit for bit.
    """
    n = anchor.shape[0]
    raw = _pcg64(seed)
    rr = radius * np.sqrt(_uniform(raw, 0.0, 1.0, n))
    ang = _uniform(raw, 0.0, 2.0 * np.pi, n)
    theta = _uniform(raw, -np.pi, np.pi, n)
    poses = np.zeros((n, 3))
    poses[:, 0] = anchor[:, 0] + rr * np.cos(ang)
    poses[:, 1] = anchor[:, 1] + rr * np.sin(ang)
    poses[:, 2] = theta
    return poses


def _parse_array(value, shape, pointer: str) -> np.ndarray:
    if not is_json_numeric_array(value):
        _fail(pointer, "must be a numeric array")
    try:
        arr = np.array(value, dtype=float)
    except ValueError:  # ragged
        _fail(pointer, "must be a numeric array")
    if arr.shape != shape:
        _fail(pointer, f"must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(pointer, "entries must be finite")
    return arr


def _number(value, pointer: str) -> float:
    """``value`` as a finite float >= 0 (the rate bounds and the radius)."""
    if not is_json_number(value):
        _fail(pointer, f"must be a number, got {value!r}")
    x = float(value)
    if not (np.isfinite(x) and x >= 0):
        _fail(pointer, f"must be finite and >= 0, got {value!r}")
    return x


def framework_from_dict(data: dict, keys: tuple[str, str, str] = (
        "agents", "edges", "target_positions_m")) -> Framework:
    """The formation under ``keys``: node count, edge list and positions."""
    n_key, edges_key, pos_key = keys
    n = _need(data, n_key)
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        _fail(n_key, f"must be an integer >= 3, got {n!r}")
    edges = _need(data, edges_key)
    try:
        graph = Graph(n, [tuple(e) for e in edges])
    except (TypeError, ValueError) as exc:
        _fail(edges_key, str(exc))
    return Framework(graph, _parse_array(_need(data, pos_key), (n, 2), pos_key))


def scenario_from_dict(data: dict, *, duration: float | None = None,
                       dt: float | None = None,
                       seed: int | None = None) -> Scenario:
    """Validate a scenario dict; optional CLI-style overrides."""
    _object(data, "")
    mode = _need(data, "mode")
    if mode not in ("flock", "intercept"):
        _fail("mode", f"must be 'flock' or 'intercept', got {mode!r}")
    name = str(data.get("name", "scenario"))
    notes = str(data.get("notes", ""))

    fw = framework_from_dict(data)
    graph, n, pos = fw.graph, fw.n, fw.positions
    if "target_distances_m" in data:
        dists = _parse_array(data["target_distances_m"],
                             (graph.edge_count,), "target_distances_m")
    else:
        dists = np.sqrt(edge_function(fw))
    try:
        target = TargetFormation(fw, dists)
    except ValueError as exc:
        _fail("target_positions_m", str(exc))

    # JSON types only: RunConfig checks the values.
    gains_d = _object(_need(data, "gains"), "gains.")
    c = _need(gains_d, "c", "gains.")
    if not is_json_numeric_array(c):
        _fail("gains.c", f"must be a number or a list of numbers, got {c!r}")
    sim = _object(_need(data, "sim"), "sim.")
    se = sim.get("sample_every", 1)
    if not isinstance(se, int) or isinstance(se, bool):
        _fail("sim.sample_every", f"must be an integer, got {se!r}")
    scalars = dict(
        dt=sim.get("dt_s") if dt is None else dt,
        duration=sim.get("duration_s") if duration is None else duration,
        anchor_sign=data.get("anchor_sign", 1.0),
        smoothing_epsilon=data.get("smoothing_epsilon", 0.0),
        **{gain: gains_d.get(gain) for gain in GAINS[mode]})
    for field, value in scalars.items():
        if not is_json_number(value):
            _fail(_POINTERS.get(field, field), f"must be a number, got {value!r}")

    # --- initial conditions ---------------------------------------------
    init = _object(_need(data, "initial"), "initial.")
    seed_val: int | None = None
    if seed is not None:
        if "poses" in init:
            _fail("initial", "seed override conflicts with explicit poses")
        init = dict(init, seed=int(seed))
    if "poses" in init:
        poses = _parse_array(init["poses"], (n, 3), "initial.poses")
    else:
        if "seed" not in init or "perturbation_radius_m" not in init:
            _fail("initial", "needs either poses or seed + perturbation_radius_m")
        seed_val = init["seed"]
        if not isinstance(seed_val, int) or isinstance(seed_val, bool) or seed_val < 0:
            _fail("initial.seed", f"must be a nonnegative integer, got {seed_val!r}")
        radius = _number(init["perturbation_radius_m"],
                         "initial.perturbation_radius_m")
        poses = _seeded_poses(pos, seed_val, radius)

    # --- mode-specific blocks -------------------------------------------
    if mode == "flock":
        try:
            signal = make_trajectory(_need(data, "flock_velocity"))
        except ValueError as exc:
            _fail("flock_velocity", str(exc))
        access = _need(data, "v0_access")
        if (not isinstance(access, list) or not access
                or len(set(access)) != len(access)
                or any(not isinstance(i, int) or isinstance(i, bool)
                       or not 1 <= i <= n for i in access)):
            _fail("v0_access", f"must be a nonempty list of distinct agent ids in 1..{n}")
        gamma0 = _number(data.get("gamma0", signal.sup_accel()), "gamma0")
        flags = np.isin(np.arange(1, n + 1), access).astype(float)
        vfh = (_parse_array(init["v_f_hat"], (n, 2), "initial.v_f_hat")
               if "v_f_hat" in init else None)
        by_mode = dict(access_flags=flags, initial_v_f_hat=vfh,
                       v0_access=tuple(access), gamma0=gamma0)
        bounds = [("alpha", "gamma0", gamma0)]
        if "gamma0" in data:  # else gamma0 is the velocity's bound
            bounds.append(("alpha", "flock_velocity's acceleration bound",
                           signal.sup_accel()))
    else:
        try:
            signal = make_trajectory(_need(data, "target"))
        except ValueError as exc:
            _fail("target", str(exc))
        # The designated interception point (the leader's spot in the
        # target formation) must lie inside the followers' hull so the
        # converged formation surrounds the target.
        if not convex_hull_contains(pos[: n - 1], pos[n - 1]):
            _fail("target_positions_m",
                  f"leader position (agent {n}) must lie inside the convex "
                  "hull of the follower positions")
        vth = (_parse_array(init["v_t_hat"], (n, 2), "initial.v_t_hat")
               if "v_t_hat" in init else np.zeros((n, 2)))
        eth = (_parse_array(init["e_t_hat"], (n, 2), "initial.e_t_hat")
               if "e_t_hat" in init else None)
        # The leader measures the target velocity, so its estimate starts
        # exact; anything else in the file is overridden.
        _, vt0, _ = signal.state(0.0)
        replaced = "v_t_hat" in init and not np.allclose(vth[n - 1], vt0)
        vth[n - 1] = vt0
        gamma_t1 = _number(data.get("gamma_t1", signal.sup_accel()), "gamma_t1")
        if "gamma_t2" in data:
            gamma_t2 = _number(data["gamma_t2"], "gamma_t2")
        else:
            # Bound on |edot_T| at t = 0: |v_T| + |u_n| <= 2 sup|v_T| + k_T |e_T(0)|.
            pt0 = signal.state(0.0)[0]
            e0 = float(np.hypot(*(pt0 - poses[n - 1, :2])))
            gamma_t2 = 2.0 * signal.sup_speed() + scalars["k_t"] * e0
        by_mode = dict(initial_v_t_hat=vth, initial_e_t_hat=eth,
                       gamma_t1=gamma_t1, gamma_t2=gamma_t2)
        bounds = [("alpha1", "gamma_t1", gamma_t1), ("alpha2", "gamma_t2", gamma_t2)]
    try:
        scn = Scenario(mode=mode, graph=graph, distances=target.distances,
                       initial_poses=poses, signal=signal, sample_every=se, c=c,
                       target_positions=pos, name=name, notes=notes, seed=seed_val,
                       target=target, **scalars, **by_mode)
    except ConfigError as exc:
        _fail(_POINTERS.get(exc.field, exc.field), str(exc))
    # Only a valid file warns: gain_check needs a gain > 0.
    if mode == "intercept" and replaced:
        logger.warning("initial.v_t_hat: leader row replaced by the target "
                       "velocity at t = 0")
    for gain, bound, value in bounds:
        if not gain_check(getattr(scn, gain), value):
            logger.warning("gains.%s = %g does not dominate %s = %g; finite-time "
                           "estimation is not guaranteed", gain, getattr(scn, gain),
                           bound, value)
    return scn


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
