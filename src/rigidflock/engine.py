"""Closed-loop simulation: world state, stepping, rollouts, logs, metrics.

The engine advances all agents synchronously against frozen snapshots:
each step first evaluates observer rates and planar controls for every
agent, then control rates and unicycle commands, and only then
integrates.  ``run`` is the one way to advance the loop: it hands the
rollout to the kernels module one chunk of rows at a time.

Estimates are stored in the common frame for bookkeeping, but every
signum is evaluated inside the owning agent's body frame, so the whole
closed loop is equivariant under rotations and translations of the
world frame.  An agent-side implementation would keep the same
quantities in local coordinates (``oracle`` holds that formulation).
``convex_hull_contains`` is the package's one hull test: the scenario
parser checks the interception point with it, and ``hull_containment``
runs it over every chunk of a run's rows at once.  ``RunConfig`` holds
every value rule of a run; each raises ``ConfigError`` naming its field.
"""

from __future__ import annotations

import errno
import math
import mmap
import numbers
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .graph import Graph
from .rigidity import shape_distance
from .unicycle import wrap_angle


class SimulationDiverged(RuntimeError):
    """A state left the sane range; carries the 1-based agent and time."""

    def __init__(self, agent: int, time_s: float):
        self.agent = agent
        self.time_s = time_s
        super().__init__(f"agent {agent} diverged at t = {time_s:g} s")


@dataclass
class WorldState:
    """Full simulator state at one instant.

    ``v_f_hat`` is used in flock mode; ``v_t_hat``/``e_t_hat`` in
    intercept mode.  Arrays are owned (copied in).
    """

    time: float
    poses: np.ndarray
    v_f_hat: np.ndarray | None = None
    v_t_hat: np.ndarray | None = None
    e_t_hat: np.ndarray | None = None

    def __post_init__(self):
        self.poses = np.array(self.poses, dtype=float)
        if self.poses.ndim != 2 or self.poses.shape[1] != 3:
            raise ValueError(f"poses must be (n, 3), got {self.poses.shape}")
        for name in ("v_f_hat", "v_t_hat", "e_t_hat"):
            v = getattr(self, name)
            if v is not None:
                v = np.array(v, dtype=float)
                if v.shape != (self.poses.shape[0], 2):
                    raise ValueError(f"{name} must be (n, 2), got {v.shape}")
                setattr(self, name, v)

    @property
    def n(self) -> int:
        return self.poses.shape[0]

    def copy(self) -> "WorldState":
        return replace(self)  # __post_init__ copies every array


class ConfigError(ValueError):
    """A run's value breaks a rule; ``field`` names the RunConfig field."""

    def __init__(self, field: str, msg: str):
        self.field = field
        super().__init__(msg)


def step_count(duration: float, dt: float, sample_every: int) -> int:
    """``duration / dt`` as a whole number of steps that ``sample_every`` divides.

    The count must fit an index, with room for the log's 8-byte t
    column (at sample_every 1 a row is a step); an inf count never does.
    A quotient within rounding of a whole number counts as that number
    (0.3 / 1e-4 is 2999.9999999999995); any other raises ConfigError, so
    a run always ends on a logged row.
    """
    steps = duration / dt
    if not steps < np.iinfo(np.intp).max // 8:
        raise ConfigError("dt", f"duration / dt = {steps:g} steps is too many to index")
    if abs(steps - round(steps)) > 1e-12 * steps:
        raise ConfigError("duration",
                          f"duration / dt = {steps:.17g} steps must be a whole number")
    n_steps = round(steps)
    if n_steps % sample_every:
        raise ConfigError("duration", f"duration / dt = {n_steps:.17g} steps must be a "
                                      f"multiple of sample_every = {sample_every}")
    return n_steps


# Each mode's observer estimates (WorldState fields) in the law's channel
# order, its scalar gains, and the references it logs by their channel in
# a row of ``RunConfig.references``.
_ESTIMATES = {"flock": ("v_f_hat",), "intercept": ("v_t_hat", "e_t_hat")}
GAINS = {"flock": ("k_a", "alpha"), "intercept": ("k_a", "k_t", "alpha1", "alpha2")}
_LOGGED_REFERENCES = {"flock": ("v0",), "intercept": ("target_vel", "target_pos")}

# The rule of each scalar RunConfig field, on its value as a float: a
# test and what a value that fails it must be.
_SCALAR_RULES = {
    "dt": (lambda x: 0 < x < math.inf, "must be positive and finite"),
    "duration": (lambda x: 0 <= x < math.inf, "must be finite and >= 0"),
    "sample_every": (lambda x: x >= 1 and x.is_integer(), "must be an integer >= 1"),
    "anchor_sign": (lambda x: x in (1.0, -1.0), "must be +1 or -1"),
    "smoothing_epsilon": (lambda x: 0 <= x < math.inf, "must be finite and >= 0"),
    **dict.fromkeys(GAINS["flock"] + GAINS["intercept"],
                    (lambda x: 0 < x < math.inf, "must be finite and > 0")),
}


@dataclass
class RunConfig:
    """Everything a rollout needs, already flattened to arrays.

    A parsed ``scenario.Scenario`` is one for file-driven runs; tests can
    construct it directly for reduced setups (single agents, custom
    graphs) that a scenario file would reject.
    """

    mode: str
    graph: Graph
    distances: np.ndarray
    initial_poses: np.ndarray
    signal: object
    dt: float
    duration: float
    sample_every: int = 1
    k_a: float = 1.0
    c: np.ndarray | float = 1.0
    # flock mode
    alpha: float = 1.0
    access_flags: np.ndarray | None = None
    anchor_sign: float = 1.0
    initial_v_f_hat: np.ndarray | None = None
    # intercept mode
    k_t: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    initial_v_t_hat: np.ndarray | None = None
    initial_e_t_hat: np.ndarray | None = None
    # shared
    smoothing_epsilon: float = 0.0
    target_positions: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("flock", "intercept"):
            raise ConfigError("mode", "mode must be 'flock' or 'intercept', "
                                      f"got {self.mode!r}")
        n = self.graph.n
        if self.mode == "intercept" and n < 2:
            raise ConfigError("graph", "intercept mode needs a leader and at least one "
                                       f"follower in its graph, got n = {n}")
        self.distances = np.asarray(self.distances, dtype=float)
        if self.distances.shape != (self.graph.edge_count,):
            raise ConfigError("distances", "distances must have one entry per edge")
        with np.errstate(over="ignore"):
            self._d2 = self.distances**2
        if np.any(self.distances <= 0) or not np.all(np.isfinite(self._d2)):
            raise ConfigError("distances", "distances must be positive, with finite "
                                           "squares")
        self._array("initial_poses", (n, 3))
        self.initial_poses[:, 2] = wrap_angle(self.initial_poses[:, 2])
        for name in ("dt", "duration", "sample_every", "anchor_sign",
                     "smoothing_epsilon") + GAINS[self.mode]:
            value = getattr(self, name)
            try:  # a string, None or an int beyond a float reads as NaN: no rule holds
                x = float(value) if isinstance(value, numbers.Real) else math.nan
            except OverflowError:
                x = math.nan
            rule, text = _SCALAR_RULES[name]
            if not rule(x):
                raise ConfigError(name, f"{name} {text}, got {value!r}")
            setattr(self, name, x)
        self.sample_every = int(self.sample_every)
        try:
            c = np.asarray(self.c, dtype=float)
        except (TypeError, ValueError):
            c = None
        if c is None or c.shape not in ((), (n,)):
            raise ConfigError("c", "heading gains c must be one number or one per "
                                   f"agent (n = {n}), got {self.c!r}")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ConfigError("c", "heading gains c must be finite and > 0")
        self.c = np.full(n, c)
        if self.dt * float(self.c.max()) >= 1.0:
            raise ConfigError("dt", f"dt * max(c) = {self.dt * float(self.c.max()):g} "
                                    "must be < 1 for a stable heading loop")
        step_count(self.duration, self.dt, self.sample_every)
        if self.mode == "flock":
            if self.access_flags is None:
                self.access_flags = np.zeros(n)
            self._array("access_flags", (n,))
            if not np.all((self.access_flags == 0) | (self.access_flags == 1)):
                raise ConfigError("access_flags", "access_flags must be 0 or 1")
        for name in [f"initial_{est}" for est in _ESTIMATES[self.mode]]:
            if getattr(self, name) is None:
                setattr(self, name, np.zeros((n, 2)))
            self._array(name, (n, 2))
        if self.target_positions is not None:
            self._array("target_positions", (n, 2))
        self._edges = self.graph.edge_array()

    def _array(self, name: str, shape: tuple) -> None:
        """Field ``name`` as an owned finite float array of ``shape``."""
        value = np.array(getattr(self, name), dtype=float)
        if value.shape != shape:
            raise ConfigError(name, f"{name} must be {shape}, got {value.shape}")
        if not np.all(np.isfinite(value)):
            raise ConfigError(name, f"{name} must be finite")
        setattr(self, name, value)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def leader(self) -> int:
        """Leader id (intercept mode): always the highest id n."""
        return self.graph.n

    def law(self) -> kernels.Law:
        """The closed loop's parameters for this run: the one place
        ``engine`` maps a mode onto ``kernels``' law."""
        if self.mode == "flock":
            return kernels.flock_law(self._edges, self._d2, self.access_flags,
                                     self.k_a, self.c, self.alpha, self.anchor_sign,
                                     self.smoothing_epsilon)
        return kernels.intercept_law(self.n, self._edges, self._d2, self.leader - 1,
                                     self.k_a, self.k_t, self.c, self.alpha1,
                                     self.alpha2, self.smoothing_epsilon)

    def references(self, times) -> np.ndarray:
        """The law's signal rows at ``times``: v_0 for flock, [v_T, p_T,
        a_T] for intercept."""
        pos, vel, acc = self.signal.sample(times)
        return vel if self.mode == "flock" else np.concatenate([vel, pos, acc], axis=1)


def initial_state(config: RunConfig) -> WorldState:
    """WorldState at t = 0 from the config's initial arrays (copied in)."""
    return WorldState(0.0, config.initial_poses, **{
        name: getattr(config, "initial_" + name) for name in _ESTIMATES[config.mode]})


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryLog:
    """Sampled closed-loop history plus derived error series.

    Rows are sampled every ``sample_every`` steps starting at t = 0; a
    zero-duration run yields the initial row only.  ``hull_inside`` holds
    1.0 where the target is inside the followers' hull, else 0.0.
    """

    mode: str
    t: np.ndarray
    poses: np.ndarray
    commands: np.ndarray
    u: np.ndarray
    edge_errors: np.ndarray
    heading_errors: np.ndarray
    shape_dist: np.ndarray | None
    meta: dict = field(default_factory=dict)
    # flock mode
    v_f_hat: np.ndarray | None = None
    v0: np.ndarray | None = None
    est_errors: np.ndarray | None = None
    # intercept mode
    v_t_hat: np.ndarray | None = None
    e_t_hat: np.ndarray | None = None
    target_pos: np.ndarray | None = None
    target_vel: np.ndarray | None = None
    e_t_norm: np.ndarray | None = None
    v_t_err: np.ndarray | None = None
    e_t_err: np.ndarray | None = None
    hull_inside: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.t.shape[0]

    @property
    def n(self) -> int:
        return self.poses.shape[1]


# Rows per rollout chunk.  After each chunk ``run`` reports the finished
# rows, so a writer can format them while the rollout goes on.  A chunk
# costs one kernel call and one extra evaluation (its last row is the
# next chunk's first); a larger one leaves more rows to format after
# the rollout.  Median CLI wall time of dense_log (8,001 rows, 10
# rotated runs each, 2 vCPUs, numpy CSV formatter): 128 rows 0.69 s,
# 256 rows 0.79 s, 512 rows 0.69 s, 1,024 rows 0.67 s, 2,048 rows 0.68 s,
# with overlapping quartiles; 1,024 against 512 won 7 of 12 pairs on
# wall time and 9 of 12 on CPU time.
_CHUNK_ROWS = 512


def _shared_arrays(shapes: dict) -> dict:
    """Zeroed float arrays of ``shapes`` in one shared anonymous mapping.

    A process forked during the rollout sees every row written after the
    fork, so it can format rows while they are still being produced.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    try:
        buf = mmap.mmap(-1, 8 * sum(sizes))
    except (OverflowError, OSError) as exc:  # a log too large to map or to count
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map a log of {8 * sum(sizes):.3g} bytes") from None
    out, offset = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        out[name] = np.frombuffer(buf, float, size, offset).reshape(shape)
        offset += 8 * size
    return out


def _derive_rows(log: TrajectoryLog, config: RunConfig, rows: slice) -> None:
    """Fill the derived series of ``rows`` from those rows of the log alone."""
    xy = log.poses[rows, :, :2]
    if config.graph.edge_count:
        rel = xy[:, config._edges[:, 0]] - xy[:, config._edges[:, 1]]
        log.edge_errors[rows] = np.abs(np.sqrt(np.einsum("rkj,rkj->rk", rel, rel))
                                       - config.distances[None, :])
    if config.target_positions is not None:
        log.shape_dist[rows] = shape_distance(xy, config.target_positions)
    if log.mode == "flock":
        dv = log.v_f_hat[rows] - log.v0[rows, None, :]
        log.est_errors[rows] = np.sqrt(np.einsum("rij,rij->ri", dv, dv))
        return
    e_t = log.target_pos[rows] - log.poses[rows, config.leader - 1, :2]
    log.e_t_norm[rows] = np.hypot(e_t[:, 0], e_t[:, 1])
    dv = log.v_t_hat[rows] - log.target_vel[rows, None, :]
    log.v_t_err[rows] = np.sqrt(np.einsum("rij,rij->ri", dv, dv))
    de = log.e_t_hat[rows] - e_t[:, None, :]
    log.e_t_err[rows] = np.sqrt(np.einsum("rij,rij->ri", de, de))
    log.hull_inside[rows] = hull_containment(log, rows)


def run(config: RunConfig, force_kernel: str | None = None,
        on_rows=None) -> TrajectoryLog:
    """Roll out the closed loop for the configured duration.

    ``force_kernel`` overrides the environment-selected implementation
    with "jit" or "numpy"; forcing "jit" without numba raises
    kernels.KernelUnavailable.  Raises SimulationDiverged when any agent
    leaves the sane range.

    The rollout runs in chunks of ``_CHUNK_ROWS`` rows, each sampling
    only its own references; the kernel logs the heading errors.  Each
    chunk's edge and estimate errors, e_T, shape distance and hull flag
    are computed as soon as it returns.  Then ``on_rows(log, ready)``
    (if given) learns that rows ``[0, ready)`` of every array of the log
    are final; the last call has ``ready == log.rows``.  Those arrays
    live in one shared anonymous mapping, and only ``meta`` is set after
    the last call.
    """
    n = config.n
    dt = config.dt
    sample_every = config.sample_every
    n_steps = step_count(config.duration, dt, sample_every)
    rows = n_steps // sample_every + 1
    fields, logged = _ESTIMATES[config.mode], _LOGGED_REFERENCES[config.mode]

    shapes = {"t": (rows,), "poses": (rows, n, 3), "commands": (rows, n, 2),
              "u": (rows, n, 2), "heading_errors": (rows, n),
              "est": (rows, n, 2 * len(fields)),
              "edge_errors": (rows, config.graph.edge_count),
              **{name: (rows, 2) for name in logged}}
    if config.target_positions is not None:
        shapes["shape_dist"] = (rows,)
    if config.mode == "flock":
        shapes.update(est_errors=(rows, n))
    else:
        shapes.update(e_t_norm=(rows,), v_t_err=(rows, n), e_t_err=(rows, n),
                      hull_inside=(rows,))
    arrays = _shared_arrays(shapes)
    est_log = arrays.pop("est")
    arrays.setdefault("shape_dist", None)
    log = TrajectoryLog(config.mode, **arrays)
    for k, name in enumerate(fields):
        setattr(log, name, est_log[..., 2 * k:2 * k + 2])
    pose = config.initial_poses.copy()
    est = np.concatenate([getattr(config, "initial_" + name) for name in fields], axis=1)
    law, rollout = config.law(), getattr(kernels, f"{config.mode}_rollout")
    outs = (log.poses, log.commands, log.u, log.heading_errors, est_log)

    runtime = 0.0
    r0 = 0
    while True:
        r1 = r0 + _CHUNK_ROWS
        last = r1 >= rows - 1
        s0, s1 = r0 * sample_every, (n_steps if last else r1 * sample_every)
        ready = rows if last else r1
        times = np.arange(s0, s1 + 1) * dt
        signal = config.references(times)
        log.t[r0:ready + 1] = times[::sample_every]
        for k, name in enumerate(logged):
            getattr(log, name)[r0:ready + 1] = signal[::sample_every, 2 * k:2 * k + 2]
        tic = _time.perf_counter()
        kernel_name, form, status = rollout(
            law, pose, est, signal, dt, s1 - s0, sample_every,
            [o[r0:ready + 1] for o in outs], force=force_kernel)
        runtime += _time.perf_counter() - tic
        if status[0] != kernels.STATUS_OK:
            raise SimulationDiverged(int(status[1]) + 1,
                                     float(s0 + int(status[2])) * dt)
        _derive_rows(log, config, slice(r0, ready))
        if on_rows is not None:
            on_rows(log, ready)
        if last:
            break
        r0 = r1

    log.meta = {
        "mode": config.mode,
        "dt_s": dt,
        "duration_s": config.duration,
        "sample_every": sample_every,
        "n_steps": n_steps,
        "kernel": kernel_name,
        "form": form,
        "runtime_s": runtime,
    }
    return log


# ---------------------------------------------------------------------------
# summary metrics
# ---------------------------------------------------------------------------

def metrics(log: TrajectoryLog, settle_time_s: float | None = None) -> dict:
    """Scalar summary of a rollout.

    Tail metrics aggregate over t >= settle_time_s (default: half the
    run).  Keys carry the settle time, e.g. ``max_edge_error_after_20s``.
    """
    if settle_time_s is None:
        settle_time_s = float(log.t[-1]) / 2.0
    mask = log.t >= settle_time_s
    if not mask.any():
        mask = log.t == log.t[-1]
    tag = f"after_{settle_time_s:g}s"
    out = dict(log.meta)
    out["settle_time_s"] = settle_time_s
    out["rows"] = log.rows
    if log.edge_errors.shape[1]:
        out["max_edge_error_initial"] = float(log.edge_errors[0].max())
        out["final_max_edge_error"] = float(log.edge_errors[-1].max())
        out[f"max_edge_error_{tag}"] = float(log.edge_errors[mask].max())
    out["final_max_heading_error"] = float(np.abs(log.heading_errors[-1]).max())
    out[f"max_heading_error_{tag}"] = float(np.abs(log.heading_errors[mask]).max())
    if log.shape_dist is not None:
        out["initial_shape_distance"] = float(log.shape_dist[0])
        out["final_shape_distance"] = float(log.shape_dist[-1])
        out[f"max_shape_distance_{tag}"] = float(log.shape_dist[mask].max())
    if log.mode == "flock":
        out[f"max_estimation_error_{tag}"] = float(log.est_errors[mask].max())
        out["final_max_estimation_error"] = float(log.est_errors[-1].max())
        vel_err = velocity_tracking_errors(log)
        vmask = mask[1:-1]
        if vmask.any():
            out[f"max_velocity_tracking_error_{tag}"] = float(vel_err[vmask].max())
    else:
        out["final_e_t_norm"] = float(log.e_t_norm[-1])
        out[f"max_e_t_norm_{tag}"] = float(log.e_t_norm[mask].max())
        out[f"max_vt_estimation_error_{tag}"] = float(log.v_t_err[mask].max())
        out[f"max_et_estimation_error_{tag}"] = float(log.e_t_err[mask].max())
        out["hull_contains_final"] = bool(log.hull_inside[-1])
        out[f"hull_contains_always_{tag}"] = bool(log.hull_inside[mask].all())
    return out


def velocity_tracking_errors(log: TrajectoryLog) -> np.ndarray:
    """Max-over-agents |pdot_i - v0| per interior sampled row.

    pdot is a central finite difference of the sampled positions, so
    the result has rows - 2 entries (row r corresponds to log.t[1:-1]).
    """
    if log.mode != "flock":
        raise ValueError("velocity tracking is a flock-mode metric")
    if log.rows < 3:
        return np.zeros((0,))
    h = log.t[2:] - log.t[:-2]
    fd = (log.poses[2:, :, :2] - log.poses[:-2, :, :2]) / h[:, None, None]
    dv = fd - log.v0[1:-1, None, :]
    return np.sqrt(np.einsum("rij,rij->ri", dv, dv)).max(axis=1)


HULL_BAND = 1e-9  # m: a point this close to the hull counts as inside


def convex_hull_contains(points: np.ndarray, q: np.ndarray) -> bool | np.ndarray:
    """Whether q is in conv(points) or within ``HULL_BAND`` of it, row by row.

    ``points`` is (..., m, 2) with m >= 1 and ``q`` is (..., 2); all rows
    are tested at once, and a single row gives a ``bool``.  A row is
    inside when no gap between the sorted directions of p_i - q exceeds
    pi.  A q outside at distance d widens the largest gap to at least
    pi + d/|p_a - q| + d/|p_b - q| (p_a, p_b on either side of it), while
    rounding p_i - q turns a direction by about 2.2e-16 |p| / |p_i - q|:
    only a q within about 1e-15 times the coordinates and the spread
    reads inside wrongly (a q equal to a p_i is in).  Other rows are
    inside when the nearest segment p_i p_j (i <= j) is within the band.
    That is the distance to the hull, as every hull edge is such a
    segment and every such segment lies in the hull, so it also settles
    boundary points, one-point and collinear sets.
    """
    pts, q = np.asarray(points, dtype=float), np.asarray(q, dtype=float)
    m, shape = pts.shape[-2], q.shape[:-1]
    if m < 1:
        raise ValueError("need at least one point")
    pts, q = pts.reshape(-1, m, 2), q.reshape(-1, 2)
    rel = pts - q[:, None, :]
    angle = np.sort(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
    gaps = np.diff(angle, axis=1, append=angle[:, :1] + 2.0 * np.pi)
    inside = gaps.max(axis=1) < np.pi
    rest = np.flatnonzero(~inside)
    if rest.size:
        p, qa = pts[rest], rel[rest]  # qa[:, i] = p_i - q
        near = np.full(rest.size, np.inf)
        for i in range(m):  # segments from p_i to each p_j, j >= i
            ab = p[:, i:] - p[:, i:i + 1]
            den = np.einsum("rkj,rkj->rk", ab, ab)
            t = np.clip(-np.einsum("rj,rkj->rk", qa[:, i], ab)
                        / np.where(den > 0.0, den, 1.0), 0.0, 1.0)
            d = qa[:, i, None] + t[..., None] * ab  # nearest point minus q
            near = np.minimum(near, np.hypot(d[..., 0], d[..., 1]).min(axis=1))
        inside[rest] = near <= HULL_BAND
    return bool(inside[0]) if not shape else inside.reshape(shape)


def hull_containment(log: TrajectoryLog, rows: slice = slice(None)) -> np.ndarray:
    """Per-row flag of ``rows``: target inside the hull of the follower
    positions, by one ``convex_hull_contains`` call over all of them."""
    if log.mode != "intercept":
        raise ValueError("hull containment is an intercept-mode metric")
    return convex_hull_contains(log.poses[rows, : log.n - 1, :2], log.target_pos[rows])
