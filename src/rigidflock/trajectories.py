"""Analytic reference trajectories: flocking velocities and moving targets.

Every model exposes position, velocity, and acceleration at arbitrary
times (scalar ``state`` and vectorized ``sample``), plus supremum
bounds on speed and acceleration used to validate observer gains.

``is_json_number`` is the scenario schema's one rule for numbers; it
lives here because the scenario parser imports this module.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


def is_json_number(value) -> bool:
    """True for a JSON number that a float holds: never a bool or a string."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)


def is_json_numeric_array(value) -> bool:
    """True for a number or nested lists whose every leaf is a number, at
    any depth (the walk keeps its own stack, not Python's)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif not is_json_number(v):
            return False
    return True


def _vec2(value, name: str) -> np.ndarray:
    v = np.array(value, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


class _Path:
    """A reference path: ``state`` is ``sample`` at one time."""

    def state(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos, vel, acc = self.sample(t)
        return pos[0], vel[0], acc[0]


@dataclass(frozen=True)
class CirclePath(_Path):
    """Uniform circular motion: center + radius (cos, sin)(omega t + phase)."""

    center: np.ndarray
    radius: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _vec2(self.center, "center"))
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise ValueError("radius must be >= 0")
        for name in ("omega", "phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def sample(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        ang = self.omega * t + self.phase
        c, s = np.cos(ang), np.sin(ang)
        r, w = self.radius, self.omega
        pos = self.center[None, :] + r * np.stack([c, s], axis=1)
        vel = r * w * np.stack([-s, c], axis=1)
        acc = -r * w * w * np.stack([c, s], axis=1)
        return pos, vel, acc

    def sup_speed(self) -> float:
        return abs(self.radius * self.omega)

    def sup_accel(self) -> float:
        return abs(self.radius * self.omega * self.omega)


@dataclass(frozen=True)
class LinePath(_Path):
    """Constant-velocity motion from a starting point."""

    start: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", _vec2(self.start, "start"))
        object.__setattr__(self, "velocity", _vec2(self.velocity, "velocity"))

    def sample(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        pos = self.start[None, :] + t[:, None] * self.velocity[None, :]
        vel = np.broadcast_to(self.velocity, pos.shape).copy()
        acc = np.zeros_like(pos)
        return pos, vel, acc

    def sup_speed(self) -> float:
        return float(np.hypot(*self.velocity))

    def sup_accel(self) -> float:
        return 0.0


@dataclass(frozen=True)
class SinePath(_Path):
    """Straight drift with a transverse sinusoid.

    p(t) = start + velocity t + amplitude sin(omega t) nhat, where nhat
    is the unit normal (left of the drift direction).
    """

    start: np.ndarray
    velocity: np.ndarray
    amplitude: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "start", _vec2(self.start, "start"))
        object.__setattr__(self, "velocity", _vec2(self.velocity, "velocity"))
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError("amplitude must be >= 0")
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")
        speed = np.hypot(*self.velocity)
        if speed == 0:
            raise ValueError("sine path needs a nonzero drift velocity")
        n = np.array([-self.velocity[1], self.velocity[0]]) / speed
        n.setflags(write=False)
        object.__setattr__(self, "_normal", n)

    def sample(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        n = self._normal
        A, w = self.amplitude, self.omega
        pos = (self.start[None, :] + t[:, None] * self.velocity[None, :]
               + A * np.sin(w * t)[:, None] * n[None, :])
        vel = self.velocity[None, :] + A * w * np.cos(w * t)[:, None] * n[None, :]
        acc = -A * w * w * np.sin(w * t)[:, None] * n[None, :]
        return pos, vel, acc

    def sup_speed(self) -> float:
        return float(np.sqrt(np.hypot(*self.velocity) ** 2
                             + (self.amplitude * self.omega) ** 2))

    def sup_accel(self) -> float:
        return abs(self.amplitude * self.omega * self.omega)


@dataclass(frozen=True)
class WaypointPath(_Path):
    """Piecewise-linear motion through timed waypoints, clamped at the ends.

    Velocity is constant on each segment and zero outside the knot
    span; ``sup_accel`` reports 0 (the acceleration between knots).
    """

    points: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        tt = np.array(self.times, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must be (m, 2) with m >= 2")
        if tt.shape != (pts.shape[0],):
            raise ValueError("times must match the number of points")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tt))):
            raise ValueError("points and times must be finite")
        if np.any(np.diff(tt) <= 0):
            raise ValueError("times must be strictly increasing")
        pts.setflags(write=False)
        tt.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "times", tt)

    def sample(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        tt, pts = self.times, self.points
        seg_v = np.diff(pts, axis=0) / np.diff(tt)[:, None]
        idx = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, len(tt) - 2)
        tc = np.clip(t, tt[0], tt[-1])
        pos = pts[idx] + (tc - tt[idx])[:, None] * seg_v[idx]
        vel = np.where(((t >= tt[0]) & (t < tt[-1]))[:, None], seg_v[idx], 0.0)
        acc = np.zeros_like(pos)
        return pos, vel, acc

    def sup_speed(self) -> float:
        seg_v = np.diff(self.points, axis=0) / np.diff(self.times)[:, None]
        return float(np.max(np.hypot(seg_v[:, 0], seg_v[:, 1])))

    def sup_accel(self) -> float:
        return 0.0


def make_trajectory(spec: dict):
    """Build a trajectory model from its JSON dict form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("trajectory spec must be a dict with a 'kind' field")
    kind = spec["kind"]

    def number(key, default=None):
        value = spec[key] if default is None else spec.get(key, default)
        if not is_json_number(value):
            raise ValueError(f"{key} must be a number, got {value!r}")
        return float(value)

    def array(key, default=None):
        value = spec[key] if default is None else spec.get(key, default)
        if not is_json_numeric_array(value):
            raise ValueError(f"{key} must be a numeric array, got {value!r}")
        return value

    try:
        if kind == "circle":
            path = CirclePath(array("center_m", (0.0, 0.0)), number("radius_m"),
                              number("omega_radps"), number("phase_rad", 0.0))
        elif kind == "line":
            path = LinePath(array("start_m"), array("velocity_mps"))
        elif kind == "sine":
            path = SinePath(array("start_m"), array("velocity_mps"),
                            number("amplitude_m"), number("omega_radps"))
        elif kind == "waypoints":
            path = WaypointPath(array("points_m"), array("times_s"))
        else:
            raise ValueError(f"unknown trajectory kind '{kind}'")
    except KeyError as exc:
        raise ValueError(f"trajectory kind '{kind}' missing field {exc}") from exc
    # Finite fields can still overflow: a 1e-320 s waypoint segment, or a
    # circle of radius 1e308 at 1e10 rad/s.
    with np.errstate(over="ignore"):
        speed, accel = path.sup_speed(), path.sup_accel()
    if not (np.isfinite(speed) and np.isfinite(accel)):
        raise ValueError("speed and acceleration bounds must be finite, got "
                         f"{speed:g} m/s and {accel:g} m/s^2")
    return path
