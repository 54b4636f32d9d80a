"""The closed loop as each agent computes it: the agent's-eye test oracle.

``measure`` gives one agent its sensing and received messages in its own
body frame, and ``measurement_commands`` turns them into (v, omega)
through the per-agent equations below: a distance-error gradient plus a
feedforward (the flocking velocity estimate, or a follower's estimated
chase terms), or the leader's direct chase of the target, then a heading
loop toward u.  ``measurement_step`` integrates those commands with its
own explicit-Euler step (``euler_step``), so the reference shares no
integrator with the kernels.  The array kernels must agree with it up
to roundoff.  The CLI never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, WorldState
from .graph import neighbors
from .kernels import EPS_U
from .observers import sgn
from .unicycle import b_matrix, rot_matrix, wrap_angle


def control_u(rel_positions: np.ndarray, z: np.ndarray, feedforward: np.ndarray,
              k_a: float) -> np.ndarray:
    """Planar control u_i = -k_a sum_j p_ij z_ij + feedforward.

    ``rel_positions`` holds one row p_ij = p_i - p_j per neighbor and
    ``z`` the matching squared-distance errors.  The feedforward is
    v_f_hat_i for flocking and k_T e_T_hat_i + v_T_hat_i for an
    intercept follower.  All may be in any common frame; the result
    lives in that frame.
    """
    rel = np.asarray(rel_positions, dtype=float).reshape(-1, 2)
    zz = np.asarray(z, dtype=float).reshape(-1)
    if rel.shape[0] != zz.shape[0]:
        raise ValueError("rel_positions and z must have matching lengths")
    grad = rel.T @ zz if zz.size else np.zeros(2)
    return -k_a * grad + np.asarray(feedforward, dtype=float)


def desired_heading(u: np.ndarray) -> float:
    """Direction of u, or 0 when |u| <= EPS_U."""
    u = np.asarray(u, dtype=float)
    if np.hypot(u[0], u[1]) <= EPS_U:
        return 0.0
    return float(np.arctan2(u[1], u[0]))


def u_dot(rel_positions: np.ndarray, z: np.ndarray, bu_self: np.ndarray,
          bu_neighbors: np.ndarray, feedforward_rate: np.ndarray,
          k_a: float) -> np.ndarray:
    """Rate of the planar control along the closed loop.

    udot_i = -k_a sum_j (z_ij I + 2 p_ij p_ij^T)(B_i u_i - B_j u_j)
             + feedforward_rate,

    where B_i u_i is agent i's achieved planar velocity (``bu_self``)
    and ``bu_neighbors`` stacks the neighbors' B_j u_j in the same
    frame, ordered like ``rel_positions``.  ``feedforward_rate`` is the
    rate of the non-formation term of u: the observer rate for
    flocking, k_T edot_T_hat + vdot_T_hat for an intercept follower.
    """
    rel = np.asarray(rel_positions, dtype=float).reshape(-1, 2)
    zz = np.asarray(z, dtype=float).reshape(-1)
    bun = np.asarray(bu_neighbors, dtype=float).reshape(-1, 2)
    if not (rel.shape[0] == zz.shape[0] == bun.shape[0]):
        raise ValueError("rel_positions, z and bu_neighbors must have matching lengths")
    out = np.asarray(feedforward_rate, dtype=float).copy()
    bus = np.asarray(bu_self, dtype=float)
    for k in range(rel.shape[0]):
        w = bus - bun[k]
        p = rel[k]
        out -= k_a * (zz[k] * w + 2.0 * p * (p @ w))
    return out


def desired_heading_rate(u: np.ndarray, udot: np.ndarray) -> float:
    """Rate of atan2(u_y, u_x): (u x udot) / |u|^2, or 0 when |u| <= EPS_U."""
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    n2 = u[0] * u[0] + u[1] * u[1]
    if np.sqrt(n2) <= EPS_U:
        return 0.0
    return float((u[0] * udot[1] - u[1] * udot[0]) / n2)


def leader_u(e_t: np.ndarray, v_target: np.ndarray, k_t: float) -> np.ndarray:
    """Leader planar control u_n = k_T e_T + v_T (no formation term)."""
    return k_t * np.asarray(e_t, dtype=float) + np.asarray(v_target, dtype=float)


def interception_error_rate(e_t: np.ndarray, v_target: np.ndarray,
                            theta_err_leader: float, k_t: float) -> np.ndarray:
    """edot_T = v_T - B(theta_err_n) u_n along the closed loop."""
    u_n = leader_u(e_t, v_target, k_t)
    return np.asarray(v_target, dtype=float) - b_matrix(theta_err_leader) @ u_n


def leader_u_dot(e_t_dot: np.ndarray, a_target: np.ndarray, k_t: float) -> np.ndarray:
    """udot_n = k_T edot_T + a_T."""
    return k_t * np.asarray(e_t_dot, dtype=float) + np.asarray(a_target, dtype=float)


@dataclass
class Measurement:
    """What one agent can sense and receive, in its own body frame.

    Relative positions/headings come from onboard sensing of neighbors;
    estimate fields arrive over the communication graph.  Only flagged
    agents (or the intercept leader) see the reference signal fields.
    ``heading`` is the agent's own absolute heading; the controller
    reads it only in the parked branch (|u| below threshold), where
    the desired heading is a global convention.
    """

    agent: int
    neighbors: tuple[int, ...]
    heading: float
    rel_positions: np.ndarray
    rel_headings: np.ndarray
    target_distances: np.ndarray
    # flock fields
    own_v_f_hat: np.ndarray | None = None
    neighbor_v_f_hat: np.ndarray | None = None
    v0: np.ndarray | None = None
    has_reference: bool = False
    # intercept fields
    own_v_t_hat: np.ndarray | None = None
    own_e_t_hat: np.ndarray | None = None
    neighbor_v_t_hat: np.ndarray | None = None
    neighbor_e_t_hat: np.ndarray | None = None
    e_t: np.ndarray | None = None
    v_t: np.ndarray | None = None
    a_t: np.ndarray | None = None


def _to_body(vectors: np.ndarray, theta: float) -> np.ndarray:
    # Row-vector form of Rot(-theta) @ v.
    return np.asarray(vectors, dtype=float) @ rot_matrix(theta)


def measure(world: WorldState, agent: int, config: RunConfig) -> Measurement:
    """Body-frame sensing + received messages for one agent (1-based)."""
    if not (1 <= agent <= config.n):
        raise ValueError(f"agent {agent} outside 1..{config.n}")
    k = agent - 1
    th = world.poses[k, 2]
    nbrs = neighbors(config.graph, agent)
    distance = dict(zip(config.graph.edges, config.distances))
    idx = [j - 1 for j in nbrs]
    rel = world.poses[k, :2][None, :] - world.poses[idx, :2]
    m = Measurement(
        agent=agent,
        neighbors=nbrs,
        heading=th,
        rel_positions=_to_body(rel, th),
        rel_headings=wrap_angle(th - world.poses[idx, 2]),
        target_distances=np.array([distance[min(agent, j), max(agent, j)]
                                   for j in nbrs]),
    )
    if config.mode == "flock":
        m.own_v_f_hat = _to_body(world.v_f_hat[k], th)
        m.neighbor_v_f_hat = _to_body(world.v_f_hat[idx], th)
        m.has_reference = bool(config.access_flags[k])
        if m.has_reference:
            _, v0, _ = config.signal.state(world.time)
            m.v0 = _to_body(v0, th)
    else:
        m.own_v_t_hat = _to_body(world.v_t_hat[k], th)
        m.own_e_t_hat = _to_body(world.e_t_hat[k], th)
        m.neighbor_v_t_hat = _to_body(world.v_t_hat[idx], th)
        m.neighbor_e_t_hat = _to_body(world.e_t_hat[idx], th)
        m.has_reference = agent == config.leader
        if m.has_reference:
            pt, vt, at = config.signal.state(world.time)
            m.e_t = _to_body(pt - world.poses[k, :2], th)
            m.v_t = _to_body(vt, th)
            m.a_t = _to_body(at, th)
    return m


def _pass1(meas: Measurement, config: RunConfig) -> dict:
    """Observer rates, planar control, and heading error for one agent."""
    z = (np.einsum("ij,ij->i", meas.rel_positions, meas.rel_positions)
         - meas.target_distances**2)
    eps = config.smoothing_epsilon
    if config.mode == "flock":
        arg = (meas.own_v_f_hat - meas.neighbor_v_f_hat).sum(axis=0) \
            if len(meas.neighbors) else np.zeros(2)
        if meas.has_reference:
            arg = arg + config.anchor_sign * (meas.own_v_f_hat - meas.v0)
        rates = {"v_f": -config.alpha * sgn(arg, eps)}
        u = control_u(meas.rel_positions, z, meas.own_v_f_hat, config.k_a)
    else:
        arg1 = (meas.own_v_t_hat - meas.neighbor_v_t_hat).sum(axis=0) \
            if len(meas.neighbors) else np.zeros(2)
        arg2 = (meas.own_e_t_hat - meas.neighbor_e_t_hat).sum(axis=0) \
            if len(meas.neighbors) else np.zeros(2)
        if meas.has_reference:
            arg1 = arg1 + (meas.own_v_t_hat - meas.v_t)
            arg2 = arg2 + (meas.own_e_t_hat - meas.e_t)
        rates = {"v_t": -config.alpha1 * sgn(arg1, eps),
                 "e_t": -config.alpha2 * sgn(arg2, eps)}
        if meas.agent == config.leader:
            u = leader_u(meas.e_t, meas.v_t, config.k_t)
        else:
            u = control_u(meas.rel_positions, z,
                          config.k_t * meas.own_e_t_hat + meas.own_v_t_hat, config.k_a)
    if np.hypot(u[0], u[1]) > EPS_U:
        # The desired heading in the body frame is just the direction of
        # u there, and theta_err is minus that direction.
        theta_err = wrap_angle(-desired_heading(u))
    else:
        # Parked: the desired heading is the global zero direction.
        theta_err = wrap_angle(meas.heading)
    bu = b_matrix(theta_err) @ u
    return {"z": z, "rates": rates, "u": u, "theta_err": theta_err, "bu": bu}


def _pass2(meas: Measurement, own: dict, neighbor_bu: np.ndarray,
           config: RunConfig) -> tuple[float, float]:
    """Commands for one agent from its own pass-1 data and neighbors' bu."""
    k, rates = meas.agent - 1, own["rates"]
    if config.mode == "flock":
        udot = u_dot(meas.rel_positions, own["z"], own["bu"],
                     neighbor_bu, rates["v_f"], config.k_a)
    elif meas.agent == config.leader:
        etd = interception_error_rate(meas.e_t, meas.v_t, own["theta_err"], config.k_t)
        udot = leader_u_dot(etd, meas.a_t, config.k_t)
    else:
        udot = u_dot(meas.rel_positions, own["z"], own["bu"], neighbor_bu,
                     config.k_t * rates["e_t"] + rates["v_t"], config.k_a)
    tidd = desired_heading_rate(own["u"], udot)
    v = float(np.hypot(own["u"][0], own["u"][1]) * np.cos(own["theta_err"]))
    omega = float(-config.c[k] * own["theta_err"] + tidd)
    return v, omega


def measurement_commands(world: WorldState, config: RunConfig):
    """Per-agent command computation through Measurement objects only.

    Returns (commands (n, 2), world_frame_rates dict of (n, 2) arrays).
    This is the agent's-eye reference path; the array kernels must
    agree with it (up to roundoff from the extra rotations).
    """
    n = config.n
    meas = [measure(world, i, config) for i in range(1, n + 1)]
    p1 = [_pass1(m, config) for m in meas]
    commands = np.zeros((n, 2))
    rates: dict[str, np.ndarray] = {}
    for key in p1[0]["rates"]:
        rates[key] = np.zeros((n, 2))
    for k in range(n):
        m = meas[k]
        # Each neighbor j broadcast bu in its own frame; re-express it
        # in agent k's frame through the measured relative heading.
        nb = np.zeros((len(m.neighbors), 2))
        for pos, j in enumerate(m.neighbors):
            nb[pos] = rot_matrix(-m.rel_headings[pos]) @ p1[j - 1]["bu"]
        commands[k] = _pass2(m, p1[k], nb, config)
        th = world.poses[k, 2]
        for key, val in p1[k]["rates"].items():
            rates[key][k] = rot_matrix(th) @ val
    return commands, rates


def euler_step(world: WorldState, dt: float, v, omega, **rates) -> WorldState:
    """``world`` advanced one explicit-Euler step of ``dt`` under commands
    (v, omega) and the estimate ``rates``, keyed by WorldState field."""
    out = world.copy()
    th = world.poses[:, 2]
    out.poses[:, 0] += v * np.cos(th) * dt
    out.poses[:, 1] += v * np.sin(th) * dt
    out.poses[:, 2] = wrap_angle(th + omega * dt)
    for name, rate in rates.items():
        setattr(out, name, getattr(world, name) + rate * dt)
    out.time = world.time + dt
    return out


def measurement_step(world: WorldState, config: RunConfig) -> WorldState:
    """One step of the closed loop computed entirely through the
    measurement path."""
    commands, rates = measurement_commands(world, config)
    return euler_step(world, config.dt, commands[:, 0], commands[:, 1],
                      **{key + "_hat": rate for key, rate in rates.items()})
