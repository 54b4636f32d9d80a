"""Per-agent distance-based flocking control for unicycles.

Each agent descends the gradient of the squared distance errors to its
neighbors plus its estimate of the shared flocking velocity, then
converts the planar control u into (v, omega) commands by steering the
heading toward the direction of u.
"""

from __future__ import annotations

import numpy as np

# Below this |u| the desired heading is pinned to zero instead of
# following atan2 noise.
EPS_U = 1e-12


def control_u(
    rel_positions: np.ndarray,
    z: np.ndarray,
    v_f_hat: np.ndarray,
    k_a: float,
) -> np.ndarray:
    """Planar control u_i = -k_a sum_j p_ij z_ij + v_f_hat_i.

    ``rel_positions`` holds one row p_ij = p_i - p_j per neighbor and
    ``z`` the matching squared-distance errors.  Both may be in any
    common frame; the result lives in that frame.
    """
    rel = np.asarray(rel_positions, dtype=float).reshape(-1, 2)
    zz = np.asarray(z, dtype=float).reshape(-1)
    if rel.shape[0] != zz.shape[0]:
        raise ValueError("rel_positions and z must have matching lengths")
    grad = rel.T @ zz if zz.size else np.zeros(2)
    return -k_a * grad + np.asarray(v_f_hat, dtype=float)


def desired_heading(u: np.ndarray) -> float:
    """Direction of u, or 0 when |u| <= EPS_U."""
    u = np.asarray(u, dtype=float)
    if np.hypot(u[0], u[1]) <= EPS_U:
        return 0.0
    return float(np.arctan2(u[1], u[0]))


def u_dot(
    rel_positions: np.ndarray,
    z: np.ndarray,
    bu_self: np.ndarray,
    bu_neighbors: np.ndarray,
    feedforward_rate: np.ndarray,
    k_a: float,
) -> np.ndarray:
    """Rate of the planar control along the closed loop.

    udot_i = -k_a sum_j (z_ij I + 2 p_ij p_ij^T)(B_i u_i - B_j u_j)
             + feedforward_rate,

    where B_i u_i is agent i's achieved planar velocity (``bu_self``)
    and ``bu_neighbors`` stacks the neighbors' B_j u_j in the same
    frame, ordered like ``rel_positions``.  ``feedforward_rate`` is the
    rate of the non-formation term of u (the observer rate for
    flocking).
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

