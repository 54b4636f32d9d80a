"""Leader-based target interception on top of the flocking controller.

Agent n (the leader) measures a moving target directly and chases it;
followers keep the formation around the leader while feeding estimated
target terms forward.  The target's designated interception point must
sit inside the convex hull of the followers' desired positions so the
formation surrounds the target on arrival.
"""

from __future__ import annotations

import numpy as np

from .flocking import u_dot
from .unicycle import b_matrix


def leader_u(e_t: np.ndarray, v_target: np.ndarray, k_t: float) -> np.ndarray:
    """Leader planar control u_n = k_T e_T + v_T (no formation term)."""
    return k_t * np.asarray(e_t, dtype=float) + np.asarray(v_target, dtype=float)


def follower_u(
    rel_positions: np.ndarray,
    z: np.ndarray,
    e_t_hat: np.ndarray,
    v_t_hat: np.ndarray,
    k_a: float,
    k_t: float,
) -> np.ndarray:
    """Follower control: formation gradient plus estimated chase terms."""
    rel = np.asarray(rel_positions, dtype=float).reshape(-1, 2)
    zz = np.asarray(z, dtype=float).reshape(-1)
    grad = rel.T @ zz if zz.size else np.zeros(2)
    return (-k_a * grad + k_t * np.asarray(e_t_hat, dtype=float)
            + np.asarray(v_t_hat, dtype=float))


def interception_error_rate(
    e_t: np.ndarray,
    v_target: np.ndarray,
    theta_err_leader: float,
    k_t: float,
) -> np.ndarray:
    """edot_T = v_T - B(theta_err_n) u_n along the closed loop."""
    u_n = leader_u(e_t, v_target, k_t)
    return np.asarray(v_target, dtype=float) - b_matrix(theta_err_leader) @ u_n


def leader_u_dot(e_t_dot: np.ndarray, a_target: np.ndarray, k_t: float) -> np.ndarray:
    """udot_n = k_T edot_T + a_T."""
    return k_t * np.asarray(e_t_dot, dtype=float) + np.asarray(a_target, dtype=float)


def follower_u_dot(
    rel_positions: np.ndarray,
    z: np.ndarray,
    bu_self: np.ndarray,
    bu_neighbors: np.ndarray,
    e_t_hat_rate: np.ndarray,
    v_t_hat_rate: np.ndarray,
    k_a: float,
    k_t: float,
) -> np.ndarray:
    """Follower udot: formation terms plus estimated chase-term rates."""
    ff = k_t * np.asarray(e_t_hat_rate, dtype=float) + np.asarray(v_t_hat_rate, dtype=float)
    return u_dot(rel_positions, z, bu_self, bu_neighbors, ff, k_a)


def _hull_indices(pts: list) -> list[int]:
    """Monotone-chain convex hull of [x, y] lists; returns CCW vertex indices."""
    order = sorted(range(len(pts)), key=pts.__getitem__)

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = pts[o], pts[a], pts[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower: list[int] = []
    for k in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], k) <= 0:
            lower.pop()
        lower.append(k)
    upper: list[int] = []
    for k in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], k) <= 0:
            upper.pop()
        upper.append(k)
    return lower[:-1] + upper[:-1]


def _point_segment_distance(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(q - a)))
    t = min(1.0, max(0.0, float((q - a) @ ab) / denom))
    return float(np.hypot(*(q - a - t * ab)))


def convex_hull_contains(points: np.ndarray, q: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff q lies inside or within ``tol`` meters of conv(points).

    Handles degenerate inputs (one point, collinear points) by falling
    back to point/segment distance.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    q = np.asarray(q, dtype=float).reshape(2)
    if pts.shape[0] == 1:
        return float(np.hypot(*(q - pts[0]))) <= tol
    corners = pts.tolist()
    hull = _hull_indices(corners)
    if len(hull) < 3:
        # Collinear (or two points): distance to the extremal segment.
        d = min(
            _point_segment_distance(q, pts[a], pts[b])
            for a in hull
            for b in hull
        )
        return d <= tol
    ring = list(zip(hull, hull[1:] + hull[:1]))
    qx, qy = q.tolist()

    def right_of(a, b):
        (ax, ay), (bx, by) = corners[a], corners[b]
        return (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) < 0

    # Inside iff q is right of no CCW hull edge; otherwise it may still
    # be within tol of the boundary.
    if not any(right_of(a, b) for a, b in ring):
        return True
    return min(_point_segment_distance(q, pts[a], pts[b]) for a, b in ring) <= tol
