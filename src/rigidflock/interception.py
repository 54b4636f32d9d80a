"""Leader-based target interception on top of the flocking controller.

Agent n (the leader) measures a moving target directly and chases it;
followers keep the formation around the leader while feeding estimated
target terms forward.  The target's designated interception point must
sit inside the convex hull of the followers' desired positions so the
formation surrounds the target on arrival.  ``convex_hull_contains`` is
the package's one hull test: the scenario parser checks that point with
it, and the engine's ``hull_containment`` series runs it over every
chunk of a run's rows at once.
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
