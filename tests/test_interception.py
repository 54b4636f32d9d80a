"""Tests for interception control laws and convex-hull containment."""

from itertools import combinations

import numpy as np

from rigidflock.engine import TrajectoryLog, hull_containment
from rigidflock.flocking import u_dot
from rigidflock.interception import (
    convex_hull_contains,
    follower_u,
    follower_u_dot,
    interception_error_rate,
    leader_u,
    leader_u_dot,
)


def test_leader_u_cases():
    v_t = np.array([0.2, -0.1])
    np.testing.assert_array_equal(leader_u(np.zeros(2), v_t, 3.0), v_t)
    np.testing.assert_array_equal(leader_u([1.0, 0.0], np.zeros(2), 2.0),
                                  [2.0, 0.0])
    e = np.array([0.4, 0.7])
    np.testing.assert_allclose(leader_u(2.0 * e, np.zeros(2), 1.5),
                               2.0 * leader_u(e, np.zeros(2), 1.5))


def test_follower_u_mirrors_leader_with_exact_estimates():
    e_t = np.array([0.3, -0.2])
    v_t = np.array([0.05, 0.02])
    k_t = 1.7
    u_f = follower_u(np.zeros((0, 2)), np.zeros(0), e_t, v_t, 6.0, k_t)
    np.testing.assert_allclose(u_f, leader_u(e_t, v_t, k_t))


def test_follower_u_zero_cases():
    u = follower_u(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros(2),
                   np.zeros(2), 6.0, 1.0)
    np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)


def test_follower_u_single_neighbor_hand_case():
    u = follower_u(np.array([[0.0, 1.0]]), np.array([-1.0]), np.zeros(2),
                   np.zeros(2), 2.0, 1.0)
    np.testing.assert_allclose(u, [0.0, 2.0])


def test_error_rate_cases():
    v_t = np.array([0.1, -0.3])
    # Aligned leader at zero error: chases exactly, error frozen.
    np.testing.assert_allclose(
        interception_error_rate(np.zeros(2), v_t, 0.0, 2.0), np.zeros(2),
        atol=1e-15)
    # Perpendicular heading: the input map kills u, so edot = v_t.
    np.testing.assert_allclose(
        interception_error_rate([0.5, 0.0], v_t, np.pi / 2, 2.0), v_t,
        atol=1e-15)


def test_leader_u_dot_cases():
    a_t = np.array([0.01, 0.02])
    np.testing.assert_allclose(leader_u_dot(np.zeros(2), a_t, 1.0), a_t)
    # Stationary target, aligned leader: udot = -k_t^2 e_t.
    e_t = np.array([0.4, -0.1])
    k_t = 1.3
    etd = interception_error_rate(e_t, np.zeros(2), 0.0, k_t)
    np.testing.assert_allclose(leader_u_dot(etd, np.zeros(2), k_t),
                               -k_t**2 * e_t, atol=1e-14)


def test_follower_u_dot_reduces_to_flocking():
    rng = np.random.default_rng(21)
    rel = rng.normal(size=(3, 2))
    z = rng.normal(size=3)
    bu = rng.normal(size=2)
    bun = rng.normal(size=(3, 2))
    vrate = rng.normal(size=2)
    k_a = 4.0
    # With k_t = 0 the chase terms drop and only the observer rate
    # feeds forward, which is the flocking law exactly.
    left = follower_u_dot(rel, z, bu, bun, rng.normal(size=2), vrate, k_a, 0.0)
    right = u_dot(rel, z, bu, bun, vrate, k_a)
    np.testing.assert_allclose(left, right, atol=1e-15)


def test_follower_u_dot_single_edge_hand_case():
    rel = np.array([[-1.0, 0.0]])
    out = follower_u_dot(rel, np.array([0.0]), np.array([1.0, 0.0]),
                         np.zeros((1, 2)), np.zeros(2), np.zeros(2), 1.0, 1.0)
    np.testing.assert_allclose(out, [-2.0, 0.0])


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_hull_contains_interior_point():
    assert convex_hull_contains(UNIT_SQUARE, [0.5, 0.5])


def test_hull_excludes_exterior_point():
    assert not convex_hull_contains(UNIT_SQUARE, [2.0, 2.0])
    assert not convex_hull_contains(UNIT_SQUARE, [0.5, -0.1])


def test_hull_boundary_is_inclusive():
    assert convex_hull_contains(UNIT_SQUARE, [0.5, 0.0])
    assert convex_hull_contains(UNIT_SQUARE, [1.0, 1.0])
    assert convex_hull_contains(UNIT_SQUARE, [0.5, -0.5e-9], tol=1e-9)


def test_hull_interior_points_do_not_mask():
    pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.2, 0.8]]])
    assert convex_hull_contains(pts, [0.9, 0.9])
    assert not convex_hull_contains(pts, [1.1, 0.5])


def test_hull_collinear_fallback():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert convex_hull_contains(line, [1.5, 0.0])
    assert not convex_hull_contains(line, [1.5, 0.1])
    assert not convex_hull_contains(line, [2.5, 0.0])


def test_hull_degenerate_small_sets():
    assert convex_hull_contains(np.array([[1.0, 1.0]]), [1.0, 1.0])
    assert not convex_hull_contains(np.array([[1.0, 1.0]]), [1.0, 1.1])
    two = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert convex_hull_contains(two, [0.5, 0.5])
    assert not convex_hull_contains(two, [0.5, 0.6])


def test_hull_duplicate_points():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert convex_hull_contains(pts, [0.2, 0.2])
    assert not convex_hull_contains(pts, [0.8, 0.8])


def test_hull_random_triangles_agree_with_barycentric():
    rng = np.random.default_rng(29)
    for _ in range(50):
        tri = rng.normal(size=(3, 2))
        q = rng.normal(size=2)
        # Barycentric oracle.
        T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        if abs(np.linalg.det(T)) < 1e-9:
            continue
        lam = np.linalg.solve(T, q - tri[0])
        inside = lam[0] >= 0 and lam[1] >= 0 and lam.sum() <= 1.0
        margin = min(lam[0], lam[1], 1.0 - lam.sum())
        if abs(margin) < 1e-9:
            continue  # too close to the boundary to compare
        assert convex_hull_contains(tri, q) == inside


def segment_distance(q, a, b):
    ab = b - a
    t = 0.0 if not ab @ ab else np.clip((q - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.hypot(*(q - a - t * ab))


def in_some_triangle(pts, q):
    """Caratheodory oracle: q is in conv(pts) iff some triangle holds it."""
    def orient(a, b):
        return (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])

    for a, b, c in combinations(pts, 3):
        s = (orient(a, b), orient(b, c), orient(c, a))
        if min(s) >= 0 or max(s) <= 0:
            return True
    return False


def test_hull_random_quadruples_agree_with_triangle_oracle():
    rng = np.random.default_rng(41)
    verdicts = []
    for _ in range(2000):
        pts = rng.normal(size=(4, 2))
        q = 0.5 * rng.normal(size=2)
        # Every hull edge is one of the six point pairs.
        if min(segment_distance(q, a, b) for a, b in combinations(pts, 2)) < 1e-7:
            continue
        inside = in_some_triangle(pts, q)
        assert convex_hull_contains(pts, q) == inside, (pts, q)
        verdicts.append(inside)
    assert len(verdicts) > 1900
    assert 300 < sum(verdicts) < len(verdicts) - 300


def intercept_log(followers, targets):
    """A bare intercept-mode log: follower rows, a leader at the origin."""
    rows, m = followers.shape[:2]
    poses = np.zeros((rows, m + 1, 3))
    poses[:, :m, :2] = followers
    zeros = np.zeros((rows, m + 1))
    return TrajectoryLog("intercept", np.arange(rows, dtype=float), poses,
                         np.zeros((rows, m + 1, 2)), np.zeros((rows, m + 1, 2)),
                         zeros, np.zeros((rows, 0)), zeros, None,
                         target_pos=np.asarray(targets, dtype=float))


def test_hull_containment_matches_per_row_test_on_degenerate_rows():
    square = UNIT_SQUARE
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    doubled = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cases = [
        (line, [1.5, 0.0], True),            # collinear, on the segment
        (line, [1.5, 1e-3], False),          # collinear, off it
        (line, [3.0 + 2e-9, 0.0], False),    # collinear, past the end
        (doubled, [0.2, 0.2], True),         # two coincident followers
        (doubled, [0.8, 0.8], False),
        (square, [1.0, 1.0], True),          # on a vertex
        (square, [0.5, 0.0], True),          # on an edge
        (square, [0.5, -0.5e-9], True),      # outside, within the 1e-9 tol
        (square, [-2e-9, 0.5], False),       # outside, beyond it
        (square, [1.0 + 0.5e-9, 1.0 + 0.5e-9], True),
    ]
    log = intercept_log(np.array([c[0] for c in cases]), [c[1] for c in cases])
    flags = hull_containment(log)
    per_row = [convex_hull_contains(pts, q) for pts, q, _ in cases]
    assert flags.tolist() == per_row == [want for _, _, want in cases]
