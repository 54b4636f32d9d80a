"""Tests for interception control laws and convex-hull containment.

A follower's u and udot are ``control_u``/``u_dot`` with the feedforward
k_t e_t_hat + v_t_hat and its rate k_t e_t_hat_rate + v_t_hat_rate.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflock import engine
from rigidflock.engine import TrajectoryLog, convex_hull_contains, hull_containment
from rigidflock.oracle import (
    control_u,
    interception_error_rate,
    leader_u,
    leader_u_dot,
    u_dot,
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
    u_f = control_u(np.zeros((0, 2)), np.zeros(0), k_t * e_t + v_t, 6.0)
    np.testing.assert_allclose(u_f, leader_u(e_t, v_t, k_t))


def test_follower_u_zero_cases():
    u = control_u(np.array([[1.0, 0.0]]), np.zeros(1),
                  1.0 * np.zeros(2) + np.zeros(2), 6.0)
    np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)


def test_follower_u_single_neighbor_hand_case():
    u = control_u(np.array([[0.0, 1.0]]), np.array([-1.0]),
                  1.0 * np.zeros(2) + np.zeros(2), 2.0)
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
    # With k_t = 0 the chase terms drop from the follower feedforward
    # k_t e_t_hat_rate + v_t_hat_rate and only the observer rate feeds
    # forward, which is the flocking law exactly.
    left = u_dot(rel, z, bu, bun, 0.0 * rng.normal(size=2) + vrate, k_a)
    right = u_dot(rel, z, bu, bun, vrate, k_a)
    np.testing.assert_allclose(left, right, atol=1e-15)


def test_follower_u_dot_single_edge_hand_case():
    rel = np.array([[-1.0, 0.0]])
    out = u_dot(rel, np.array([0.0]), np.array([1.0, 0.0]),
                np.zeros((1, 2)), 1.0 * np.zeros(2) + np.zeros(2), 1.0)
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
    assert convex_hull_contains(UNIT_SQUARE, [0.5, -0.5e-9])


def test_hull_band_holds_along_every_edge():
    # Points along each edge of a pentagon, on it and 2e-9 m either side,
    # tested as one batch and row by row.
    angle = 2 * np.pi * np.arange(5) / 5 + 0.3
    pts = np.column_stack([np.cos(angle), np.sin(angle)]) * 1.7 + [0.4, -0.2]
    rows, want = [], []
    for a, b in zip(pts, np.roll(pts, -1, axis=0)):
        out = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        for t in np.linspace(0.0, 1.0, 9):
            for shift, inside in ((0.0, True), (2e-9, False), (-2e-9, True)):
                rows.append(a + t * (b - a) + shift * out)
                want.append(inside)
    flags = convex_hull_contains(np.broadcast_to(pts, (len(rows), 5, 2)), np.array(rows))
    assert flags.tolist() == want
    assert [convex_hull_contains(pts, q) for q in rows] == want


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


def orient(a, b, p):
    """Exact orientation of p against a -> b: > 0 left, 0 on the line, < 0 right."""
    (ax, ay), (bx, by), (px, py) = [[Fraction(float(x)) for x in v] for v in (a, b, p)]
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def in_some_triangle(pts, q):
    """Caratheodory oracle: q is in conv(pts) iff some triangle holds it.

    Exact for a hull with an interior; a triangle of zero area is
    skipped, since its three zero orientations would hold any q on its
    line.
    """
    for a, b, c in combinations(pts, 3):
        s = (orient(a, b, q), orient(b, c, q), orient(c, a, q))
        if orient(a, b, c) and (min(s) >= 0 or max(s) <= 0):
            return True
    return False


def exactly_inside(pts, q):
    """The hull test's contract, exactly: q in conv(pts) or within 1e-9 m."""
    band = min(segment_distance(q, a, b)
               for a, b in combinations_with_replacement(pts, 2))
    return bool(band <= 1e-9 or in_some_triangle(pts, q))


def test_hull_sliver_beyond_the_ends_is_outside():
    # Three followers on one line in the reals but a float sliver, with
    # the target on that line 0.151 m beyond their ends: the exact
    # orientations have mixed signs, so it is outside.
    pts = np.array([[-0.20942376681479224, 0.6337790602883606],
                    [1.0318315006299024, -0.23297274002482687],
                    [1.2800825541188412, -0.40632310008746436]])
    q = np.array([-0.3335492935592617, 0.7204542403196794])
    assert not in_some_triangle(pts, q)
    assert min(segment_distance(q, a, b) for a, b in combinations(pts, 2)) > 0.15
    assert convex_hull_contains(pts, q) is False


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


# Small integers give coincident and collinear followers; floats give
# general position.
COORD = st.one_of(st.integers(-6, 6).map(float),
                  st.floats(-10, 10, allow_nan=False, allow_infinity=False))


def hull_edges(pts):
    """Pairs (a, b) of distinct points with every point left of or on a -> b:
    segments of the hull's boundary, each run counterclockwise."""
    return [(a, b) for a, b in permutations(pts, 2) if (a != b).any()
            and all(orient(a, b, p) >= 0 for p in pts)]


def draw_row(data, m):
    """Followers (m, 2) and a target of a drawn kind relative to them."""
    kind = data.draw(st.sampled_from(
        ["inside", "outside", "vertex", "edge", "collinear"]))
    pts = np.array(data.draw(st.lists(st.tuples(COORD, COORD),
                                      min_size=m, max_size=m)))
    if kind == "inside":
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                        max_size=m)))
        w = w / w.sum() if w.sum() > 0 else np.full(m, 1.0 / m)
        return pts, w @ pts
    if kind == "outside":
        return pts, np.array(data.draw(st.tuples(COORD, COORD))) * 2.0
    if kind == "vertex":
        return pts, pts[data.draw(st.integers(0, m - 1))]
    if kind == "edge":  # on a hull edge, or just outside or inside it
        a, b = data.draw(st.sampled_from(hull_edges(pts) or [(pts[0], pts[0])]))
        q = a + data.draw(st.sampled_from([0.0, 0.25, 0.5, 1 / 3])) * (b - a)
        out = np.array([b[1] - a[1], a[0] - b[0]])  # every point is left of a -> b
        if out.any():
            q = q + data.draw(st.sampled_from([0.0, 1e-8, -1e-8, 1e-6])) \
                * out / np.hypot(*out)
        return pts, q
    # Followers on one line, the target on it or beside it.
    origin = np.array(data.draw(st.tuples(COORD, COORD)))
    step = np.array(data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
                    dtype=float)
    s = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
    side = data.draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.5]))
    at = data.draw(st.integers(-6, 6)) / 2
    return (origin + s[:, None] * step,
            origin + at * step + side * np.array([-step[1], step[0]]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m=st.integers(2, 12), rows=st.integers(1, 6))
def test_hull_containment_matches_per_row_test(data, m, rows):
    drawn = [draw_row(data, m) for _ in range(rows)]
    followers = np.array([pts for pts, _ in drawn])
    targets = np.array([q for _, q in drawn])
    flags = hull_containment(intercept_log(followers, targets))
    assert flags.tolist() == [exactly_inside(pts, q) for pts, q in drawn]


def test_hull_containment_tests_clear_rows_at_once(monkeypatch):
    # Rows well inside or well outside a hull: each call tests all of
    # its rows with one call of the hull test.
    calls = []
    monkeypatch.setattr(engine, "convex_hull_contains",
                        lambda pts, q: calls.append(1) or convex_hull_contains(pts, q))
    rng = np.random.default_rng(3)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=(200, 5)), axis=1)
    followers = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    followers[:, ::2] *= 2.0  # not every row is a cyclic polygon
    centers = followers.mean(axis=1)
    inside = hull_containment(intercept_log(followers, centers))
    assert inside.all() and len(calls) == 1
    outside = hull_containment(intercept_log(followers, centers + 5.0))
    assert not outside.any() and len(calls) == 2
