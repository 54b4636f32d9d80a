"""Tests for planar rigidity: edge functions, rigidity matrices, shapes."""

import numpy as np
import pytest

from rigidflock.graph import Graph
from rigidflock.rigidity import (
    Framework,
    TargetFormation,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    reduced_rigidity_matrix,
    rigidity_matrix,
    rigidity_rank,
    shape_distance,
)
from rigidflock.unicycle import rot_matrix

PENTAGON_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]


def triangle():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    return Framework(g, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def pentagon(radius=0.1):
    ang = np.pi / 2 + 2.0 * np.pi * np.arange(5) / 5.0
    pos = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return Framework(Graph(5, PENTAGON_EDGES), pos)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_framework_validates_shape_and_finiteness():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        Framework(g, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        Framework(g, [[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]])


def test_framework_positions_read_only():
    f = triangle()
    with pytest.raises(ValueError):
        f.positions[0, 0] = 5.0


def test_edge_function_triangle():
    np.testing.assert_allclose(edge_function(triangle()), [1.0, 1.0, 2.0])


def test_edge_function_translation_invariant():
    rng = np.random.default_rng(11)
    g = complete_graph(4)
    for _ in range(10):
        p = rng.normal(size=(4, 2))
        t = rng.normal(size=2)
        f = Framework(g, p)
        ft = Framework(g, p + t)
        np.testing.assert_allclose(edge_function(f), edge_function(ft), atol=1e-12)


def test_edge_function_pentagon_values():
    phi = edge_function(pentagon())
    side = 0.013819660112501053  # 0.01 * 2 (1 - cos 72deg)
    diag = 0.036180339887498955  # 0.01 * 2 (1 + cos 36deg)
    # Canonical edge order: (1,2),(1,3),(1,4),(1,5),(2,3),(3,4),(4,5);
    # (1,3) and (1,4) are the diagonals.
    np.testing.assert_allclose(phi, [side, diag, diag, side, side, side, side],
                               atol=1e-12)


def test_rigidity_matrix_triangle_row():
    R = rigidity_matrix(triangle())
    np.testing.assert_allclose(R[0], [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert R.shape == (3, 6)


def test_rigidity_matrix_is_half_jacobian():
    rng = np.random.default_rng(3)
    g = complete_graph(4)
    p = rng.normal(size=(4, 2))
    f = Framework(g, p)
    R = rigidity_matrix(f)
    eps = 1e-6
    num = np.zeros_like(R)
    for col in range(8):
        dp = p.copy().reshape(-1)
        dm = p.copy().reshape(-1)
        dp[col] += eps
        dm[col] -= eps
        fp = Framework(g, dp.reshape(4, 2))
        fm = Framework(g, dm.reshape(4, 2))
        num[:, col] = (edge_function(fp) - edge_function(fm)) / (2 * eps)
    np.testing.assert_allclose(2.0 * R, num, atol=1e-6)


def test_rigidity_matrix_annihilates_translations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        x = rng.normal(size=2)
        resid = rigidity_matrix(f) @ np.tile(x, n)
        assert np.abs(resid).max() < 1e-12


def test_triangle_rank_and_rigidity():
    f = triangle()
    assert rigidity_rank(f) == 3
    assert is_infinitesimally_rigid(f)
    assert is_minimally_rigid(f)


def test_pentagon_rank_and_rigidity():
    f = pentagon()
    assert rigidity_rank(f) == 7
    assert is_infinitesimally_rigid(f)
    assert is_minimally_rigid(f)


def test_square_without_diagonal_not_rigid():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    f = Framework(g, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert rigidity_rank(f) == 4
    assert not is_infinitesimally_rigid(f)


def test_collinear_points_not_rigid():
    g = complete_graph(4)
    f = Framework(g, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    assert not is_infinitesimally_rigid(f)


def test_extra_edge_breaks_minimality():
    g = Graph(5, PENTAGON_EDGES + [(2, 5)])
    f = Framework(g, pentagon().positions)
    assert is_infinitesimally_rigid(f)
    assert not is_minimally_rigid(f)


def test_rigidity_test_needs_three_nodes():
    f = Framework(Graph(2, [(1, 2)]), [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        is_infinitesimally_rigid(f)


def test_random_complete_graphs_rigid():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        assert is_infinitesimally_rigid(f)


def test_reduced_matrix_zeroes_leader_columns():
    f = triangle()
    R = rigidity_matrix(f)
    R0 = reduced_rigidity_matrix(f, 3)
    np.testing.assert_array_equal(R0[:, 4:6], 0.0)
    np.testing.assert_array_equal(R0[:, :4], R[:, :4])


def test_reduced_matrix_requires_leader_n():
    with pytest.raises(ValueError):
        reduced_rigidity_matrix(triangle(), 1)


def test_reduced_matrix_product_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        R = rigidity_matrix(f)
        R0 = reduced_rigidity_matrix(f, n)
        assert np.abs(R @ R0.T - R0 @ R0.T).max() < 1e-12


def test_reduced_matrix_preserves_rank():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        R0 = reduced_rigidity_matrix(f, n)
        s = np.linalg.svd(R0, compute_uv=False)
        rank0 = int(np.sum(s > 1e-10 * s[0]))
        assert rank0 == rigidity_rank(f)


def test_target_formation_accepts_consistent_distances():
    f = pentagon()
    t = TargetFormation(f, np.sqrt(edge_function(f)))
    assert t.n == 5


def test_target_formation_rejects_bad_distances():
    f = pentagon()
    d = np.sqrt(edge_function(f))
    d[2] += 1e-3
    with pytest.raises(ValueError, match="disagrees"):
        TargetFormation(f, d)
    with pytest.raises(ValueError):
        TargetFormation(f, -d)


def test_target_formation_rejects_non_rigid():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    f = Framework(g, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="rigid"):
        TargetFormation(f, np.sqrt(edge_function(f)))


def test_target_formation_rejects_disconnected():
    # Two triangles sharing no edge: rank cannot reach 2n-3 anyway, but
    # the connectivity check must fire first with a clear message.
    g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    pos = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
    f = Framework(g, pos)
    with pytest.raises(ValueError, match="connected"):
        TargetFormation(f, np.sqrt(edge_function(f)))


def pentagon_target():
    f = pentagon()
    return TargetFormation(f, np.sqrt(edge_function(f)))


def test_shape_distance_zero_under_isometry():
    t = pentagon_target()
    rng = np.random.default_rng(41)
    for _ in range(10):
        phi = rng.uniform(-np.pi, np.pi)
        off = rng.normal(size=2)
        p = t.framework.positions @ rot_matrix(phi).T + off
        assert shape_distance(p, t.framework.positions) < 1e-9


def test_shape_distance_bounded_by_perturbation():
    t = pentagon_target()
    p = t.framework.positions.copy()
    p[0] += [1e-3, 0.0]
    d = shape_distance(p, t.framework.positions)
    assert 0.0 < d <= 1e-3


def test_shape_distance_positive_for_reflection():
    t = pentagon_target()
    p = t.framework.positions.copy()
    p[:, 0] *= -1.0
    assert shape_distance(p, t.framework.positions) > 1e-3
