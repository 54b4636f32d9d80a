"""Tests for undirected graphs: construction, neighbors, matrices."""

import numpy as np
import pytest

from rigidflock.graph import Graph, adjacency, is_connected, laplacian, neighbors

PENTAGON_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_edges_normalized_and_sorted():
    g = Graph(3, [(3, 1), (2, 1), (3, 2)])
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.edge_count == 3


def test_edge_array_is_zero_based():
    g = Graph(3, [(1, 2), (2, 3)])
    arr = g.edge_array()
    assert arr.dtype == np.int64
    np.testing.assert_array_equal(arr, [[0, 1], [1, 2]])


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 2)], [(1, 4)], [(1, 2), (2, 1)],
                                   [(1,)], [(1, 2, 3)],
                                   # node ids are ints: no truncation, no coercion
                                   [(1.5, 2)], [(1, 2.0)], [("1", "2")],
                                   [(True, 2)], [(1, False)]])
def test_invalid_edges_rejected(edges):
    with pytest.raises(ValueError):
        Graph(3, edges)


def test_invalid_node_count_rejected():
    with pytest.raises(ValueError):
        Graph(0, [])


def test_neighbors_triangle():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert neighbors(g, 1) == (2, 3)


def test_neighbors_pentagon_graph():
    g = Graph(5, PENTAGON_EDGES)
    assert neighbors(g, 1) == (2, 3, 4, 5)
    assert neighbors(g, 2) == (1, 3)


def test_neighbors_edgeless():
    g = Graph(4, [])
    for i in range(1, 5):
        assert neighbors(g, i) == ()


def test_neighbors_rejects_out_of_range():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        neighbors(g, 4)


def test_adjacency_triangle():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    expect = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_array_equal(adjacency(g), expect)


def test_adjacency_path_and_edgeless():
    path = Graph(3, [(1, 2), (2, 3)])
    a = adjacency(path)
    assert a[0, 1] == a[1, 2] == 1
    assert a[0, 2] == 0
    np.testing.assert_array_equal(adjacency(Graph(3, [])), np.zeros((3, 3)))


def test_laplacian_path():
    g = Graph(3, [(1, 2), (2, 3)])
    expect = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    np.testing.assert_array_equal(laplacian(g), expect)


def test_laplacian_annihilates_ones():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        take = rng.uniform(size=len(pairs)) < 0.5
        g = Graph(n, [p for p, keep in zip(pairs, take) if keep])
        resid = laplacian(g) @ np.ones(n)
        assert np.abs(resid).max() < 1e-12


def test_laplacian_pentagon_degrees():
    g = Graph(5, PENTAGON_EDGES)
    np.testing.assert_array_equal(np.diag(laplacian(g)), [4, 2, 3, 3, 2])


def test_is_connected():
    assert is_connected(Graph(5, PENTAGON_EDGES))
    assert not is_connected(Graph(2, []))
    two_triangles = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    assert not is_connected(Graph(6, two_triangles))
    assert is_connected(Graph(1, []))
