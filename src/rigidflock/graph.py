"""Undirected graphs over agents 1..n with a canonical edge order.

Node ids are 1-based in the public API.  Edges are normalized to
``(min, max)`` and sorted lexicographically, so every edge-indexed
quantity in the package (distance errors, rigidity-matrix rows, CSV
columns) shares one fixed ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on nodes ``1..n``.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.
    edges : iterable of (int, int)
        Undirected edges between distinct nodes in ``1..n``; ids must be
        Python ints (not bool).  Stored normalized to ``(min, max)`` and
        sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        seen = set()
        norm = []
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {tuple(e)} is not a pair of node ids")
            i, j = e
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (i, j)):
                raise ValueError(f"edge {tuple(e)} has a node id that is not an integer")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) outside nodes 1..{n}")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            norm.append(pair)
        norm.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """Edges as an (a, 2) int64 array of 0-based node indices."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64) - 1


def neighbors(g: Graph, i: int) -> tuple[int, ...]:
    """Sorted neighbor ids of node ``i`` (1-based)."""
    if not (1 <= i <= g.n):
        raise ValueError(f"node {i} outside 1..{g.n}")
    out = []
    for a, b in g.edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return tuple(sorted(out))


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric (n, n) 0/1 adjacency matrix."""
    A = np.zeros((g.n, g.n))
    for a, b in g.edges:
        A[a - 1, b - 1] = 1.0
        A[b - 1, a - 1] = 1.0
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def is_connected(g: Graph) -> bool:
    """True iff the graph is connected (single node counts as connected)."""
    if g.n == 1:
        return True
    adj = {i: [] for i in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n
