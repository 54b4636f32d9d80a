"""Rigidity of planar frameworks: edge functions, rigidity matrices, ranks.

A framework is a graph together with an embedding of its nodes in the
plane.  Infinitesimal rigidity is decided by the rank of the rigidity
matrix; target formations additionally carry the desired inter-agent
distances and must be minimally and infinitesimally rigid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, is_connected

# Relative tolerance for the rank decision, applied to the largest
# singular value (absolute fallback when everything is tiny).
RANK_RTOL = 1e-10

# Desired distances must agree with the embedded positions to this
# absolute tolerance (in meters).
DISTANCE_CONSISTENCY_ATOL = 1e-9


@dataclass(frozen=True)
class Framework:
    """A graph embedded in the plane.

    Parameters
    ----------
    graph : Graph
    positions : array_like, shape (n, 2)
        Node positions in meters, row ``i`` for node ``i + 1``.
    """

    graph: Graph
    positions: np.ndarray

    def __post_init__(self):
        p = np.array(self.positions, dtype=float)
        if p.shape != (self.graph.n, 2):
            raise ValueError(
                f"positions shape {p.shape} does not match (n, 2) = ({self.graph.n}, 2)"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def n(self) -> int:
        return self.graph.n


def edge_function(f: Framework) -> np.ndarray:
    """Squared edge lengths, one per edge in canonical order."""
    e = f.graph.edge_array()
    d = f.positions[e[:, 0]] - f.positions[e[:, 1]]
    return np.einsum("ij,ij->i", d, d)


def rigidity_matrix(f: Framework) -> np.ndarray:
    """The (a, 2n) rigidity matrix.

    Row k for edge (i, j) carries (p_i - p_j)^T in the two columns of
    node i and its negative in the columns of node j; it equals half
    the Jacobian of the edge function.
    """
    e = f.graph.edge_array()
    k = np.arange(e.shape[0])
    d = f.positions[e[:, 0]] - f.positions[e[:, 1]]
    R = np.zeros((e.shape[0], f.n, 2))
    R[k, e[:, 0]] = d
    R[k, e[:, 1]] = -d
    return R.reshape(e.shape[0], 2 * f.n)


def reduced_rigidity_matrix(f: Framework, leader: int) -> np.ndarray:
    """Rigidity matrix with the leader's two position columns zeroed.

    The leader must be node ``n`` (the highest id).
    """
    if leader != f.n:
        raise ValueError(f"leader must be node n = {f.n}, got {leader}")
    R0 = rigidity_matrix(f)
    R0[:, 2 * (leader - 1) : 2 * leader] = 0.0
    return R0


def rigidity_rank(f: Framework) -> int:
    """Numerical rank of the rigidity matrix (tolerance ``RANK_RTOL``)."""
    R = rigidity_matrix(f)
    if R.size == 0:
        return 0
    s = np.linalg.svd(R, compute_uv=False)
    cutoff = RANK_RTOL * s[0] if s[0] > 0 else 0.0
    return int(np.sum(s > max(cutoff, RANK_RTOL)))


def is_infinitesimally_rigid(f: Framework) -> bool:
    """True iff rank R = 2n - 3 (planar test, needs n >= 3)."""
    if f.n < 3:
        raise ValueError(f"rigidity test needs at least 3 nodes, got {f.n}")
    return rigidity_rank(f) == 2 * f.n - 3


def is_minimally_rigid(f: Framework) -> bool:
    """True iff infinitesimally rigid with exactly 2n - 3 edges."""
    return is_infinitesimally_rigid(f) and f.graph.edge_count == 2 * f.n - 3


@dataclass(frozen=True)
class TargetFormation:
    """Desired formation: an embedded graph plus desired edge distances.

    Validated at construction: distances must be positive, consistent
    with the embedded positions, and the framework must be minimally
    infinitesimally rigid on a connected graph.
    """

    framework: Framework
    distances: np.ndarray

    def __post_init__(self):
        d = np.array(self.distances, dtype=float)
        a = self.framework.graph.edge_count
        if d.shape != (a,):
            raise ValueError(f"distances shape {d.shape} does not match edge count {a}")
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
            raise ValueError("distances must be finite and positive")
        actual = np.sqrt(edge_function(self.framework))
        err = np.abs(actual - d)
        if np.any(err > DISTANCE_CONSISTENCY_ATOL):
            k = int(np.argmax(err))
            i, j = self.framework.graph.edges[k]
            raise ValueError(
                f"distance for edge ({i}, {j}) disagrees with positions by {err[k]:.3e} m"
            )
        if not is_connected(self.framework.graph):
            raise ValueError("target formation graph must be connected")
        if not is_minimally_rigid(self.framework):
            raise ValueError("target formation must be minimally infinitesimally rigid")
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)

    @property
    def n(self) -> int:
        return self.framework.n


def shape_distance(positions: np.ndarray,
                   target_positions: np.ndarray) -> float | np.ndarray:
    """RMS distance to the target shape over rotations and translations.

    Every row of (..., n, 2) ``positions`` at once (one row gives a
    ``float``) against the (n, 2) target embedding q: minimizes ``rms_i
    |(p_i - pbar) - Rot(phi) (q_i - qbar)|`` over phi (no reflections).
    With A = sum(pc . qc) and B = sum(pc x qc), the aligned cost is
    (|pc|^2 + |qc|^2 - 2 sqrt(A^2 + B^2)) / n; zero on isometric copies.
    """
    p, q = np.asarray(positions, dtype=float), np.asarray(target_positions, dtype=float)
    if p.shape[-2:] != q.shape:
        raise ValueError(f"positions shape {p.shape} does not match {q.shape}")
    shape, p = p.shape[:-2], p.reshape(-1, *q.shape)
    qc = q - q.mean(axis=0)
    qnorm = float(np.einsum("ij,ij->", qc, qc))
    pc = p - p.mean(axis=1, keepdims=True)
    A = np.einsum("rij,ij->r", pc, qc)
    B = np.einsum("ri,i->r", pc[:, :, 1], qc[:, 0]) - np.einsum(
        "ri,i->r", pc[:, :, 0], qc[:, 1])
    sq = (np.einsum("rij,rij->r", pc, pc) + qnorm - 2.0 * np.hypot(A, B)) / q.shape[0]
    dist = np.sqrt(np.maximum(sq, 0.0))
    return float(dist[0]) if not shape else dist.reshape(shape)
