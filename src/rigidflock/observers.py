"""Distributed variable-structure observers on a communication graph.

Each agent carries an estimate of a common time-varying signal; only
flagged agents measure the signal directly.  Estimates evolve with a
signum consensus law whose gain must dominate the signal's rate bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, laplacian


def sgn(x: np.ndarray, smoothing_epsilon: float = 0.0) -> np.ndarray:
    """Componentwise signum with sgn(0) = 0 exactly.

    With ``smoothing_epsilon`` > 0, the discontinuity is replaced by the
    linear saturation clip(x / eps, -1, 1).
    """
    x = np.asarray(x, dtype=float)
    if smoothing_epsilon < 0:
        raise ValueError("smoothing_epsilon must be >= 0")
    if smoothing_epsilon > 0:
        return np.clip(x / smoothing_epsilon, -1.0, 1.0)
    return np.sign(x)


def m_matrix(g: Graph, access_flags: np.ndarray) -> np.ndarray:
    """L + diag(b): positive definite iff connected and some b_i = 1."""
    b = np.asarray(access_flags, dtype=float)
    if b.shape != (g.n,):
        raise ValueError(f"access_flags shape {b.shape} does not match ({g.n},)")
    if not np.all((b == 0) | (b == 1)):
        raise ValueError("access_flags must be 0/1")
    return laplacian(g) + np.diag(b)


def gain_check(alpha: float, gamma: float) -> bool:
    """True iff the observer gain strictly dominates the rate bound."""
    if gamma < 0:
        raise ValueError("rate bound gamma must be >= 0")
    if alpha <= 0:
        raise ValueError("observer gain alpha must be > 0")
    return alpha > gamma


@dataclass
class ObserverBank:
    """Per-agent estimates of one planar signal.

    Parameters
    ----------
    estimates : array_like, shape (n, 2)
    alpha : float
        Signum gain, > 0.
    access_flags : array_like, shape (n,)
        0/1 per agent; flagged agents measure the signal directly.
    """

    estimates: np.ndarray
    alpha: float
    access_flags: np.ndarray

    def __post_init__(self):
        est = np.array(self.estimates, dtype=float)
        if est.ndim != 2 or est.shape[1] != 2:
            raise ValueError(f"estimates must be (n, 2), got {est.shape}")
        if not np.all(np.isfinite(est)):
            raise ValueError("estimates must be finite")
        b = np.array(self.access_flags, dtype=float)
        if b.shape != (est.shape[0],):
            raise ValueError("access_flags length must match estimates")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("access_flags must be 0/1")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive")
        self.estimates = est
        self.access_flags = b

    @property
    def n(self) -> int:
        return self.estimates.shape[0]


def consensus_observer_rate(
    bank: ObserverBank,
    g: Graph,
    reference: np.ndarray | None = None,
    *,
    anchor_sign: float = 1.0,
    smoothing_epsilon: float = 0.0,
    frame_angles: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate rates -alpha * sgn(L xhat + anchor_sign * b (xhat - ref)).

    Parameters
    ----------
    bank : ObserverBank
    g : Graph
        Communication graph on the same n agents.
    reference : (2,) or (n, 2) array, optional
        Measured signal for flagged agents; required whenever any
        access flag is set.  A (2,) vector is shared by all flagged
        agents; an (n, 2) array gives per-agent values (only flagged
        rows are read).
    anchor_sign : float
        +1 (default) anchors flagged agents toward the reference; -1
        flips the absolute term's sign.
    smoothing_epsilon : float
        Optional linear-saturation width replacing the hard signum.
    frame_angles : (n,) array, optional
        When given, the signum for agent i is evaluated in the frame
        rotated by frame_angles[i]; rates come back in the common
        frame.  This keeps the closed loop equivariant under global
        rotations while leaving the consensus analysis intact.

    Returns
    -------
    (n, 2) array of estimate rates.
    """
    if g.n != bank.n:
        raise ValueError(f"graph has {g.n} nodes but bank has {bank.n} agents")
    if anchor_sign not in (1.0, -1.0, 1, -1):
        raise ValueError("anchor_sign must be +1 or -1")
    est = bank.estimates
    b = bank.access_flags
    arg = laplacian(g) @ est
    if np.any(b != 0):
        if reference is None:
            raise ValueError("reference required when any access flag is set")
        ref = np.asarray(reference, dtype=float)
        if ref.shape == (2,):
            ref_rows = np.broadcast_to(ref, est.shape)
        elif ref.shape == est.shape:
            ref_rows = ref
        else:
            raise ValueError(f"reference shape {ref.shape} is not (2,) or {est.shape}")
        flagged = b != 0
        if not np.all(np.isfinite(ref_rows[flagged])):
            raise ValueError("reference must be finite for flagged agents")
        arg = arg + float(anchor_sign) * b[:, None] * (est - ref_rows)
    ang = np.zeros(bank.n) if frame_angles is None else np.asarray(
        frame_angles, dtype=float)
    if ang.shape != (bank.n,):
        raise ValueError(f"frame_angles shape {ang.shape} does not match ({bank.n},)")
    q = np.cos(ang) + 1j * np.sin(ang)
    return signum_rates(arg.view(complex), q, -bank.alpha,
                        smoothing_epsilon).view(float)


def signum_rates(arg: np.ndarray, q: np.ndarray, neg_alpha,
                 smoothing_epsilon: float, out: np.ndarray | None = None) -> np.ndarray:
    """Observer rates -alpha q sgn(conj(q) arg) for K channels at once.

    ``arg`` is complex (n, K): each agent's consensus-plus-anchor sum
    per channel, x + iy.  ``q`` is complex (n,), exp(i theta) of each
    agent's frame, and ``neg_alpha`` the negated gain per channel.  The
    signum is taken in each agent's frame and the result rotated back,
    which keeps the closed loop equivariant under global rotations.
    The rates are written to ``out`` (complex (n, K)) when it is given.
    """
    body = (arg * q.conj()[:, None]).view(float)
    if smoothing_epsilon > 0.0:
        np.divide(body, smoothing_epsilon, out=body)
        # np.clip's result, without its Python-level argument handling
        np.minimum(np.maximum(body, -1.0, out=body), 1.0, out=body)
    else:
        np.sign(body, out=body)
    rate = np.multiply(body.view(complex), q[:, None], out=out)
    rate *= neg_alpha
    return rate
