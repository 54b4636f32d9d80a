"""Hot rollout kernels: one closed loop in a loop form and a numpy form.

The env flag ``RIGIDFLOCK_NUMBA`` picks the default path ("0" disables
the compiled loop form, anything else or unset enables it when numba
imports).  Uncompiled, small formations run the loop form in CPython on
Python floats, as the straight-line function that ``unrolled``
generates for the law's graph and calls with its values (bit for bit
``_rollout_loops``), and larger ones the numpy form.  Every form stays
importable so they can be benchmarked and cross-checked in one process.
Within a form, rollouts are deterministic: canonical edge order, fixed
summation order, and no form starts a thread.  The CLI process runs on
one thread: it pins OpenBLAS to one before numpy loads.

Flock and intercept are two parameterizations of one law (``_Law``),
and both forms take one argument list (``_rollout_loops``).  Layout:
poses (n, 3) as (x, y, theta); the K observer estimates as one (n, 2K)
array, channel k in columns 2k and 2k + 1; edges (a, 2) of 0-based
indices; d2 the squared desired distances per edge.  The references
are one signal row per step of a call, one chunk's rows at a time:
v_0 for flock, [v_T, p_T, a_T] for intercept.  The logs ``outs`` are
(pose, cmd, u, heading_err, est): (v, omega) in cmd, and theta_err in
(-pi, pi], the heading error that steered the heading loop at that step
(the desired heading atan2(u) itself is never logged).

``flock_law`` and ``intercept_law`` are the one place a mode maps onto
the law's parameters, a ``Law``.  ``rollout`` runs a law in the form it
picks (the one kernel-choice rule), and ``flock_eval``/``intercept_eval``
evaluate it once (perfbench times them; nothing in the package steps
with them).  ``flock_rollout`` and ``intercept_rollout`` are both
``rollout``: perfbench traces the rollout through those two names.
``EPS_U`` is the law's parking threshold on |u|; ``oracle``'s per-agent
equations read it from here.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .observers import signum_rates
from .unicycle import TWO_PI, wrap_angle

try:
    import numba
    from numba.extending import overload, register_jitable
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None

HAS_NUMBA = numba is not None
USE_NUMBA = HAS_NUMBA and os.environ.get("RIGIDFLOCK_NUMBA", "1") != "0"

POS_LIMIT = 1e6

# An agent with |u| <= EPS_U is parked: its desired heading is pinned to
# zero instead of following atan2 noise, and its heading rate is zero.
EPS_U = 1e-12

STATUS_OK = 0
STATUS_DIVERGED = 1

# Most edges a formation may have for the uncompiled default to run it
# as the loop form on Python floats; larger ones run the numpy law.  The
# loop form's cost follows the edges, the law's barely moves, and a
# rigid graph has at least 2n - 3 edges, so this also caps n at 9.
# Set from the measured crossover (README, "Kernels and environment
# flags").
LIST_MAX_EDGES = 15


def _jitable(func):
    """``func`` unchanged, and compiled inline where numba compiles a caller.

    CPython calls the plain function whether or not numba is installed,
    so ``_rollout_loops`` runs uncompiled on arrays with numba disabled.
    """
    return register_jitable(func) if HAS_NUMBA else func


@_jitable
def _wrap(x):
    w = x % TWO_PI
    if w > np.pi:
        w -= TWO_PI
    return w


@_jitable
def _sgn(x, eps):
    if eps > 0.0:
        y = x / eps
        if y > 1.0:
            return 1.0
        if y < -1.0:
            return -1.0
        return y
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _zeros(n):
    """n zeros: a list in CPython; numba compiles it as ``np.zeros(n)``."""
    return [0.0] * n


def _zeros2(n, m):
    """(n, m) zeros as n row lists; numba compiles it as ``np.zeros((n, m))``."""
    return [[0.0] * m for _ in range(n)]


if HAS_NUMBA:
    @overload(_zeros)
    def _zeros_jit(n):
        return lambda n: np.zeros(n)

    @overload(_zeros2)
    def _zeros2_jit(n, m):
        return lambda n, m: np.zeros((n, m))


class Law(NamedTuple):
    """The closed loop's parameters (see ``_Law``); ``rollout`` passes them
    positionally, so the loop form receives arrays, ints and floats only."""

    edges: np.ndarray  # (a, 2) agent indices
    d2: np.ndarray  # (a,) squared desired distances
    anchor: np.ndarray  # (n,) weight of the reference in each agent's sums
    leader: int  # the free leader, -1 for none
    alphas: np.ndarray  # (K,) observer gains
    weights: np.ndarray  # (K,) channel weights in the planar control
    k_a: float
    c: np.ndarray  # (n,) heading gains
    smooth_eps: float  # signum width, 0 for the plain sign


# ---------------------------------------------------------------------------
# the closed loop, loop form (numba source, and the reference of ``unrolled``)
# ---------------------------------------------------------------------------

def _rollout_loops(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
                   k_a, c, smooth_eps, dt, n_steps, sample_every,
                   out_pose, out_cmd, out_u, out_te, out_est):
    """Explicit-Euler rollout of the closed loop, written as scalar loops.

    The law's parameters are the fields of ``Law``, in its order; row
    ``step`` of ``sig`` holds the references (see the module
    docstring).  Updates pose and est in place, logs steps 0,
    ``sample_every``, ... into rows 0, 1, ... of the ``out_*`` arrays and
    returns (status, agent, steps), with steps counted from this call's
    first step.  The caller keeps the times: a rollout may be run in
    chunks, each one continuing from the state the last one left.

    One source, and the reference of the uncompiled runtime.  numba
    compiles it with every argument an array, an int or a float.
    ``unrolled`` generates straight-line Python that runs its operations
    in its order on Python floats, and tests hold that function to this
    one run uncompiled on arrays, bit for bit.  Rows are read by chained
    indexing (``pose[i][0]``), which numba and CPython both index, and
    the scratch buffers come from ``_zeros``/``_zeros2``.
    """
    n = len(pose)
    a = len(edges)
    m2 = len(est[0])
    nk = m2 // 2
    pijx = _zeros(a)
    pijy = _zeros(a)
    zz = _zeros(a)
    gx = _zeros(n)
    gy = _zeros(n)
    sums = _zeros2(n, m2)
    rate = _zeros2(n, m2)
    ref = _zeros(m2)
    ux = _zeros(n)
    uy = _zeros(n)
    bux = _zeros(n)
    buy = _zeros(n)
    te = _zeros(n)
    udx = _zeros(n)
    udy = _zeros(n)
    vc = _zeros(n)
    wc = _zeros(n)
    row = 0
    for step in range(n_steps + 1):
        ref[0] = float(sig[step, 0])
        ref[1] = float(sig[step, 1])
        if leader >= 0:  # e_T = p_T - p_L
            ref[2] = float(sig[step, 2]) - pose[leader][0]
            ref[3] = float(sig[step, 3]) - pose[leader][1]
        for i in range(n):
            gx[i] = 0.0
            gy[i] = 0.0
            si = sums[i]
            for m in range(m2):
                si[m] = 0.0
        for k in range(a):
            i = edges[k][0]
            j = edges[k][1]
            dx = pose[i][0] - pose[j][0]
            dy = pose[i][1] - pose[j][1]
            z = dx * dx + dy * dy - d2[k]
            pijx[k] = dx
            pijy[k] = dy
            zz[k] = z
            gx[i] += dx * z
            gy[i] += dy * z
            gx[j] -= dx * z
            gy[j] -= dy * z
            ei = est[i]
            ej = est[j]
            si = sums[i]
            sj = sums[j]
            for m in range(m2):
                e = ei[m] - ej[m]
                si[m] += e
                sj[m] -= e
        # pass 1: observer rates (signum in each agent's frame), controls
        # and the estimates' part of their rates
        for i in range(n):
            th = pose[i][2]
            ct = math.cos(th)
            st = math.sin(th)
            ei = est[i]
            si = sums[i]
            ri = rate[i]
            bi = anchor[i]
            uxi = 0.0
            uyi = 0.0
            udxi = 0.0
            udyi = 0.0
            for k in range(nk):
                kx = 2 * k
                ky = kx + 1
                wk = weights[k]
                ax = si[kx] + bi * (ei[kx] - ref[kx])
                ay = si[ky] + bi * (ei[ky] - ref[ky])
                sx = _sgn(ct * ax + st * ay, smooth_eps)
                sy = _sgn(-st * ax + ct * ay, smooth_eps)
                rx = -alphas[k] * (ct * sx - st * sy)
                ry = -alphas[k] * (st * sx + ct * sy)
                ri[kx] = rx
                ri[ky] = ry
                udxi += wk * rx
                udyi += wk * ry
                if i == leader:  # free: the weighted true references
                    uxi += wk * ref[kx]
                    uyi += wk * ref[ky]
                else:
                    uxi += wk * ei[kx]
                    uyi += wk * ei[ky]
            if i != leader:
                uxi -= k_a * gx[i]
                uyi -= k_a * gy[i]
            nu = math.sqrt(uxi * uxi + uyi * uyi)
            tdi = math.atan2(uyi, uxi) if nu > EPS_U else 0.0
            tei = _wrap(th - tdi)
            bc = math.cos(tei)
            bs = math.sin(tei)
            ux[i] = uxi
            uy[i] = uyi
            te[i] = tei
            bux[i] = bc * (bc * uxi - bs * uyi)
            buy[i] = bc * (bs * uxi + bc * uyi)
            udx[i] = udxi  # the estimates' part of udot
            udy[i] = udyi
        # pass 2: control rates and commands
        if leader >= 0:  # the reference rates are a_T and v_T - B u_L
            udx[leader] = (weights[0] * float(sig[step, 4])
                           + weights[1] * (float(sig[step, 0]) - bux[leader]))
            udy[leader] = (weights[0] * float(sig[step, 5])
                           + weights[1] * (float(sig[step, 1]) - buy[leader]))
        for k in range(a):
            i = edges[k][0]
            j = edges[k][1]
            wx = bux[i] - bux[j]
            wy = buy[i] - buy[j]
            px = pijx[k]
            py = pijy[k]
            m11 = zz[k] + 2.0 * px * px
            m12 = 2.0 * px * py
            m22 = zz[k] + 2.0 * py * py
            fx = k_a * (m11 * wx + m12 * wy)
            fy = k_a * (m12 * wx + m22 * wy)
            if i != leader:
                udx[i] -= fx
                udy[i] -= fy
            if j != leader:
                udx[j] += fx
                udy[j] += fy
        for i in range(n):
            uxi = ux[i]
            uyi = uy[i]
            nu2 = uxi * uxi + uyi * uyi
            nu = math.sqrt(nu2)
            if nu > EPS_U:
                tidd = (uxi * udy[i] - uyi * udx[i]) / nu2
            else:
                tidd = 0.0
            vc[i] = nu * math.cos(te[i])
            wc[i] = -c[i] * te[i] + tidd
        if step % sample_every == 0:  # one slice write per logged quantity
            out_pose[row] = pose
            out_cmd[row, :, 0] = vc
            out_cmd[row, :, 1] = wc
            out_u[row, :, 0] = ux
            out_u[row, :, 1] = uy
            out_te[row] = te
            out_est[row] = est
            row += 1
        if step == n_steps:
            break
        for i in range(n):
            pi = pose[i]
            th = pi[2]
            x = pi[0] + vc[i] * math.cos(th) * dt
            y = pi[1] + vc[i] * math.sin(th) * dt
            th = _wrap(th + wc[i] * dt)
            pi[0] = x
            pi[1] = y
            pi[2] = th
            # A comparison with nan is false: the bounds reject nan too.
            ok = abs(x) <= POS_LIMIT and abs(y) <= POS_LIMIT and math.isfinite(th)
            ei = est[i]
            ri = rate[i]
            for m in range(m2):
                e = ei[m] + ri[m] * dt
                ei[m] = e
                ok = ok and math.isfinite(e)
            if not ok:
                return STATUS_DIVERGED, i, step + 1
    return STATUS_OK, -1, n_steps


# ---------------------------------------------------------------------------
# the closed loop, vectorized (numpy form)
# ---------------------------------------------------------------------------

class _Law:
    """The closed loop on one formation graph, vectorized over agents.

    Flock and intercept are two parameterizations of this law.  Agents
    carry K observer estimates; channel k has gain ``alphas[k]`` and
    weight ``weights[k]`` in the planar control (flock: v_f with 1;
    intercept: v_T with 1, e_T with k_t).  ``anchor[i]`` (+-1, or 0
    without access) weighs the reference in agent i's consensus sums.
    A ``leader`` (-1 for none) is free: its control is the weighted sum
    of the true references (v_T, e_T = p_T - p_L), with rates a_T and
    v_T - B u_L.

    The state X is one flat array: the rows [x, y, est_1, ..., est_K]
    of Z, (n, 2 + 2K), then the n headings theta.  Viewed as complex,
    column 0 of Z is the position and columns 1..K the estimates, so a
    rotation into a body frame is one product, and ``self.delta``, laid
    out like X, holds [q v, rate_1, ..., rate_K] and omega (q = exp(i
    theta)), so an explicit-Euler step is one update of X.  The
    distance gradient and all consensus sums are one ``np.bincount``
    over the rows of Z, with an index fixed per graph; the formation
    part of udot is a second one.

    The heading error comes from q conj(u) = |u| exp(i theta_err): one
    arctan2 gives theta_err in [-pi, pi] without a wrap, v = |u|
    cos(theta_err) is its real part, and B u = cos(theta_err)
    exp(i theta_err) u needs no cosine or sine.  Parked agents
    (|u| <= EPS_U), which have no heading to aim for, and an error of
    exactly -pi, which belongs at +pi, are rare: one reduction each
    tells whether ``_parked`` must run.
    """

    def __init__(self, law: Law):
        n, a, nk = len(law.anchor), len(law.edges), len(law.weights)
        self.a, self.d2, self.k_a, self.neg_c = a, law.d2, law.k_a, -law.c
        self.w = np.asarray(law.weights, dtype=complex)
        self.neg_alpha = -np.asarray(law.alphas, dtype=complex)
        self.anchor = np.asarray(law.anchor, dtype=complex)[:, None]
        self.leader, self.smooth_eps = law.leader, law.smooth_eps
        self.n, self.width = n, 2 + 2 * nk
        # Edge k adds its row of Z to agent i's sums and subtracts it from j's.
        self.ends = np.concatenate([law.edges[:, 0], law.edges[:, 1]]).astype(np.intp)
        self.sum_idx = (self.ends[:, None] * self.width
                        + np.arange(self.width)).ravel()
        self.udot_idx = (self.ends[:, None] * 2 + np.arange(2)).ravel()
        self.sum_w = np.empty((2, a, self.width))
        self.udot_w = np.empty((2, a), complex)
        # exp(i theta) and the state's rate of change, rewritten by every call
        self.q, self.delta = np.empty(n, dtype=complex), np.empty(n * (self.width + 1))
        d_z, self.d_theta = self.split(self.delta)
        self.d_pos, self.d_est = d_z.view(complex)[:, 0], d_z.view(complex)[:, 1:]
        self.ref = np.empty(nk, dtype=complex)
        self.live = None
        self._x = self._views = None  # the last state evaluated, and its views

    def split(self, X):
        """Views of a state laid out as X: Z, real (n, 2 + 2K), and theta."""
        nz = self.n * self.width
        return X[:nz].reshape(self.n, self.width), X[nz:]

    def state(self, pose, est):
        """The state X from poses (n, 3) and the estimates (n, 2K)."""
        return np.concatenate([np.concatenate([pose[:, :2], est], axis=1).ravel(),
                               pose[:, 2]])

    def __call__(self, X, sig):
        """Evaluate at state X (read only) under the signal row ``sig``,
        complex: [v_0] for flock, [v_T, p_T, a_T] for intercept.

        Returns (rate, u, theta_err, v, omega, udot): rate complex
        (n, K), u and udot complex (n,), the rest real (n,).  rate and
        omega are views of ``self.delta``, which holds the state's rate
        of change until the next call.
        """
        a, w, L = self.a, self.w, self.leader
        n, width = self.n, self.width
        if X is not self._x:
            Z, th = self.split(X)
            self._x, self._views = X, (Z, Z.view(complex), th)
        Z, zc, th = self._views
        est = zc[:, 1:]
        ref = self.ref
        ref[0] = sig[0]
        if L >= 0:  # e_T = p_T - p_L
            ref[1] = sig[1] - zc[L, 0]
        if a:
            x = Z.take(self.ends, axis=0)
            rows = np.subtract(x[:a], x[a:], out=self.sum_w[0])
            p = rows.view(complex)[:, 0]
            pij = p.copy()
            m = (pij * pij.conj()).real  # |p_i - p_j|^2
            z = m - self.d2
            p *= z
            np.negative(rows, out=self.sum_w[1])
            sums = np.bincount(self.sum_idx, self.sum_w.ravel(),
                               minlength=n * width).reshape(n, width).view(complex)
        else:  # np.bincount of nothing is an int array
            sums = np.zeros((n, width // 2), complex)
        cons = sums[:, 1:]
        cons += self.anchor * (est - ref)
        q = self.q
        np.cos(th, out=q.real)
        np.sin(th, out=q.imag)
        rate = signum_rates(cons, q, self.neg_alpha, self.smooth_eps,
                            out=self.d_est)

        u = np.dot(est, w)
        u -= self.k_a * sums[:, 0]
        if L >= 0:
            u[L] = np.dot(ref, w)
        uc = u.conj()
        nu2 = (u * uc).real
        qu = q * uc  # |u| exp(i theta_err)
        te = np.arctan2(qu.imag, qu.real)
        # sqrt is monotonic: this is min |u| > EPS_U, and false for a nan
        if math.sqrt(nu2.min()) > EPS_U and te.min() > -np.pi:
            self.live = None
            v = qu.real
            bu = u * qu * (v / nu2)  # B u = cos(theta_err) exp(i theta_err) u
        else:
            v, bu = self._parked(u, nu2, qu, q, th, te)

        udot = np.dot(rate, w)
        if a:
            b = bu.take(self.ends)
            dbu = b[:a] - b[a:]
            # k_a (z I + 2 p p^T) dbu, with p p^T w = (|p|^2 w + p^2 conj(w)) / 2
            f = (z + m) * dbu + pij * pij * dbu.conj()
            np.multiply(f, -self.k_a, out=self.udot_w[0])
            np.multiply(f, self.k_a, out=self.udot_w[1])
            udot += np.bincount(self.udot_idx, self.udot_w.view(float).ravel(),
                                minlength=2 * n).view(complex)
        if L >= 0:  # the reference rates are a_T and v_T - B u_L
            udot[L] = w[0] * sig[2] + w[1] * (sig[0] - bu[L])
        omega = np.multiply(self.neg_c, te, out=self.d_theta)
        if self.live is None:
            omega += (uc * udot).imag / nu2
        else:  # a parked agent has no heading rate
            omega += np.divide((uc * udot).imag, nu2, out=np.zeros_like(nu2),
                               where=self.live)
        np.multiply(q, v, out=self.d_pos)
        return rate, u, te, v, omega, udot

    def _parked(self, u, nu2, qu, q, th, te):
        """``__call__``'s v and B u when some agent is parked (|u| <= EPS_U,
        or nan) or has an error of -pi, which belongs at +pi.

        A parked agent aims for heading 0, so theta_err = wrap(theta) (set
        in ``te``) and exp(i theta_err) = q; ``qu`` is set to q |u|.
        """
        nu = np.sqrt(nu2)
        self.live = live = nu > EPS_U
        parked = ~live
        te[parked] = wrap_angle(th[parked])
        te[te == -np.pi] = np.pi
        qu[parked] = q[parked] * nu[parked]
        v = qu.real
        bu = u * qu * np.divide(v, nu2, out=np.zeros_like(nu2), where=live)
        bu[parked] = u[parked] * q[parked] * q.real[parked]
        return v, bu


def _planar(x):
    """Complex vectors (...,) as a real (..., 2) array."""
    return x.view(float).reshape(*x.shape, 2)


def _rollout_numpy(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
                   k_a, c, smooth_eps, dt, n_steps, sample_every,
                   out_pose, out_cmd, out_u, out_te, out_est):
    """The numpy form of ``_rollout_loops``: same arguments, same effects."""
    law = _Law(Law(edges, d2, anchor, leader, alphas, weights, k_a, c, smooth_eps))
    X = law.state(pose, est)
    Z, th = law.split(X)
    delta, mag = law.delta, np.empty_like(X)
    _, mag_th = law.split(mag)
    status = (STATUS_OK, -1, n_steps)
    row = 0
    sig = sig.view(complex)
    for step in range(n_steps + 1):
        _rate, u, te, v, omega, _udot = law(X, sig[step])
        if step % sample_every == 0:
            out_pose[row, :, :2] = Z[:, :2]
            out_pose[row, :, 2] = th
            out_cmd[row, :, 0] = v
            out_cmd[row, :, 1] = omega
            out_u[row] = _planar(u)
            out_te[row] = te
            out_est[row] = Z[:, 2:]
            row += 1
        if step == n_steps:
            break
        delta *= dt
        X += delta
        np.abs(X, out=mag)
        # A heading leaves (-pi, pi) only when it turns through pi.
        # Wrapped, it is still below POS_LIMIT in mag (and nan stays nan).
        if not mag_th.max() < np.pi:
            turned = ~(mag_th < np.pi)
            th[turned] = wrap_angle(th[turned])
        # One reduction per step; the per-agent scan runs only when it
        # fails, and an estimate that is merely large passes.
        if not mag.max() <= POS_LIMIT:
            bad = (~np.isfinite(Z).all(axis=1) | ~np.isfinite(th)
                   | (np.abs(Z[:, :2]) > POS_LIMIT).any(axis=1))
            if bad.any():
                status = (STATUS_DIVERGED, int(np.argmax(bad)), step + 1)
                break
    pose[:, :2] = Z[:, :2]
    pose[:, 2] = th
    est[:] = Z[:, 2:]
    return status


# compiled variant (compilation happens on first call, cached on disk)
rollout_jit = numba.njit(cache=True)(_rollout_loops) if HAS_NUMBA else None


# ---------------------------------------------------------------------------
# the two modes: parameters, evaluation and rollout dispatch
# ---------------------------------------------------------------------------

def flock_law(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps) -> Law:
    """The ``Law`` of flocking.

    One channel, v_f with weight 1; the flagged agents measure v_0 with
    ``anchor_sign``; no leader.
    """
    return Law(edges, d2, anchor_sign * np.asarray(bflag, dtype=float), -1,
               np.array([alpha], dtype=float), np.ones(1), float(k_a), c,
               float(smooth_eps))


def intercept_law(n, edges, d2, leader, k_a, k_t, c, alpha1, alpha2, smooth_eps) -> Law:
    """The ``Law`` of interception.

    Channels v_T with weight 1 and e_T with weight k_t; only the free
    ``leader`` measures the target.
    """
    anchor = (np.arange(n) == leader).astype(float)
    return Law(edges, d2, anchor, int(leader), np.array([alpha1, alpha2], dtype=float),
               np.array([1.0, k_t], dtype=float), float(k_a), c, float(smooth_eps))


def _eval(law, pose, est, sig):
    """One synchronous evaluation of ``law`` under the signal row ``sig``.

    Returns (rate, u, theta_err, v, omega, udot), rate real (n, K, 2);
    does not mutate its inputs.
    """
    loop = _Law(law)
    rate, u, te, v, omega, udot = loop(loop.state(pose, est),
                                       np.ascontiguousarray(sig, dtype=float).view(complex))
    return _planar(rate), _planar(u), te, v, omega, _planar(udot)


def flock_eval(pose, est, v0, edges, d2, bflag,
               k_a, c, alpha, anchor_sign, smooth_eps):
    """One synchronous evaluation of the flocking loop, vectorized.

    Returns (rate, u, theta_err, v, omega, udot); does not mutate its
    inputs.
    """
    rate, *rest = _eval(flock_law(edges, d2, bflag, k_a, c, alpha, anchor_sign,
                                  smooth_eps), pose, est, v0)
    return (rate[:, 0], *rest)


def intercept_eval(pose, vthat, ethat, target_pos, target_vel, target_acc,
                   edges, d2, leader, k_a, k_t, c, alpha1, alpha2, smooth_eps):
    """One synchronous evaluation of the interception loop, vectorized.

    Returns (rate_v, rate_e, u, theta_err, v, omega, udot).
    """
    rate, *rest = _eval(intercept_law(len(pose), edges, d2, leader, k_a, k_t, c,
                                      alpha1, alpha2, smooth_eps),
                        pose, np.concatenate([vthat, ethat], axis=1),
                        np.concatenate([target_vel, target_pos, target_acc]))
    return (rate[:, 0], rate[:, 1], *rest)


class KernelUnavailable(RuntimeError):
    """The requested kernel implementation is not installed."""


def rollout(law: Law, pose, est, sig, dt, n_steps, sample_every, outs, *,
            force: str | None = None):
    """Roll out ``law`` (from ``flock_law`` or ``intercept_law``) in the
    selected implementation.

    ``sig`` holds the references per step and ``outs`` the logs
    (out_pose, out_cmd, out_u, out_te, out_est), laid out as in the
    module docstring.  ``force`` overrides the environment default with
    "jit" or "numpy".  Updates pose and est in place and fills the logs.
    Returns ``(kernel, form, status)``: "numba" (compiled) or "numpy"
    (uncompiled), the form that ran ("loops" or "law") and the
    rollout's status triple.  Without numba, formations of at most
    ``LIST_MAX_EDGES`` edges run the loop form on Python floats as
    ``unrolled.rollout``, reported as ("numpy", "loops"), unless
    ``force`` is "numpy".
    """
    if force == "jit":
        if rollout_jit is None:
            raise KernelUnavailable("numba is not installed")
        impl = rollout_jit
    elif force == "numpy":
        impl = _rollout_numpy
    elif force is not None:
        raise ValueError(f"force must be 'jit' or 'numpy', got {force!r}")
    elif USE_NUMBA:
        impl = rollout_jit
    elif len(law.edges) > LIST_MAX_EDGES:
        impl = _rollout_numpy
    else:
        from . import unrolled  # numpy-law runs never import it
        impl = unrolled.rollout
    status = impl(pose, est, np.ascontiguousarray(sig, dtype=float), *law, float(dt),
                  int(n_steps), int(sample_every), *outs)
    return (("numba" if impl is rollout_jit else "numpy"),
            ("law" if impl is _rollout_numpy else "loops"), status)


# perfbench wraps both names; engine.run calls the one of its mode.
flock_rollout = intercept_rollout = rollout
