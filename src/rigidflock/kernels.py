"""Hot rollout kernels: one closed loop in a loop form and a numpy form.

The env flag ``RIGIDFLOCK_NUMBA`` picks the default path ("0" disables
the compiled loop form, anything else or unset enables it when numba
imports).  Uncompiled, small formations run the loop form in CPython on
Python floats and larger ones the numpy form.  Every form stays
importable so they can be benchmarked and cross-checked in one
process.  Within a form, rollouts are deterministic: canonical edge
order, fixed summation order, no threading.

Flock and intercept are two parameterizations of one law (``_Law``),
and both forms take one argument list (``_rollout_loops``).  Layout:
poses (n, 3) as (x, y, theta); the K observer estimates as one (n, 2K)
array, channel k in columns 2k and 2k + 1; edges (a, 2) of 0-based
indices; d2 the squared desired distances per edge.  The references
are pre-sampled per step into one signal array of n_steps + 1 rows:
v_0 for flock, [v_T, p_T, a_T] for intercept.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .flocking import EPS_U
from .observers import signum_rates
from .unicycle import TWO_PI

try:
    import numba
    from numba.extending import overload, register_jitable
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None

HAS_NUMBA = numba is not None
USE_NUMBA = HAS_NUMBA and os.environ.get("RIGIDFLOCK_NUMBA", "1") != "0"

POS_LIMIT = 1e6

STATUS_OK = 0
STATUS_DIVERGED = 1

# Most edges a formation may have for the uncompiled default to run it
# as the loop form on Python floats; larger ones run the numpy law.  The
# loop form's cost follows the edges, the law's barely moves, and a
# rigid graph has at least 2n - 3 edges, so this also caps n at 12.
# Set from the measured crossover (README, "Kernels and environment
# flags").
LIST_MAX_EDGES = 21


def using_numba() -> bool:
    """True when the compiled kernels are the default dispatch."""
    return USE_NUMBA


def _jitable(func):
    """``func`` unchanged, and compiled inline where numba compiles a caller.

    CPython calls the plain function whether or not numba is installed,
    so the list runtime runs the same code with numba disabled.
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


# ---------------------------------------------------------------------------
# the closed loop, loop form (numba target, and CPython on lists)
# ---------------------------------------------------------------------------

def _rollout_loops(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
                   k_a, c, smooth_eps, dt, n_steps, sample_every,
                   out_pose, out_cmd, out_u, out_tid, out_est):
    """Explicit-Euler rollout of the closed loop, written as scalar loops.

    The law's parameters are those of ``_Law``, with ``leader`` -1 for
    none; row ``step`` of ``sig`` holds the references (see the module
    docstring).  Updates pose and est in place, logs steps 0,
    ``sample_every``, ... into rows 0, 1, ... of the ``out_*`` arrays and
    returns (status, agent, steps), with steps counted from this call's
    first step.  The caller keeps the times: a rollout may be run in
    chunks, each one continuing from the state the last one left.

    One source, two runtimes.  numba compiles it with every argument an
    array, an int or a float.  CPython runs it with pose, est, edges,
    d2, anchor, alphas, weights and c as lists (``_rollout_lists``), so
    the arithmetic is on Python floats; ``sig`` and the ``out_*`` logs
    stay arrays, written one slice per logged row.  Rows are read by
    chained indexing (``pose[i][0]``), which both runtimes index
    natively, and the scratch buffers come from ``_zeros``/``_zeros2``.
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
    tid = _zeros(n)
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
            tid[i] = tdi
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
            out_tid[row] = tid
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


def _rollout_lists(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
                   k_a, c, smooth_eps, dt, n_steps, sample_every, *outs):
    """``_rollout_loops`` in CPython on lists: same arguments and effects.

    Every argument array but the signal and the logs is copied with
    ``tolist()``; pose and est are copied back at the end.
    """
    pose_l, est_l = pose.tolist(), est.tolist()
    status = _rollout_loops(pose_l, est_l, sig, edges.tolist(), d2.tolist(),
                            anchor.tolist(), leader, alphas.tolist(),
                            weights.tolist(), k_a, c.tolist(), smooth_eps, dt,
                            n_steps, sample_every, *outs)
    pose[:] = pose_l
    est[:] = est_l
    return status


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

    The state is X = [x, y, theta, 0, est_1, ..., est_K], (n, 4 + 2K):
    the zero puts each planar pair on a complex slot, so a rotation into
    a body frame is one product.  The distance gradient and all
    consensus sums are one ``np.bincount`` over an index fixed per
    graph; the formation part of udot is a second one.
    """

    def __init__(self, edges, d2, anchor, leader, alphas, weights, k_a, c,
                 smooth_eps):
        n, a = len(anchor), len(edges)
        cols = 4 + 2 * len(weights)
        self.a, self.d2, self.k_a, self.c = a, d2, k_a, c
        self.w = np.asarray(weights, dtype=complex)
        self.neg_alpha = -np.asarray(alphas, dtype=complex)
        self.anchor = np.asarray(anchor, dtype=complex)[:, None]
        self.leader, self.smooth_eps = leader, smooth_eps
        # Edge k adds its row to agent i's sums and subtracts it from j's.
        self.ends = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.intp)
        self.sum_idx = (self.ends[:, None] * cols + np.arange(cols)).ravel()
        self.udot_idx = (self.ends[:, None] * 2 + np.arange(2)).ravel()
        self.x_ends = np.empty((2 * a, cols))
        self.sum_w, self.udot_w = np.empty((2, a, cols)), np.empty((2, a), complex)
        # exp(i theta) and exp(i theta_err), rewritten by every call
        self.q, self.e = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        self.ref = np.empty(len(weights), dtype=complex)

    def __call__(self, X, sig):
        """Evaluate at state X (read only) under the signal row ``sig``.

        Returns (rate, u, theta_id, theta_err, v, omega, udot): rate
        complex (n, K), u and udot real (n, 2), the rest real (n,).
        ``self.q`` holds exp(i theta) until the next call.
        """
        a, w, L = self.a, self.w, self.leader
        Xc = X.view(complex)
        if a:
            x = np.take(X, self.ends, axis=0, out=self.x_ends)
            rows = np.subtract(x[:a], x[a:], out=self.sum_w[0])
            p = rows.view(complex)[:, 0]
            pij = p.copy()
            z = p.real * p.real + p.imag * p.imag - self.d2
            p *= z
            np.negative(rows, out=self.sum_w[1])
            sums = np.bincount(self.sum_idx, self.sum_w.ravel(),
                               minlength=X.size).reshape(X.shape)
        else:  # np.bincount of nothing is an int array
            sums = np.zeros(X.shape)
        sums = sums.view(complex)
        ref = _planar(self.ref)
        ref[0] = sig[:2]
        if L >= 0:  # e_T = p_T - p_L
            np.subtract(sig[2:4], X[L, :2], out=ref[1])
        sums[:, 2:] += self.anchor * (Xc[:, 2:] - self.ref)
        q, th = self.q, X[:, 2]
        np.cos(th, out=_planar(q)[:, 0])
        np.sin(th, out=_planar(q)[:, 1])
        rate = signum_rates(sums[:, 2:], q, self.neg_alpha, self.smooth_eps)

        u = Xc[:, 2:] @ w - self.k_a * sums[:, 0]
        if L >= 0:
            u[L] = self.ref @ w
        uf = _planar(u)
        nu2 = np.einsum("ij,ij->i", uf, uf)
        nu = np.sqrt(nu2)
        live = nu > EPS_U
        tid = np.where(live, np.arctan2(uf[:, 1], uf[:, 0]), 0.0)
        te = np.mod(th - tid, TWO_PI)
        te -= TWO_PI * (te > np.pi)
        bc = np.cos(te, out=_planar(self.e)[:, 0])
        np.sin(te, out=_planar(self.e)[:, 1])
        bu = u * self.e * bc

        udot = rate @ w
        if a:
            b = bu.take(self.ends)
            dbu = b[:a] - b[a:]
            f = self.k_a * (dbu * z + pij * (2.0 * (pij.conj() * dbu).real))
            np.negative(f, out=self.udot_w[0])
            self.udot_w[1] = f
            udot += np.bincount(self.udot_idx, self.udot_w.view(float).ravel(),
                                minlength=2 * len(u)).view(complex)
        udf = _planar(udot)
        if L >= 0:  # the reference rates are a_T and v_T - B u_L
            udf[L] = w.real[0] * sig[4:6] + w.real[1] * (sig[:2] - _planar(bu)[L])
        # A parked agent (|u| <= EPS_U) has no heading rate: x / inf = 0.
        tidd = (u.conj() * udot).imag / np.where(live, nu2, np.inf)
        return rate, uf, tid, te, nu * bc, -self.c * te + tidd, udf


def _planar(x):
    """Complex vectors (...,) as a real (..., 2) array."""
    return x.view(float).reshape(*x.shape, 2)


def _state(pose, est):
    """The law's state X from poses (n, 3) and the estimates (n, 2K)."""
    return np.concatenate([pose, np.zeros((len(pose), 1)), est], axis=1)


def _rollout_numpy(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
                   k_a, c, smooth_eps, dt, n_steps, sample_every,
                   out_pose, out_cmd, out_u, out_tid, out_est):
    """The numpy form of ``_rollout_loops``: same arguments, same effects."""
    law = _Law(edges, d2, anchor, leader, alphas, weights, k_a, c, smooth_eps)
    X = _state(pose, est)
    Xc, th, E = X.view(complex), X[:, 2], X[:, 4:]
    status = (STATUS_OK, -1, n_steps)
    row = 0
    for step in range(n_steps + 1):
        rate, u, tid, _te, v, omega, _udot = law(X, sig[step])
        if step % sample_every == 0:
            out_pose[row] = X[:, :3]
            out_cmd[row, :, 0] = v
            out_cmd[row, :, 1] = omega
            out_u[row] = u
            out_tid[row] = tid
            out_est[row] = E
            row += 1
        if step == n_steps:
            break
        Xc[:, 0] += law.q * v * dt
        th += omega * dt
        np.mod(th, TWO_PI, out=th)
        th -= TWO_PI * (th > np.pi)
        Xc[:, 2:] += rate * dt
        # One reduction per step (|theta| <= pi); the per-agent scan runs
        # only when it fails, and an estimate that is merely large passes.
        if not np.abs(X).max() <= POS_LIMIT:
            bad = ~np.isfinite(X).all(axis=1) | (np.abs(X[:, :2]) > POS_LIMIT).any(axis=1)
            if bad.any():
                status = (STATUS_DIVERGED, int(np.argmax(bad)), step + 1)
                break
    pose[:] = X[:, :3]
    est[:] = E
    return status


# compiled variant (compilation happens on first call, cached on disk)
rollout_jit = numba.njit(cache=True)(_rollout_loops) if HAS_NUMBA else None


# ---------------------------------------------------------------------------
# the two modes: parameters, evaluation and rollout dispatch
# ---------------------------------------------------------------------------

def _flock_params(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps):
    """The law's parameters (edges ... smooth_eps) for flocking.

    One channel, v_f with weight 1; the flagged agents measure v_0 with
    ``anchor_sign``; no leader.
    """
    return (edges, d2, anchor_sign * np.asarray(bflag, dtype=float), -1,
            np.array([alpha], dtype=float), np.ones(1), float(k_a), c,
            float(smooth_eps))


def _intercept_params(n, edges, d2, leader, k_a, k_t, c, alpha1, alpha2,
                      smooth_eps):
    """The law's parameters (edges ... smooth_eps) for interception.

    Channels v_T with weight 1 and e_T with weight k_t; only the free
    ``leader`` measures the target.
    """
    anchor = (np.arange(n) == leader).astype(float)
    return (edges, d2, anchor, int(leader), np.array([alpha1, alpha2], dtype=float),
            np.array([1.0, k_t], dtype=float), float(k_a), c, float(smooth_eps))


def flock_eval(pose, est, v0, edges, d2, bflag,
               k_a, c, alpha, anchor_sign, smooth_eps):
    """One synchronous evaluation of the flocking loop, vectorized.

    Returns (rate, u, theta_id, theta_err, v, omega, udot); does not
    mutate its inputs.
    """
    law = _Law(*_flock_params(edges, d2, bflag, k_a, c, alpha, anchor_sign,
                              smooth_eps))
    rate, *rest = law(_state(pose, est), np.asarray(v0, dtype=float))
    return (_planar(rate)[:, 0], *rest)


def intercept_eval(pose, vthat, ethat, target_pos, target_vel, target_acc,
                   edges, d2, leader, k_a, k_t, c, alpha1, alpha2, smooth_eps):
    """One synchronous evaluation of the interception loop, vectorized.

    Returns (rate_v, rate_e, u, theta_id, theta_err, v, omega, udot).
    """
    law = _Law(*_intercept_params(len(pose), edges, d2, leader, k_a, k_t, c,
                                  alpha1, alpha2, smooth_eps))
    rate, *rest = law(_state(pose, np.concatenate([vthat, ethat], axis=1)),
                      np.concatenate([target_vel, target_pos, target_acc]))
    return (_planar(rate)[:, 0], _planar(rate)[:, 1], *rest)


class KernelUnavailable(RuntimeError):
    """The requested kernel implementation is not installed."""


def flock_rollout(pose, est, edges, d2, bflag, v0_seq, k_a, c, alpha,
                  anchor_sign, smooth_eps, dt, n_steps, sample_every,
                  out_pose, out_cmd, out_u, out_tid, out_est,
                  *, force: str | None = None):
    """Roll out the flocking loop in the selected implementation.

    ``force`` overrides the environment default with "jit" or "numpy".
    Updates pose and est in place and fills the ``out_*`` logs.
    Returns ``(kernel, form, status)``: "numba" (compiled) or "numpy"
    (uncompiled), the form that ran ("loops" or "law") and the
    rollout's status triple.  Without numba, formations of at most
    ``LIST_MAX_EDGES`` edges run the loop form on Python floats unless
    ``force`` is "numpy".
    """
    law = _flock_params(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps)
    return _dispatch(force, pose, est, np.ascontiguousarray(v0_seq, dtype=float),
                     law, dt, n_steps, sample_every,
                     (out_pose, out_cmd, out_u, out_tid, out_est))


def intercept_rollout(pose, vthat, ethat, edges, d2, leader, pt_seq, vt_seq,
                      at_seq, k_a, k_t, c, alpha1, alpha2, smooth_eps, dt,
                      n_steps, sample_every, out_pose, out_cmd, out_u, out_tid,
                      out_vthat, out_ethat, *, force: str | None = None):
    """Roll out the interception loop (see flock_rollout)."""
    law = _intercept_params(len(pose), edges, d2, leader, k_a, k_t, c,
                            alpha1, alpha2, smooth_eps)
    est = np.concatenate([vthat, ethat], axis=1)
    out_est = np.zeros(out_vthat.shape[:2] + (4,))
    result = _dispatch(force, pose, est,
                       np.concatenate([vt_seq, pt_seq, at_seq], axis=1),
                       law, dt, n_steps, sample_every,
                       (out_pose, out_cmd, out_u, out_tid, out_est))
    vthat[:], ethat[:] = est[:, :2], est[:, 2:]
    out_vthat[:], out_ethat[:] = out_est[..., :2], out_est[..., 2:]
    return result


def _dispatch(force, pose, est, sig, law, dt, n_steps, sample_every, outs):
    impl = _pick(rollout_jit, _rollout_numpy, force)
    if force is None and impl is _rollout_numpy and len(law[0]) <= LIST_MAX_EDGES:
        impl = _rollout_lists
    status = impl(pose, est, sig, *law, float(dt), int(n_steps),
                  int(sample_every), *outs)
    return (("numba" if impl is rollout_jit else "numpy"),
            ("law" if impl is _rollout_numpy else "loops"), status)


def _pick(jit_impl, numpy_impl, force):
    if force == "jit":
        if jit_impl is None:
            raise KernelUnavailable("numba is not installed")
        return jit_impl
    if force == "numpy":
        return numpy_impl
    if force is not None:
        raise ValueError(f"force must be 'jit' or 'numpy', got {force!r}")
    return jit_impl if USE_NUMBA else numpy_impl
