"""Hot rollout kernels: numba-compiled loops and one vectorized numpy law.

The env flag ``RIGIDFLOCK_NUMBA`` picks the default path ("0" disables
the compiled kernels, anything else or unset enables them when numba
imports).  Both implementations stay importable so they can be
benchmarked and cross-checked in one process.  Within a path, rollouts
are deterministic: canonical edge order, fixed summation order, no
threading.

State layout: poses (n, 3) as (x, y, theta), estimates (n, 2), edges
(a, 2) of 0-based indices, d2 the squared desired distances per edge.
Signal sequences are pre-sampled per step (length n_steps + 1).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    import numba
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None

HAS_NUMBA = numba is not None
USE_NUMBA = HAS_NUMBA and os.environ.get("RIGIDFLOCK_NUMBA", "1") != "0"

EPS_U = 1e-12
POS_LIMIT = 1e6
TWO_PI = 2.0 * np.pi

STATUS_OK = 0
STATUS_DIVERGED = 1


def using_numba() -> bool:
    """True when the compiled kernels are the default dispatch."""
    return USE_NUMBA


def _njit(func):
    if HAS_NUMBA:
        return numba.njit(cache=True)(func)
    return func


@_njit
def _wrap(x):
    w = x % TWO_PI
    if w > np.pi:
        w -= TWO_PI
    return w


@_njit
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


# ---------------------------------------------------------------------------
# flocking rollout, loop form (numba target)
# ---------------------------------------------------------------------------

def _flock_rollout_loops(pose, est, edges, d2, bflag, v0_seq,
                         k_a, c, alpha, anchor_sign, smooth_eps, dt,
                         n_steps, sample_every,
                         out_t, out_pose, out_cmd, out_u, out_tid, out_est):
    n = pose.shape[0]
    a = edges.shape[0]
    pijx = np.empty(a)
    pijy = np.empty(a)
    zz = np.empty(a)
    gx = np.empty(n)
    gy = np.empty(n)
    ox = np.empty(n)
    oy = np.empty(n)
    rx = np.empty(n)
    ry = np.empty(n)
    ux = np.empty(n)
    uy = np.empty(n)
    bux = np.empty(n)
    buy = np.empty(n)
    te = np.empty(n)
    tid = np.empty(n)
    udx = np.empty(n)
    udy = np.empty(n)
    vc = np.empty(n)
    wc = np.empty(n)
    row = 0
    for step in range(n_steps + 1):
        v0x = v0_seq[step, 0]
        v0y = v0_seq[step, 1]
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            dx = pose[i, 0] - pose[j, 0]
            dy = pose[i, 1] - pose[j, 1]
            pijx[k] = dx
            pijy[k] = dy
            zz[k] = dx * dx + dy * dy - d2[k]
        for i in range(n):
            gx[i] = 0.0
            gy[i] = 0.0
            ox[i] = 0.0
            oy[i] = 0.0
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            fx = pijx[k] * zz[k]
            fy = pijy[k] * zz[k]
            gx[i] += fx
            gy[i] += fy
            gx[j] -= fx
            gy[j] -= fy
            ex = est[i, 0] - est[j, 0]
            ey = est[i, 1] - est[j, 1]
            ox[i] += ex
            oy[i] += ey
            ox[j] -= ex
            oy[j] -= ey
        # pass 1: observer rates (signum in each agent's frame), controls
        for i in range(n):
            ax = ox[i]
            ay = oy[i]
            if bflag[i] != 0.0:
                ax += anchor_sign * (est[i, 0] - v0x)
                ay += anchor_sign * (est[i, 1] - v0y)
            ct = np.cos(pose[i, 2])
            st = np.sin(pose[i, 2])
            sx = _sgn(ct * ax + st * ay, smooth_eps)
            sy = _sgn(-st * ax + ct * ay, smooth_eps)
            rx[i] = -alpha * (ct * sx - st * sy)
            ry[i] = -alpha * (st * sx + ct * sy)
            ux[i] = -k_a * gx[i] + est[i, 0]
            uy[i] = -k_a * gy[i] + est[i, 1]
            nu = np.sqrt(ux[i] * ux[i] + uy[i] * uy[i])
            if nu > EPS_U:
                tid[i] = np.arctan2(uy[i], ux[i])
            else:
                tid[i] = 0.0
            te[i] = _wrap(pose[i, 2] - tid[i])
            bc = np.cos(te[i])
            bs = np.sin(te[i])
            bux[i] = bc * (bc * ux[i] - bs * uy[i])
            buy[i] = bc * (bs * ux[i] + bc * uy[i])
        # pass 2: control rates and commands
        for i in range(n):
            udx[i] = rx[i]
            udy[i] = ry[i]
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            wx = bux[i] - bux[j]
            wy = buy[i] - buy[j]
            m11 = zz[k] + 2.0 * pijx[k] * pijx[k]
            m12 = 2.0 * pijx[k] * pijy[k]
            m22 = zz[k] + 2.0 * pijy[k] * pijy[k]
            fx = k_a * (m11 * wx + m12 * wy)
            fy = k_a * (m12 * wx + m22 * wy)
            udx[i] -= fx
            udy[i] -= fy
            udx[j] += fx
            udy[j] += fy
        for i in range(n):
            nu2 = ux[i] * ux[i] + uy[i] * uy[i]
            nu = np.sqrt(nu2)
            if nu > EPS_U:
                tidd = (ux[i] * udy[i] - uy[i] * udx[i]) / nu2
            else:
                tidd = 0.0
            vc[i] = nu * np.cos(te[i])
            wc[i] = -c[i] * te[i] + tidd
        if step % sample_every == 0:
            out_t[row] = step * dt
            for i in range(n):
                out_pose[row, i, 0] = pose[i, 0]
                out_pose[row, i, 1] = pose[i, 1]
                out_pose[row, i, 2] = pose[i, 2]
                out_cmd[row, i, 0] = vc[i]
                out_cmd[row, i, 1] = wc[i]
                out_u[row, i, 0] = ux[i]
                out_u[row, i, 1] = uy[i]
                out_tid[row, i] = tid[i]
                out_est[row, i, 0] = est[i, 0]
                out_est[row, i, 1] = est[i, 1]
            row += 1
        if step == n_steps:
            break
        for i in range(n):
            pose[i, 0] += vc[i] * np.cos(pose[i, 2]) * dt
            pose[i, 1] += vc[i] * np.sin(pose[i, 2]) * dt
            pose[i, 2] = _wrap(pose[i, 2] + wc[i] * dt)
            est[i, 0] += rx[i] * dt
            est[i, 1] += ry[i] * dt
            ok = (math.isfinite(pose[i, 0]) and math.isfinite(pose[i, 1])
                  and math.isfinite(pose[i, 2])
                  and math.isfinite(est[i, 0]) and math.isfinite(est[i, 1])
                  and abs(pose[i, 0]) <= POS_LIMIT and abs(pose[i, 1]) <= POS_LIMIT)
            if not ok:
                return STATUS_DIVERGED, i, step + 1
    return STATUS_OK, -1, n_steps


# ---------------------------------------------------------------------------
# interception rollout, loop form (numba target)
# ---------------------------------------------------------------------------

def _intercept_rollout_loops(pose, vthat, ethat, edges, d2, leader,
                             pt_seq, vt_seq, at_seq,
                             k_a, k_t, c, alpha1, alpha2, smooth_eps, dt,
                             n_steps, sample_every,
                             out_t, out_pose, out_cmd, out_u, out_tid,
                             out_vthat, out_ethat):
    n = pose.shape[0]
    a = edges.shape[0]
    pijx = np.empty(a)
    pijy = np.empty(a)
    zz = np.empty(a)
    gx = np.empty(n)
    gy = np.empty(n)
    o1x = np.empty(n)
    o1y = np.empty(n)
    o2x = np.empty(n)
    o2y = np.empty(n)
    r1x = np.empty(n)
    r1y = np.empty(n)
    r2x = np.empty(n)
    r2y = np.empty(n)
    ux = np.empty(n)
    uy = np.empty(n)
    bux = np.empty(n)
    buy = np.empty(n)
    te = np.empty(n)
    tid = np.empty(n)
    udx = np.empty(n)
    udy = np.empty(n)
    vc = np.empty(n)
    wc = np.empty(n)
    row = 0
    for step in range(n_steps + 1):
        ptx = pt_seq[step, 0]
        pty = pt_seq[step, 1]
        vtx = vt_seq[step, 0]
        vty = vt_seq[step, 1]
        atx = at_seq[step, 0]
        aty = at_seq[step, 1]
        etx = ptx - pose[leader, 0]
        ety = pty - pose[leader, 1]
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            dx = pose[i, 0] - pose[j, 0]
            dy = pose[i, 1] - pose[j, 1]
            pijx[k] = dx
            pijy[k] = dy
            zz[k] = dx * dx + dy * dy - d2[k]
        for i in range(n):
            gx[i] = 0.0
            gy[i] = 0.0
            o1x[i] = 0.0
            o1y[i] = 0.0
            o2x[i] = 0.0
            o2y[i] = 0.0
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            fx = pijx[k] * zz[k]
            fy = pijy[k] * zz[k]
            gx[i] += fx
            gy[i] += fy
            gx[j] -= fx
            gy[j] -= fy
            e1x = vthat[i, 0] - vthat[j, 0]
            e1y = vthat[i, 1] - vthat[j, 1]
            o1x[i] += e1x
            o1y[i] += e1y
            o1x[j] -= e1x
            o1y[j] -= e1y
            e2x = ethat[i, 0] - ethat[j, 0]
            e2y = ethat[i, 1] - ethat[j, 1]
            o2x[i] += e2x
            o2y[i] += e2y
            o2x[j] -= e2x
            o2y[j] -= e2y
        # pass 1: observer rates and controls
        for i in range(n):
            a1x = o1x[i]
            a1y = o1y[i]
            a2x = o2x[i]
            a2y = o2y[i]
            if i == leader:
                a1x += vthat[i, 0] - vtx
                a1y += vthat[i, 1] - vty
                a2x += ethat[i, 0] - etx
                a2y += ethat[i, 1] - ety
            ct = np.cos(pose[i, 2])
            st = np.sin(pose[i, 2])
            s1x = _sgn(ct * a1x + st * a1y, smooth_eps)
            s1y = _sgn(-st * a1x + ct * a1y, smooth_eps)
            r1x[i] = -alpha1 * (ct * s1x - st * s1y)
            r1y[i] = -alpha1 * (st * s1x + ct * s1y)
            s2x = _sgn(ct * a2x + st * a2y, smooth_eps)
            s2y = _sgn(-st * a2x + ct * a2y, smooth_eps)
            r2x[i] = -alpha2 * (ct * s2x - st * s2y)
            r2y[i] = -alpha2 * (st * s2x + ct * s2y)
            if i == leader:
                ux[i] = k_t * etx + vtx
                uy[i] = k_t * ety + vty
            else:
                ux[i] = -k_a * gx[i] + k_t * ethat[i, 0] + vthat[i, 0]
                uy[i] = -k_a * gy[i] + k_t * ethat[i, 1] + vthat[i, 1]
            nu = np.sqrt(ux[i] * ux[i] + uy[i] * uy[i])
            if nu > EPS_U:
                tid[i] = np.arctan2(uy[i], ux[i])
            else:
                tid[i] = 0.0
            te[i] = _wrap(pose[i, 2] - tid[i])
            bc = np.cos(te[i])
            bs = np.sin(te[i])
            bux[i] = bc * (bc * ux[i] - bs * uy[i])
            buy[i] = bc * (bs * ux[i] + bc * uy[i])
        # pass 2: control rates and commands
        for i in range(n):
            if i == leader:
                udx[i] = k_t * (vtx - bux[i]) + atx
                udy[i] = k_t * (vty - buy[i]) + aty
            else:
                udx[i] = k_t * r2x[i] + r1x[i]
                udy[i] = k_t * r2y[i] + r1y[i]
        for k in range(a):
            i = edges[k, 0]
            j = edges[k, 1]
            wx = bux[i] - bux[j]
            wy = buy[i] - buy[j]
            m11 = zz[k] + 2.0 * pijx[k] * pijx[k]
            m12 = 2.0 * pijx[k] * pijy[k]
            m22 = zz[k] + 2.0 * pijy[k] * pijy[k]
            fx = k_a * (m11 * wx + m12 * wy)
            fy = k_a * (m12 * wx + m22 * wy)
            if i != leader:
                udx[i] -= fx
                udy[i] -= fy
            if j != leader:
                udx[j] += fx
                udy[j] += fy
        for i in range(n):
            nu2 = ux[i] * ux[i] + uy[i] * uy[i]
            nu = np.sqrt(nu2)
            if nu > EPS_U:
                tidd = (ux[i] * udy[i] - uy[i] * udx[i]) / nu2
            else:
                tidd = 0.0
            vc[i] = nu * np.cos(te[i])
            wc[i] = -c[i] * te[i] + tidd
        if step % sample_every == 0:
            out_t[row] = step * dt
            for i in range(n):
                out_pose[row, i, 0] = pose[i, 0]
                out_pose[row, i, 1] = pose[i, 1]
                out_pose[row, i, 2] = pose[i, 2]
                out_cmd[row, i, 0] = vc[i]
                out_cmd[row, i, 1] = wc[i]
                out_u[row, i, 0] = ux[i]
                out_u[row, i, 1] = uy[i]
                out_tid[row, i] = tid[i]
                out_vthat[row, i, 0] = vthat[i, 0]
                out_vthat[row, i, 1] = vthat[i, 1]
                out_ethat[row, i, 0] = ethat[i, 0]
                out_ethat[row, i, 1] = ethat[i, 1]
            row += 1
        if step == n_steps:
            break
        for i in range(n):
            pose[i, 0] += vc[i] * np.cos(pose[i, 2]) * dt
            pose[i, 1] += vc[i] * np.sin(pose[i, 2]) * dt
            pose[i, 2] = _wrap(pose[i, 2] + wc[i] * dt)
            vthat[i, 0] += r1x[i] * dt
            vthat[i, 1] += r1y[i] * dt
            ethat[i, 0] += r2x[i] * dt
            ethat[i, 1] += r2y[i] * dt
            ok = (math.isfinite(pose[i, 0]) and math.isfinite(pose[i, 1])
                  and math.isfinite(pose[i, 2])
                  and math.isfinite(vthat[i, 0]) and math.isfinite(vthat[i, 1])
                  and math.isfinite(ethat[i, 0]) and math.isfinite(ethat[i, 1])
                  and abs(pose[i, 0]) <= POS_LIMIT and abs(pose[i, 1]) <= POS_LIMIT)
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
    A ``leader`` is free: its control is the weighted sum of the true
    references (v_T, e_T = p_T - p_L), with rates a_T and v_T - B u_L.

    The state is X = [x, y, theta, 0, est_1, ..., est_K], (n, 4 + 2K):
    the zero puts each planar pair on a complex slot, so a rotation into
    a body frame is one product.  The distance gradient and all
    consensus sums are one ``np.bincount`` over an index fixed per
    graph; the formation part of udot is a second one.
    """

    def __init__(self, edges, d2, k_a, c, alphas, weights, anchor, leader,
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
        """Evaluate at state X (read only) under ``sig``: (v_0,), or
        (v_T, p_T, a_T) with a leader.  Returns (rate, u, theta_id,
        theta_err, v, omega, udot): rate complex (n, K), u and udot real
        (n, 2), the rest real (n,).  ``self.q`` holds exp(i theta) until
        the next call.
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
        ref[0] = sig[0]
        if L is not None:  # e_T = p_T - p_L
            np.subtract(sig[1], X[L, :2], out=ref[1])
        sums[:, 2:] += self.anchor * (Xc[:, 2:] - self.ref)
        # Each agent takes the signum in its own body frame.
        q, th = self.q, X[:, 2]
        np.cos(th, out=_planar(q)[:, 0])
        np.sin(th, out=_planar(q)[:, 1])
        body = (sums[:, 2:] * q.conj()[:, None]).view(float)
        if self.smooth_eps > 0.0:
            np.clip(body / self.smooth_eps, -1.0, 1.0, out=body)
        else:
            np.sign(body, out=body)
        rate = body.view(complex) * q[:, None] * self.neg_alpha

        u = Xc[:, 2:] @ w - self.k_a * sums[:, 0]
        if L is not None:
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
        if L is not None:  # the reference rates are a_T and v_T - B u_L
            udf[L] = w.real[0] * sig[2] + w.real[1] * (sig[0] - _planar(bu)[L])
        # A parked agent (|u| <= EPS_U) has no heading rate: x / inf = 0.
        tidd = (u.conj() * udot).imag / np.where(live, nu2, np.inf)
        return rate, uf, tid, te, nu * bc, -self.c * te + tidd, udf


def _flock_law(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps):
    return _Law(edges, d2, k_a, c, (alpha,), (1.0,), anchor_sign * bflag,
                None, smooth_eps)


def _intercept_law(n, edges, d2, leader, k_a, k_t, c, alpha1, alpha2, smooth_eps):
    return _Law(edges, d2, k_a, c, (alpha1, alpha2), (1.0, k_t),
                np.arange(n) == leader, leader, smooth_eps)


def _planar(x):
    """Complex vectors (...,) as a real (..., 2) array."""
    return x.view(float).reshape(*x.shape, 2)


def _state(pose, ests):
    """The law's state X from poses (n, 3) and the K (n, 2) estimates."""
    return np.concatenate([pose, np.zeros((len(pose), 1)), *ests], axis=1)


def flock_eval(pose, est, v0, edges, d2, bflag,
               k_a, c, alpha, anchor_sign, smooth_eps):
    """One synchronous evaluation of the flocking loop, vectorized.

    Returns (rate, u, theta_id, theta_err, v, omega, udot); does not
    mutate its inputs.
    """
    law = _flock_law(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps)
    rate, *rest = law(_state(pose, (est,)), (v0,))
    return (_planar(rate)[:, 0], *rest)


def intercept_eval(pose, vthat, ethat, target_pos, target_vel, target_acc,
                   edges, d2, leader, k_a, k_t, c, alpha1, alpha2, smooth_eps):
    """One synchronous evaluation of the interception loop, vectorized.

    Returns (rate_v, rate_e, u, theta_id, theta_err, v, omega, udot).
    """
    law = _intercept_law(len(pose), edges, d2, leader, k_a, k_t, c,
                         alpha1, alpha2, smooth_eps)
    rate, *rest = law(_state(pose, (vthat, ethat)),
                      (target_vel, target_pos, target_acc))
    return (_planar(rate)[:, 0], _planar(rate)[:, 1], *rest)


def _rollout_numpy(law, pose, ests, seqs, dt, n_steps, sample_every,
                   out_t, out_pose, out_cmd, out_u, out_tid, *out_ests):
    """Explicit-Euler rollout of ``law``, the numpy form of both modes.

    ``ests`` are the K (n, 2) estimates and ``out_ests`` their logs; row
    ``step`` of the signal sequences ``seqs`` is the law's ``sig``.
    Updates pose and ests in place; returns the status triple.
    """
    X = _state(pose, ests)
    Xc, th, E = X.view(complex), X[:, 2], X[:, 4:]
    status = (STATUS_OK, -1, n_steps)
    row = 0
    for step in range(n_steps + 1):
        rate, u, tid, _te, v, omega, _udot = law(X, [s[step] for s in seqs])
        if step % sample_every == 0:
            out_t[row] = step * dt
            out_pose[row] = X[:, :3]
            out_cmd[row, :, 0] = v
            out_cmd[row, :, 1] = omega
            out_u[row] = u
            out_tid[row] = tid
            for k, out in enumerate(out_ests):
                out[row] = E[:, 2 * k:2 * k + 2]
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
    for k, est in enumerate(ests):
        est[:] = E[:, 2 * k:2 * k + 2]
    return status


def flock_rollout_numpy(pose, est, edges, d2, bflag, v0_seq, k_a, c, alpha,
                        anchor_sign, smooth_eps, dt, n_steps, sample_every,
                        *outs):
    """The numpy form of the flocking rollout (arguments as the loop form)."""
    law = _flock_law(edges, d2, bflag, k_a, c, alpha, anchor_sign, smooth_eps)
    return _rollout_numpy(law, pose, (est,), (v0_seq,), dt, n_steps,
                          sample_every, *outs)


def intercept_rollout_numpy(pose, vthat, ethat, edges, d2, leader,
                            pt_seq, vt_seq, at_seq, k_a, k_t, c, alpha1,
                            alpha2, smooth_eps, dt, n_steps, sample_every,
                            *outs):
    """The numpy form of the interception rollout (arguments as the loop form)."""
    law = _intercept_law(len(pose), edges, d2, leader, k_a, k_t, c,
                         alpha1, alpha2, smooth_eps)
    return _rollout_numpy(law, pose, (vthat, ethat), (vt_seq, pt_seq, at_seq),
                          dt, n_steps, sample_every, *outs)


# compiled variants (compilation happens on first call, cached on disk)
if HAS_NUMBA:
    flock_rollout_jit = numba.njit(cache=True)(_flock_rollout_loops)
    intercept_rollout_jit = numba.njit(cache=True)(_intercept_rollout_loops)
else:  # pragma: no cover - exercised only without numba
    flock_rollout_jit = None
    intercept_rollout_jit = None


class KernelUnavailable(RuntimeError):
    """The requested kernel implementation is not installed."""


def flock_rollout(*args, force: str | None = None):
    """Dispatch the flocking rollout to the selected implementation.

    ``force`` overrides the environment default with "jit" or "numpy".
    Returns ``(kernel, status)``: the name of the implementation that
    ran ("numba" or "numpy") and the rollout's status triple.
    """
    return _dispatch(flock_rollout_jit, flock_rollout_numpy, force, args)


def intercept_rollout(*args, force: str | None = None):
    """Dispatch the interception rollout (see flock_rollout)."""
    return _dispatch(intercept_rollout_jit, intercept_rollout_numpy, force, args)


def _dispatch(jit_impl, numpy_impl, force, args):
    impl = _pick(jit_impl, numpy_impl, force)
    return ("numba" if impl is jit_impl else "numpy"), impl(*args)


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
