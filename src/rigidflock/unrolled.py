"""The loop form as straight-line Python, generated for one graph.

``rollout`` takes ``kernels._rollout_loops``' arguments and has its
effects, and is the loop form's one uncompiled runtime.  It runs a
function compiled from source written for the law's graph (agents,
channels, edges, leader, plain or smoothed sign), which takes the law's
values as arguments and performs the same floating-point operations in
the same order, so its logs, state and status are bit for bit those of
``_rollout_loops``; CPython runs a step of it in about 40% of the time
the loop form took on lists (README, "Kernels and environment flags"):

- the step loop is inside the function, and pose and estimates live in
  locals (``x_3``, ``e_3_1``) from the call's start to its return, on
  divergence too;
- per-edge and per-agent temporaries are locals, and every sum is one
  expression accumulated from 0.0 in edge order;
- ``_sgn`` and ``_wrap`` are inlined, and the law's values are
  arguments: each array is read into one local per entry once per call,
  -alpha and -c negated there (exactly);
- the cos/sin of each heading and the cosine of each heading error are
  computed once per step, and reused for the Euler step and v;
- a logged row is packed into one bytes object of doubles, and the rows
  reach the ``out_*`` logs as one array when the call returns.

Indexed names end in ``_<index>``; scratch names have neither digits
nor underscores, and argument names end in a letter, so no two collide.
Only Python ints (``_int``, which raises on anything else) and the
constants 2 pi, pi, ``EPS_U`` and ``POS_LIMIT`` enter the source, so no
value of a law or text from a scenario reaches it.  A graph's
function is built once (``_build`` is cached), by the first call, of 0
steps or more, and laws on one graph share it.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .kernels import EPS_U, POS_LIMIT, STATUS_DIVERGED, STATUS_OK
from .unicycle import TWO_PI


def _int(i) -> int:
    """``i`` if it is a Python int (not a bool), whose text is its repr."""
    if type(i) is not int:
        raise TypeError(f"an index must be an int, got {i!r}")
    return i


def rollout(pose, est, sig, edges, d2, anchor, leader, alphas, weights,
            k_a, c, smooth_eps, dt, n_steps, sample_every, *outs):
    """``kernels._rollout_loops`` run by the function generated for its
    law's graph: same arguments and effects."""
    run = _build(len(anchor), len(weights), tuple(map(tuple, edges.tolist())), leader,
                 smooth_eps > 0.0)
    status, rows = run(pose, est, sig, d2, anchor, alphas, weights, k_a, c, smooth_eps,
                       dt, n_steps, sample_every)
    logged = np.frombuffer(b"".join(rows)).reshape(len(rows), -1)
    col = 0
    for out in outs:
        shape = (len(rows),) + out.shape[1:]
        width = math.prod(shape[1:])
        out[:len(rows)] = logged[:, col:col + width].reshape(shape)
        col += width
    return status


@functools.lru_cache(maxsize=8)
def _build(n, nk, edges, leader, smoothed):
    """The compiled function of ``source``'s graph."""
    namespace = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt,
                 "atan2": math.atan2, "pack": struct.Struct(f"{n * (8 + 2 * nk)}d").pack}
    exec(compile(source(n, nk, edges, leader, smoothed), "<rigidflock.unrolled>", "exec"),
         namespace)
    return namespace["rollout"]


def source(n, nk, edges, leader, smoothed):
    """The source of ``rollout(pose, est, sig, d2, anchor, alphas, weights,
    k_a, c, smooth_eps, dt, n_steps, sample_every)`` for n agents, nk
    channels, the edges (pairs of ints) and the leader (-1 for none), with
    the smoothed sign if ``smoothed`` (the law has ``smooth_eps`` > 0).
    It returns the status and the logged rows, each ``pack``ed as pose,
    cmd, u, heading error and est."""
    agents = range(_int(n))
    m2 = 2 * _int(nk)
    if _int(leader) >= 0 and nk < 2:
        raise ValueError("a leader needs the v_T and e_T channels")
    two_pi, pi, eps_u, limit = map(repr, (TWO_PI, math.pi, EPS_U, POS_LIMIT))
    ends = [(_int(i), _int(j)) for i, j in edges]
    # (sign, edge) per agent in edge order: edge k adds to its first
    # end's sums and subtracts from its second's.
    touch = {i: [] for i in agents}
    for k, (i, j) in enumerate(ends):
        touch[i].append(("+", k))
        touch[j].append(("-", k))

    def total(i, term):
        return "(0.0" + "".join(f" {s} {term(k)}" for s, k in touch[i]) + ")"

    def ref(m):  # v_0 or v_T, then e_T = p_T - p_L
        if m < 2:
            return f"g_{m}"
        return f"r_{m}" if leader >= 0 and m < 4 else "0.0"

    def sgn(dst, expr):
        if smoothed:
            return [f"{dst} = ({expr}) / smooth_eps",
                    f"if {dst} > 1.0: {dst} = 1.0",
                    f"elif {dst} < -1.0: {dst} = -1.0"]
        return [f"{dst} = {expr}",
                f"{dst} = 1.0 if {dst} > 0.0 else (-1.0 if {dst} < 0.0 else 0.0)"]

    def wrap(dst, expr):
        return [f"{dst} = ({expr}) % {two_pi}", f"if {dst} > {pi}: {dst} -= {two_pi}"]

    def names(i, *fmts):
        return ", ".join(fmt.format(i=i, m=m) for fmt in fmts
                         for m in (range(m2) if "{m}" in fmt else [0]))

    def per_agent(*fmts):
        return ", ".join(names(i, *fmts) for i in agents)

    def nested(*fmts):
        return "[" + ", ".join(f"[{names(i, *fmts)}]" for i in agents) + "]"

    def unpack(name, count, values):  # one local per entry of a law's field
        return [", ".join(f"{name}_{k}" for k in range(count)) + f", = {values}"] if count else []

    ncols = 6 if leader >= 0 else 2
    body = ["pl = pose.tolist()", "el = est.tolist()"]
    body += unpack("q", len(ends), "d2.tolist()") + unpack("an", n, "anchor.tolist()")
    body += unpack("na", nk, "(-alphas).tolist()") + unpack("wt", nk, "weights.tolist()")
    body += unpack("nc", n, "(-c).tolist()")
    body += [f"{names(i, 'x_{i}', 'y_{i}', 'h_{i}')} = pl[{i}]" for i in agents]
    body += [f"{names(i, 'e_{i}_{m}')}, = el[{i}]" for i in agents]
    body += [f"sl = sig[:n_steps + 1, :{ncols}].tolist()",
             "rows = []",
             f"status = ({STATUS_OK}, -1, n_steps)",
             "for step in range(n_steps + 1):"]
    loop = [", ".join(f"g_{m}" for m in range(ncols)) + " = sl[step]"]
    if leader >= 0:
        loop += [f"r_2 = g_2 - x_{leader}", f"r_3 = g_3 - y_{leader}"]
    for k, (i, j) in enumerate(ends):
        loop += [f"dx_{k} = x_{i} - x_{j}", f"dy_{k} = y_{i} - y_{j}",
                 f"z_{k} = dx_{k} * dx_{k} + dy_{k} * dy_{k} - q_{k}"]
    # pass 1: observer rates (signum in each agent's frame), controls and
    # the estimates' part of udot
    for i in agents:
        loop += [f"ct_{i} = cos(h_{i})", f"st_{i} = sin(h_{i})"]
        for k in range(nk):
            for m, dst in ((2 * k, "ax"), (2 * k + 1, "ay")):
                sums = total(i, lambda e: f"(e_{ends[e][0]}_{m} - e_{ends[e][1]}_{m})")
                loop.append(f"{dst} = {sums} + an_{i} * (e_{i}_{m} - {ref(m)})")
            loop += sgn("sx", f"ct_{i} * ax + st_{i} * ay")
            loop += sgn("sy", f"-st_{i} * ax + ct_{i} * ay")
            loop += [f"ra_{i}_{2 * k} = na_{k} * (ct_{i} * sx - st_{i} * sy)",
                     f"ra_{i}_{2 * k + 1} = na_{k} * (st_{i} * sx + ct_{i} * sy)"]
        for a, d in ((0, "x"), (1, "y")):
            # the free leader steers by the weighted true references
            u = "0.0" + "".join(f" + wt_{k} * "
                                + (ref(2 * k + a) if i == leader else f"e_{i}_{2 * k + a}")
                                for k in range(nk))
            if i != leader:
                u += f" - k_a * {total(i, lambda e: f'd{d}_{e} * z_{e}')}"
            loop.append(f"u{d}_{i} = {u}")
        loop += [f"nq_{i} = ux_{i} * ux_{i} + uy_{i} * uy_{i}",
                 f"nu_{i} = sqrt(nq_{i})",
                 f"td = atan2(uy_{i}, ux_{i}) if nu_{i} > {eps_u} else 0.0"]
        loop += wrap(f"te_{i}", f"h_{i} - td")
        loop += [f"bc_{i} = cos(te_{i})", f"bs = sin(te_{i})",
                 f"bx_{i} = bc_{i} * (bc_{i} * ux_{i} - bs * uy_{i})",
                 f"by_{i} = bc_{i} * (bs * ux_{i} + bc_{i} * uy_{i})"]
    # pass 2: control rates and commands
    for k, (i, j) in enumerate(ends):
        loop += [f"wx = bx_{i} - bx_{j}", f"wy = by_{i} - by_{j}",
                 f"ma = z_{k} + 2.0 * dx_{k} * dx_{k}",
                 f"mb = 2.0 * dx_{k} * dy_{k}",
                 f"mc = z_{k} + 2.0 * dy_{k} * dy_{k}",
                 f"fx_{k} = k_a * (ma * wx + mb * wy)",
                 f"fy_{k} = k_a * (mb * wx + mc * wy)"]
    for i in agents:
        if i == leader:  # the reference rates are a_T and v_T - B u_L
            udx, udy = (f"(wt_0 * g_{4 + a} + wt_1 * (g_{a} - b{d}_{i}))"
                        for a, d in ((0, "x"), (1, "y")))
        else:
            udx, udy = ("(0.0" + "".join(f" + wt_{k} * ra_{i}_{2 * k + a}" for k in range(nk))
                        + "".join(f" {'-' if s == '+' else '+'} f{d}_{k}" for s, k in touch[i])
                        + ")" for a, d in ((0, "x"), (1, "y")))
        loop += [f"dd = (ux_{i} * {udy} - uy_{i} * {udx}) / nq_{i}"
                 f" if nu_{i} > {eps_u} else 0.0",
                 f"v_{i} = nu_{i} * bc_{i}",
                 f"w_{i} = nc_{i} * te_{i} + dd"]
    logged = ", ".join([per_agent("x_{i}", "y_{i}", "h_{i}"), per_agent("v_{i}", "w_{i}"),
                        per_agent("ux_{i}", "uy_{i}"), per_agent("te_{i}"),
                        per_agent("e_{i}_{m}")])
    loop += ["if step % sample_every == 0:",
             f"    rows.append(pack({logged}))",
             "if step == n_steps:",
             "    break"]
    for i in agents:
        loop += [f"x_{i} = x_{i} + v_{i} * ct_{i} * dt",
                 f"y_{i} = y_{i} + v_{i} * st_{i} * dt"]
        loop += wrap(f"h_{i}", f"h_{i} + w_{i} * dt")
        loop += [f"e_{i}_{m} = e_{i}_{m} + ra_{i}_{m} * dt" for m in range(m2)]
        # The loop form's bounds and isfinite tests: a comparison with nan
        # is false, a wrapped infinite heading is nan, and e - e is 0.0
        # for every finite e only.
        finite = " + ".join(f"({v} - {v})" for v in names(i, "h_{i}", "e_{i}_{m}").split(", "))
        loop += [f"if not (-{limit} <= x_{i} <= {limit} and -{limit} <= y_{i} <= {limit}"
                 f" and {finite} == 0.0):",
                 f"    status = ({STATUS_DIVERGED}, {i}, step + 1)",
                 "    break"]
    body += ["    " + line for line in loop]
    body += [f"pose[:] = {nested('x_{i}', 'y_{i}', 'h_{i}')}",
             f"est[:] = {nested('e_{i}_{m}')}",
             "return status, rows"]
    return ("def rollout(pose, est, sig, d2, anchor, alphas, weights, k_a, c, smooth_eps,"
            " dt, n_steps, sample_every):\n"
            + "".join(f"    {line}\n" for line in body))
