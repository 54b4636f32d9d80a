"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is asserted at its stated tolerance against the shipped
scenarios or reduced closed-loop setups.  Run with ``pytest -v`` to get
one line per criterion; add ``-s`` for the printed numeric margins.
"""

import numpy as np
import pytest

from rigidflock import engine
from rigidflock.cli import main as cli_main
from rigidflock.engine import RunConfig, metrics, run, velocity_tracking_errors
from rigidflock.graph import Graph, laplacian
from rigidflock.observers import ObserverBank, consensus_observer_rate
from rigidflock.rigidity import (
    Framework,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    reduced_rigidity_matrix,
    rigidity_matrix,
    rigidity_rank,
)
from rigidflock.scenario import bundled_scenario_path, load_scenario
from rigidflock.trajectories import LinePath
from rigidflock.unicycle import b_matrix, rot_matrix, wrap_angle


def report(num, title, ok, detail):
    print(f"CRITERION {num} ({title}): {'PASS' if ok else 'FAIL'} — {detail}")


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_criterion_1_pentagon_flocking():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"))
    cfg = scn.to_run_config()
    # Warm-up run so one-time JIT compilation stays out of the timing.
    warm = load_scenario(bundled_scenario_path("pentagon_flock"), duration=0.01)
    run(warm.to_run_config())
    log = run(cfg)

    edge = float(log.edge_errors[log.t >= 20.0].max())
    heading = float(np.abs(log.heading_errors[log.t >= 20.0]).max())
    vel = velocity_tracking_errors(log)  # rows 1..rows-2
    vel_late = float(vel[log.t[1:-1] >= 25.0].max())
    runtime = float(log.meta["runtime_s"])

    ok = edge < 5e-3 and heading < 0.05 and vel_late < 5e-3 and runtime < 10.0
    report(1, "pentagon flocking",
           ok,
           f"max edge error {edge:.2e} < 5e-3 m (t>=20s), "
           f"max heading error {heading:.2e} < 0.05 rad (t>=20s), "
           f"velocity tracking {vel_late:.2e} < 5e-3 m/s (t>=25s), "
           f"runtime {runtime:.2f} s < 10 s [{log.meta['kernel']}]")
    assert edge < 5e-3
    assert heading < 0.05
    assert vel_late < 5e-3
    assert runtime < 10.0


def test_criterion_2_observer_finite_time():
    # Single flagged agent: the estimate closes the initial gap at rate
    # alpha and reaches the signal at t = 0.5 s, then chatters.
    g1 = Graph(1, [])
    dt, alpha = 1e-4, 1.0
    v0 = np.array([0.1, 0.0])
    bank = ObserverBank([[0.6, 0.0]], alpha, [1])
    hit_time = None
    errors = []
    for k in range(int(round(1.0 / dt)) + 1):
        err = float(np.abs(bank.estimates[0] - v0).max())
        errors.append(err)
        if hit_time is None and err <= alpha * dt:
            hit_time = k * dt
        bank.estimates += consensus_observer_rate(bank, g1, v0) * dt
    errors = np.array(errors)
    window = (0.5 - 2 * dt, 0.5 + 2 * dt)
    in_window = hit_time is not None and window[0] <= hit_time <= window[1]
    chatter = float(errors[int(round(0.5 / dt)) + 2:].max())

    # Connected 5-agent chain, one flagged agent, alpha = 1.
    g5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    dt5 = 5e-5
    v0c = np.array([0.5, -0.3])
    chain = ObserverBank(np.zeros((5, 2)), 1.0, [1, 0, 0, 0, 0])
    for _ in range(int(round(5.0 / dt5))):
        chain.estimates += consensus_observer_rate(chain, g5, v0c) * dt5
    chain_err = float(np.sqrt(((chain.estimates - v0c) ** 2).sum(axis=1)).max())

    ok = in_window and chatter <= 2 * alpha * dt and chain_err < 1e-3
    report(2, "observer finite-time convergence",
           ok,
           f"single agent hit t={hit_time} in [{window[0]:.4f}, {window[1]:.4f}] s, "
           f"chatter {chatter:.1e} <= {2 * alpha * dt:.1e}, "
           f"5-chain error {chain_err:.2e} < 1e-3 within 5 s")
    assert in_window
    assert chatter <= 2 * alpha * dt
    assert chain_err < 1e-3


def test_criterion_3_rigidity_certification():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"))
    pent = scn.target.framework
    rank = rigidity_rank(pent)
    pent_ok = rank == 7 and is_minimally_rigid(pent)

    square = Framework(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
                       [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    square_ok = not is_infinitesimally_rigid(square)

    rng = np.random.default_rng(123)
    random_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        random_ok &= is_infinitesimally_rigid(f)

    worst_resid = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        x = rng.normal(size=2)
        resid = rigidity_matrix(f) @ np.tile(x, n)
        worst_resid = max(worst_resid, float(np.abs(resid).max()))

    ok = pent_ok and square_ok and random_ok and worst_resid < 1e-12
    report(3, "rigidity certification",
           ok,
           f"pentagon rank {rank} == 7 and minimally rigid, "
           f"square-no-diagonal rigid={not square_ok}, "
           f"100/100 random complete frameworks rigid={random_ok}, "
           f"translation-residual {worst_resid:.1e} < 1e-12")
    assert pent_ok
    assert square_ok
    assert random_ok
    assert worst_resid < 1e-12


def test_criterion_4_identity_suite():
    grid = np.linspace(-np.pi, np.pi, 1000)
    b_err = max(float(np.abs(b_matrix(e) - np.cos(e) * rot_matrix(e)).max())
                for e in grid)

    rng = np.random.default_rng(321)
    rr_err = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        f = Framework(complete_graph(n), rng.normal(size=(n, 2)))
        R = rigidity_matrix(f)
        R0 = reduced_rigidity_matrix(f, n)
        rr_err = max(rr_err, float(np.abs(R @ R0.T - R0 @ R0.T).max()))

    lap_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        keep = rng.uniform(size=len(pairs)) < 0.6
        g = Graph(n, [p for p, k in zip(pairs, keep) if k])
        lap_err = max(lap_err, float(np.abs(laplacian(g) @ np.ones(n)).max()))

    ok = b_err < 1e-14 and rr_err < 1e-12 and lap_err < 1e-12
    report(4, "identity suite",
           ok,
           f"input-map identity {b_err:.1e} < 1e-14 on 1000-point grid, "
           f"reduced-matrix product identity {rr_err:.1e} < 1e-12 on 50 frameworks, "
           f"Laplacian nullspace {lap_err:.1e} < 1e-12")
    assert b_err < 1e-14
    assert rr_err < 1e-12
    assert lap_err < 1e-12


class _RotatedSignal:
    """A planar signal rotated by a fixed rotation matrix."""

    def __init__(self, base, Q):
        self.base = base
        self.Q = Q

    def state(self, t):
        p, v, a = self.base.state(t)
        return self.Q @ p, self.Q @ v, self.Q @ a

    def sample(self, times):
        p, v, a = self.base.sample(times)
        return p @ self.Q.T, v @ self.Q.T, a @ self.Q.T

    def sup_speed(self):
        return self.base.sup_speed()

    def sup_accel(self):
        return self.base.sup_accel()


def test_criterion_5_frame_invariance():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"))
    base = scn.to_run_config()
    kw = dict(mode="flock", graph=base.graph, distances=base.distances,
              dt=base.dt, duration=1000 * base.dt, sample_every=1,
              k_a=base.k_a, c=base.c, alpha=base.alpha,
              access_flags=base.access_flags, anchor_sign=base.anchor_sign)
    log0 = run(RunConfig(initial_poses=base.initial_poses, signal=base.signal,
                         initial_v_f_hat=base.initial_v_f_hat, **kw))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(-np.pi, np.pi)
        offset = rng.uniform(-5.0, 5.0, size=2)
        Q = rot_matrix(phi)
        poses = base.initial_poses.copy()
        poses[:, :2] = poses[:, :2] @ Q.T + offset
        poses[:, 2] = wrap_angle(poses[:, 2] + phi)
        log = run(RunConfig(initial_poses=poses,
                            signal=_RotatedSignal(base.signal, Q),
                            initial_v_f_hat=base.initial_v_f_hat @ Q.T, **kw))
        worst = max(worst, float(np.abs(log.commands - log0.commands).max()))

    ok = worst < 1e-9
    report(5, "frame invariance",
           ok,
           f"max command deviation {worst:.2e} < 1e-9 over 20 isometries x "
           f"1000 steps")
    assert worst < 1e-9


def test_criterion_6_heading_loop_exponential():
    # Single agent holding a constant planar control (u = v0, nonzero):
    # the heading error must decay as theta_err(0) exp(-c t).
    c = 10.0
    theta0 = 1.0
    cfg = RunConfig(mode="flock", graph=Graph(1, []), distances=np.zeros(0),
                    initial_poses=[[0.0, 0.0, theta0]],
                    signal=LinePath([0.0, 0.0], [0.5, 0.0]),
                    dt=1e-4, duration=0.3, sample_every=10, k_a=1.0, c=c,
                    alpha=1.0, access_flags=[1],
                    initial_v_f_hat=[[0.5, 0.0]])
    log = run(cfg)
    fit = theta0 * np.exp(-c * log.t)
    rel = float((np.abs(log.heading_errors[:, 0] - fit) / fit).max())

    ok = rel < 0.02
    report(6, "heading-loop exponential decay",
           ok,
           f"max relative fit error {rel:.2e} < 2e-2 over 3 time constants")
    assert rel < 0.02


def test_criterion_7_interception():
    scn = load_scenario(bundled_scenario_path("pentagon_intercept"))
    gate = scn.gains.alpha1 > 0.3 * 0.2**2  # target accel bound r w^2
    vt0 = scn.signal.state(0.0)[1]
    leader_seeded = bool(np.allclose(scn.initial_v_t_hat[-1], vt0))
    log = run(scn.to_run_config())
    m = metrics(log, settle_time_s=30.0)
    e_t = m["max_e_t_norm_after_30s"]
    hull = m["hull_contains_always_after_30s"]
    edge = m["max_edge_error_after_30s"]

    ok = gate and leader_seeded and e_t < 1e-2 and hull and edge < 5e-3
    report(7, "interception",
           ok,
           f"alpha1 gain gate {gate}, leader estimate seeded {leader_seeded}, "
           f"target error {e_t:.2e} < 1e-2 m (t>=30s), hull contains {hull}, "
           f"max edge error {edge:.2e} < 5e-3 m (t>=30s)")
    assert gate
    assert leader_seeded
    assert e_t < 1e-2
    assert hull
    assert edge < 5e-3


def test_criterion_8_determinism(tmp_path):
    identical = True
    for name in ("pentagon_flock", "pentagon_intercept"):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            rc = cli_main(["simulate", str(bundled_scenario_path(name)),
                           "--out", str(out)])
            assert rc == 0
            blobs.append([(out / f).read_bytes()
                          for f in ("trajectory.csv", "metrics.csv")])
        identical &= blobs[0] == blobs[1]

    report(8, "determinism",
           identical,
           "same-seed reruns of both bundled scenarios produced "
           "byte-identical trajectory.csv and metrics.csv" if identical else
           "trajectory.csv or metrics.csv bytes differ between same-seed reruns")
    assert identical
