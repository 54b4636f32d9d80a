"""Tests for the rollout kernels: jit/numpy parity and dispatch."""

import dataclasses
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidflock
from rigidflock import engine, kernels, oracle
from rigidflock.graph import Graph
from rigidflock.kernels import EPS_U
from rigidflock.rigidity import Framework, edge_function, is_minimally_rigid
from rigidflock.scenario import bundled_scenario_path, load_scenario
from rigidflock.trajectories import CirclePath


def run_both(name, duration):
    scn = load_scenario(bundled_scenario_path(name), duration=duration)
    cfg = scn.to_run_config()
    return (engine.run(cfg, force_kernel="jit"),
            engine.run(cfg, force_kernel="numpy"))


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not installed")
def test_flock_kernels_agree():
    jit_log, np_log = run_both("pentagon_flock", duration=2.0)
    assert np.abs(jit_log.poses - np_log.poses).max() < 1e-9
    assert np.abs(jit_log.commands - np_log.commands).max() < 1e-9
    assert np.abs(jit_log.v_f_hat - np_log.v_f_hat).max() < 1e-9
    assert jit_log.meta["kernel"] == "numba"
    assert np_log.meta["kernel"] == "numpy"


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not installed")
def test_intercept_kernels_agree():
    jit_log, np_log = run_both("pentagon_intercept", duration=1.0)
    assert np.abs(jit_log.poses - np_log.poses).max() < 1e-9
    assert np.abs(jit_log.commands - np_log.commands).max() < 1e-9
    assert np.abs(jit_log.v_t_hat - np_log.v_t_hat).max() < 1e-9
    assert np.abs(jit_log.e_t_hat - np_log.e_t_hat).max() < 1e-9


def henneberg_config(n, seed, steps, mode="flock", smoothing_epsilon=0.01):
    """A seeded run on a minimally rigid graph grown by Henneberg type-I steps.

    Each new agent joins both ends of a random existing edge, placed
    near that edge's midpoint, so the graph has 2n - 3 edges.  The
    observers use the smoothed signum by default, which the pentagons
    do not.  In intercept mode the last agent is the free leader and
    chases a circling target.
    """
    rng = np.random.default_rng(seed)
    pos = [np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.05, 0.09])]
    edges = [(1, 2), (1, 3), (2, 3)]
    for k in range(4, n + 1):
        i, j = edges[rng.integers(len(edges))]
        pos.append(0.5 * (pos[i - 1] + pos[j - 1]) + rng.normal(scale=0.05, size=2))
        edges += [(i, k), (j, k)]
    pos = np.array(pos)
    g = Graph(n, edges)
    assert is_minimally_rigid(Framework(g, pos))
    poses = np.column_stack([pos + rng.normal(scale=0.01, size=(n, 2)),
                             rng.uniform(-np.pi, np.pi, size=n)])
    if mode == "flock":
        flags = np.zeros(n)
        flags[0] = 1.0
        gains = dict(alpha=0.05, access_flags=flags)
    else:
        gains = dict(k_t=1.0, alpha1=0.05, alpha2=0.25)
    return engine.RunConfig(
        mode=mode, graph=g, distances=np.sqrt(edge_function(Framework(g, pos))),
        initial_poses=poses, signal=CirclePath([0.0, 0.0], 0.15, 0.3),
        dt=1e-3, duration=steps * 1e-3, sample_every=10, k_a=6.0, c=10.0,
        smoothing_epsilon=smoothing_epsilon, target_positions=pos, **gains)


@pytest.mark.parametrize("case", ["pentagon_flock", "pentagon_intercept",
                                  "henneberg_30", "henneberg_30_intercept",
                                  "henneberg_200"])
def test_loop_form_matches_numpy_rollout(case, monkeypatch):
    # The loop form is plain Python (only rollout_jit is compiled), so it
    # is checked against the numpy law in every environment.
    if case == "henneberg_30":
        cfg = henneberg_config(30, seed=8, steps=200)
    elif case == "henneberg_30_intercept":
        cfg = henneberg_config(30, seed=9, steps=200, mode="intercept")
    elif case == "henneberg_200":  # the benchmark's wide_formation scale
        cfg = henneberg_config(200, seed=10, steps=100)
    else:
        duration = 0.5 if case == "pentagon_flock" else 0.12
        cfg = load_scenario(bundled_scenario_path(case),
                            duration=duration).to_run_config()
    numpy_log = engine.run(cfg, force_kernel="numpy")
    # The loop form on arrays (the numba source uncompiled) and on lists.
    for loops in (kernels._rollout_loops, kernels._rollout_lists):
        monkeypatch.setattr(kernels, "_rollout_numpy", loops)
        assert_logs_match(engine.run(cfg, force_kernel="numpy"), numpy_log)


LOGGED_ESTIMATES = {"flock": ("v_f_hat",), "intercept": ("v_t_hat", "e_t_hat")}


def assert_logs_match(log, ref):
    for name in ("poses", "commands") + LOGGED_ESTIMATES[log.mode]:
        diff = np.abs(getattr(log, name) - getattr(ref, name)).max()
        assert diff < 1e-9, (name, diff)


def run_lists(cfg):
    """``engine.run`` on the list runtime, whatever the formation size."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "_rollout_numpy", kernels._rollout_lists)
        return engine.run(cfg, force_kernel="numpy")


def estimates_near_references(cfg, seed):
    """``cfg`` with every observer starting 0.01 m(/s) from its reference.

    From zero estimates, an intercept follower near its slot has
    |u| ~ 3e-4, and under the plain signum the heading rate
    (u x udot) / |u|^2 amplifies rounding until two correct
    implementations part by ~1e-4 within 300 steps.  Started near the
    references, |u| stays of the order of the target's speed.
    """
    rng = np.random.default_rng(seed)
    p, v, _ = cfg.signal.state(0.0)
    near = [ref + rng.normal(scale=0.01, size=(cfg.n, 2))
            for ref in (v, p - cfg.initial_poses[-1, :2])]
    if cfg.mode == "flock":
        return dataclasses.replace(cfg, initial_v_f_hat=near[0])
    return dataclasses.replace(cfg, initial_v_t_hat=near[0], initial_e_t_hat=near[1])


def parked_beside_live_config(mode, seed, smoothing):
    """A seeded 30-agent Henneberg formation started near its references,
    beside four agents that stay parked (|u| <= EPS_U) all run long.

    The parked agents come first, with zero estimates and no access to
    a reference: two without an edge (u = 0) and a pair whose edge is
    off by rounding only (|u| ~ 1e-18).  They stay apart from the
    formation on purpose: a parked agent that moving neighbours wake
    becomes live with |u| just above EPS_U, where the heading rate
    (u x udot) / |u|^2 amplifies rounding until two correct forms part
    by far more than 1e-9.
    """
    live = estimates_near_references(
        henneberg_config(30, seed, steps=100, mode=mode,
                         smoothing_epsilon=smoothing), seed)
    pos = np.array([[-1.0, 0.0], [-1.0, 0.5], [1.0, -1.0], [1.06, -0.92]])
    m = len(pos)
    headings = np.random.default_rng(seed).uniform(-np.pi, np.pi, m)
    names = (("initial_v_f_hat", "access_flags") if mode == "flock"
             else ("initial_v_t_hat", "initial_e_t_hat"))
    parked = {name: np.concatenate([np.zeros((m,) + getattr(live, name).shape[1:]),
                                    getattr(live, name)]) for name in names}
    return dataclasses.replace(
        live, graph=Graph(live.n + m, [(3, 4)] + [(i + m, j + m)
                                                 for i, j in live.graph.edges]),
        distances=np.concatenate([[0.1], live.distances]),
        initial_poses=np.concatenate([np.column_stack([pos, headings]),
                                      live.initial_poses]),
        target_positions=np.concatenate([pos, live.target_positions]),
        c=10.0, sample_every=1, **parked)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("smoothing", [0.0, 0.01])
@pytest.mark.parametrize("mode", ["flock", "intercept"])
def test_law_matches_loop_form_with_parked_and_live_agents(mode, smoothing):
    # Every step has parked and live agents, so the law's parked branch
    # runs on each one (and must not divide by a parked |u|).
    cfg = parked_beside_live_config(mode, seed=12, smoothing=smoothing)
    lists = run_lists(cfg)
    nu = np.hypot(lists.u[..., 0], lists.u[..., 1])
    assert lists.rows == 101
    assert (nu[:, :4] <= EPS_U).all() and (nu[:, 4:] > EPS_U).all()
    assert 0 < nu[:, 2:4].min()
    assert_logs_match(engine.run(cfg, force_kernel="numpy"), lists)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["flock", "intercept"]),
       smoothing=st.sampled_from([0.0, 0.01]))
def test_list_runtime_matches_law_on_random_rigid_graphs(n, seed, mode, smoothing):
    # Formations above LIST_MAX_EDGES never reach the list runtime by
    # dispatch; called directly, they are covered too.
    cfg = estimates_near_references(
        henneberg_config(n, seed, steps=300, mode=mode,
                         smoothing_epsilon=smoothing), seed)
    assert_logs_match(run_lists(cfg), engine.run(cfg, force_kernel="numpy"))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["flock", "intercept"]),
       smoothing=st.sampled_from([0.0, 0.01]))
def test_list_runtime_equals_array_loop_form_from_zero_estimates(
        n, seed, mode, smoothing):
    # From zero estimates the closed loop amplifies rounding (see
    # estimates_near_references), so the law is no reference there.  The
    # two runtimes of the loop form run the same operations in the same
    # order on IEEE doubles, so they must agree bit for bit.
    cfg = henneberg_config(n, seed, steps=200, mode=mode,
                           smoothing_epsilon=smoothing)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "_rollout_numpy", kernels._rollout_loops)
        on_arrays = engine.run(cfg, force_kernel="numpy")
    on_lists = run_lists(cfg)
    for name in ("poses", "commands") + LOGGED_ESTIMATES[mode]:
        np.testing.assert_array_equal(getattr(on_lists, name),
                                      getattr(on_arrays, name), err_msg=name)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["flock", "intercept"]),
       smoothing=st.sampled_from([0.0, 0.01]))
def test_measurement_oracle_matches_law_on_random_rigid_graphs(
        n, seed, mode, smoothing):
    # The agent's-eye path (body-frame measurements, one agent at a time)
    # against one evaluation of the law, on the states step_world reaches.
    cfg = estimates_near_references(
        henneberg_config(n, seed, steps=10, mode=mode,
                         smoothing_epsilon=smoothing), seed)
    gains = (cfg.k_a, cfg.c, cfg.alpha, cfg.anchor_sign) if mode == "flock" else (
        cfg.k_a, cfg.k_t, cfg.c, cfg.alpha1, cfg.alpha2)
    world = engine.initial_state(cfg)
    for _ in range(5):
        commands, rates = oracle.measurement_commands(world, cfg)
        if mode == "flock":
            _, v0, _ = cfg.signal.state(world.time)
            rate, _u, _tid, _te, v, omega, _udot = kernels.flock_eval(
                world.poses, world.v_f_hat, v0, cfg._edges, cfg._d2,
                cfg.access_flags, *gains, cfg.smoothing_epsilon)
            law_rates = {"v_f": rate}
        else:
            pt, vt, at = cfg.signal.state(world.time)
            rate_v, rate_e, _u, _tid, _te, v, omega, _udot = kernels.intercept_eval(
                world.poses, world.v_t_hat, world.e_t_hat, pt, vt, at, cfg._edges,
                cfg._d2, cfg.leader - 1, *gains, cfg.smoothing_epsilon)
            law_rates = {"v_t": rate_v, "e_t": rate_e}
        np.testing.assert_allclose(commands, np.column_stack([v, omega]),
                                   rtol=0, atol=1e-9)
        assert rates.keys() == law_rates.keys()
        for key, rate in law_rates.items():
            np.testing.assert_allclose(rates[key], rate, rtol=0, atol=1e-9,
                                       err_msg=key)
        world = engine.step_world(world, cfg)


def complete_config(cfg):
    """``cfg`` on the complete graph over its target positions."""
    g = Graph(cfg.n, list(itertools.combinations(range(1, cfg.n + 1), 2)))
    return dataclasses.replace(
        cfg, graph=g,
        distances=np.sqrt(edge_function(Framework(g, cfg.target_positions))))


def test_dispatch_picks_the_form_by_formation_size(monkeypatch):
    # The loop form's cost follows the edge count, so a dense formation
    # of few agents runs the law.
    monkeypatch.setattr(kernels, "USE_NUMBA", False)
    limit = kernels.LIST_MAX_EDGES
    sparse = {n: henneberg_config(n, seed=n, steps=10) for n in (9, 10, 200)}
    cases = [(sparse[9], "loops"), (sparse[10], "law"), (sparse[200], "law"),
             (complete_config(henneberg_config(6, 6, 10)), "loops"),
             (complete_config(henneberg_config(7, 7, 10)), "law"),
             (complete_config(sparse[9]), "law")]
    for cfg, form in cases:
        edges = len(cfg.graph.edges)
        assert (edges <= limit) == (form == "loops"), (cfg.n, edges)
        meta = engine.run(cfg).meta
        assert (meta["kernel"], meta["form"]) == ("numpy", form), (cfg.n, edges)
        forced = engine.run(cfg, force_kernel="numpy").meta
        assert (forced["kernel"], forced["form"]) == ("numpy", "law"), cfg.n


def test_law_heading_error_of_pi_is_plus_pi():
    # Heading 0 and u = (-1, 0): arctan2 of q conj(u) = -1 - 0j is -pi,
    # which (-pi, pi] puts at +pi, as the loop form's wrap does.
    rate, u, tid, te, v, omega, udot = kernels.flock_eval(
        np.zeros((1, 3)), np.array([[-1.0, 0.0]]), np.zeros(2),
        np.zeros((0, 2), dtype=np.intp), np.zeros(0), np.zeros(1), 1.0,
        np.ones(1), 1.0, 1.0, 0.0)
    assert tid[0] == np.pi
    assert te[0] == kernels._wrap(0.0 - tid[0]) == np.pi
    assert omega[0] == -np.pi


def test_jit_arguments_are_numba_types(monkeypatch):
    # numba compiles the loop form in nopython mode only from arrays,
    # ints and floats; record what the dispatcher hands the jit slot.
    names = list(inspect.signature(kernels._rollout_loops).parameters)
    calls = []

    def recorder(*args):
        calls.append(dict(zip(names, args, strict=True)))
        return kernels._rollout_loops(*args)

    monkeypatch.setattr(kernels, "rollout_jit", recorder)
    for case in ("pentagon_flock", "pentagon_intercept"):
        cfg = load_scenario(bundled_scenario_path(case),
                            duration=0.01).to_run_config()
        assert engine.run(cfg, force_kernel="jit").meta["kernel"] == "numba"
    assert len(calls) == 2
    for args in calls:
        for name, value in args.items():
            if name == "edges":
                assert np.issubdtype(value.dtype, np.integer), name
                assert value.flags.c_contiguous, name
            elif isinstance(value, np.ndarray):
                assert value.dtype == np.float64, name
                assert value.flags.c_contiguous, name
            else:
                assert type(value) in (int, float), (name, type(value))


def test_numpy_rollout_matches_step_world():
    # The vectorized rollout must reproduce repeated single steps.
    scn = load_scenario(bundled_scenario_path("pentagon_flock"), duration=0.05)
    cfg = scn.to_run_config()
    log = engine.run(cfg, force_kernel="numpy")
    world = engine.initial_state(cfg)
    for r in range(log.rows):
        step = r * cfg.sample_every
        if r:
            for _ in range(cfg.sample_every):
                world = engine.step_world(world, cfg)
        assert world.time == pytest.approx(step * cfg.dt)
        np.testing.assert_allclose(world.poses, log.poses[r], atol=1e-12)
        np.testing.assert_allclose(world.v_f_hat, log.v_f_hat[r], atol=1e-12)


def test_force_argument_validation():
    cfg = load_scenario(bundled_scenario_path("pentagon_flock"),
                        duration=0.01).to_run_config()
    with pytest.raises(ValueError):
        engine.run(cfg, force_kernel="fast")


def child_env(flag):
    """The parent's environment with RIGIDFLOCK_NUMBA set to ``flag``.

    The directory holding the imported package goes first on PYTHONPATH,
    so the child imports the same code from any working directory.
    """
    env = dict(os.environ, RIGIDFLOCK_NUMBA=flag)
    src = str(Path(rigidflock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_using_numba_reflects_environment():
    code = (
        "import rigidflock.kernels as k\n"
        "print(int(k.USE_NUMBA))\n"
    )
    # "1" enables the compiled kernels only when numba imports.
    for flag, expect in (("0", "0"), ("1", str(int(kernels.HAS_NUMBA)))):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=child_env(flag),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expect


def test_numpy_fallback_runs_without_jit_selected():
    code = (
        "import numpy as np\n"
        "from rigidflock import engine\n"
        "from rigidflock.scenario import bundled_scenario_path, load_scenario\n"
        "scn = load_scenario(bundled_scenario_path('pentagon_flock'), duration=0.02)\n"
        "log = engine.run(scn.to_run_config())\n"
        "print(log.meta['kernel'], log.meta['form'], log.rows)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env("0"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["numpy", "loops", "3"]


def test_divergence_status_from_kernel():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"))
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        data = json.load(fh)
    data["gains"]["k_a"] = 1e12
    from rigidflock.scenario import scenario_from_dict

    bad = scenario_from_dict(data, duration=1.0)
    for force in ("jit", "numpy"):
        if force == "jit" and not kernels.HAS_NUMBA:
            continue
        with pytest.raises(engine.SimulationDiverged):
            engine.run(bad.to_run_config(), force_kernel=force)
    del scn


def test_sgn_helper_matches_observer_sgn():
    from rigidflock.observers import sgn

    rng = np.random.default_rng(33)
    x = rng.normal(size=50)
    x[::7] = 0.0
    for eps in (0.0, 0.05):
        got = np.array([kernels._sgn(v, eps) for v in x])
        np.testing.assert_allclose(got, sgn(x, eps), atol=1e-15)


def test_wrap_helper_matches_unicycle_wrap():
    from rigidflock.unicycle import wrap_angle

    rng = np.random.default_rng(34)
    for v in rng.uniform(-30, 30, size=100):
        assert kernels._wrap(v) == pytest.approx(wrap_angle(v), abs=1e-12)
