"""Tests for the simulation engine: stepping, rollouts, metrics, sensing."""

import dataclasses
import warnings

import numpy as np
import pytest

from rigidflock import engine, unrolled
from rigidflock.engine import (
    RunConfig,
    SimulationDiverged,
    WorldState,
    initial_state,
    metrics,
    run,
    velocity_tracking_errors,
)
from rigidflock.graph import Graph
from rigidflock.oracle import (
    Measurement,
    euler_step,
    measure,
    measurement_commands,
    measurement_step,
)
from rigidflock.rigidity import Framework, edge_function
from rigidflock.scenario import bundled_scenario_path, load_scenario
from rigidflock.trajectories import CirclePath, LinePath


def right_triangle_config(**overrides):
    """3-4-5 triangle whose squared distances are exact in floats."""
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    kw = dict(
        mode="flock",
        graph=g,
        distances=[3.0, 4.0, 5.0],
        initial_poses=np.column_stack([pos, np.zeros(3)]),
        signal=LinePath([0.0, 0.0], [0.0, 0.0]),
        dt=1e-3,
        duration=0.5,
        sample_every=10,
        k_a=6.0,
        c=10.0,
        alpha=0.05,
        access_flags=[1, 0, 0],
        target_positions=pos,
    )
    kw.update(overrides)
    return RunConfig(**kw)


def flock_config():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"), duration=0.2)
    return scn.to_run_config()


def intercept_config():
    scn = load_scenario(bundled_scenario_path("pentagon_intercept"), duration=0.2)
    return scn.to_run_config()


def world_at(log, r):
    """The WorldState that row ``r`` of ``log`` records."""
    return WorldState(float(log.t[r]), log.poses[r], **{
        name: getattr(log, name)[r] for name in engine._ESTIMATES[log.mode]})


# The forms a bundled pentagon runs in: the default (the loop form, or
# rollout_jit where numba is installed) and the numpy law.
FORMS = (None, "numpy")


# --- WorldState and RunConfig validation -----------------------------------

def test_world_state_validation_and_copy():
    w = WorldState(0.0, np.zeros((2, 3)), v_f_hat=np.ones((2, 2)))
    assert w.n == 2
    c = w.copy()
    c.poses[0, 0] = 9.0
    c.v_f_hat[0, 0] = 9.0
    assert w.poses[0, 0] == 0.0 and w.v_f_hat[0, 0] == 1.0
    with pytest.raises(ValueError):
        WorldState(0.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        WorldState(0.0, np.zeros((2, 3)), v_f_hat=np.zeros((3, 2)))


def test_run_config_validation():
    with pytest.raises(ValueError, match="mode"):
        right_triangle_config(mode="chase")
    with pytest.raises(ValueError, match="one entry per edge"):
        right_triangle_config(distances=[3.0, 4.0])
    with pytest.raises(ValueError, match="positive"):
        right_triangle_config(distances=[3.0, 4.0, -5.0])
    # A distance whose square overflows is rejected, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(engine.ConfigError, match="finite squares") as info:
            right_triangle_config(distances=[1e200, 4.0, 5.0])
    assert info.value.field == "distances"
    with pytest.raises(ValueError, match="dt"):
        right_triangle_config(dt=0.0)
    with pytest.raises(ValueError, match="duration"):
        right_triangle_config(duration=-1.0)
    with pytest.raises(ValueError, match="sample_every"):
        right_triangle_config(sample_every=0)
    # dt 1e-3, sample_every 10: a run must end on a logged row.
    with pytest.raises(ValueError, match="2.5 steps must be a whole number"):
        right_triangle_config(duration=0.0025)
    with pytest.raises(ValueError, match="2 steps must be a multiple of sample_every"):
        right_triangle_config(duration=0.002)
    with pytest.raises(ValueError, match="multiple of sample_every = 3"):
        right_triangle_config(sample_every=3)
    with pytest.raises(ValueError, match="too many to index"):
        right_triangle_config(dt=5e-324, c=1.0)  # inf steps
    with pytest.raises(ValueError, match=r"= 1e\+17 steps must be a multiple of "
                                         "sample_every = 3"):
        right_triangle_config(duration=1e14, sample_every=3)
    with pytest.raises(ValueError, match="heading gains"):
        right_triangle_config(c=-10.0)
    for bad_c in ([1.0, 2.0], [[1.0, 2.0, 3.0]] * 2, "abc"):
        with pytest.raises(ValueError, match="heading gains c"):
            right_triangle_config(c=bad_c)
    with pytest.raises(ValueError, match="stable heading loop"):
        right_triangle_config(dt=0.2, c=10.0)
    with pytest.raises(ValueError, match="access_flags"):
        right_triangle_config(access_flags=[1, 2, 0])
    with pytest.raises(ValueError, match="anchor_sign"):
        right_triangle_config(anchor_sign=0.0)
    for eps in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="smoothing"):
            right_triangle_config(smoothing_epsilon=eps)
    # A gain that is not finite and > 0 is bad input, not a divergence
    # at t = dt nor a silent run.
    for mode, names in (("flock", ("k_a", "alpha")),
                        ("intercept", ("k_a", "k_t", "alpha1", "alpha2"))):
        for name in names:
            for bad in (0.0, -6.0, np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    right_triangle_config(mode=mode, **{name: bad})
    # Each rule names its field, whatever the value's type.
    for overrides, name in (({"k_a": "6"}, "k_a"), ({"dt": "0.001"}, "dt"),
                            ({"smoothing_epsilon": "x"}, "smoothing_epsilon"),
                            ({"duration": None}, "duration"),
                            ({"c": [10.0]}, "c"),  # a list is one gain per agent
                            ({"mode": "intercept", "anchor_sign": 5.0}, "anchor_sign"),
                            # the followers' hull needs a follower
                            ({"mode": "intercept", "graph": Graph(1, [])}, "graph"),
                            ({"initial_poses": np.zeros((3, 2))}, "initial_poses")):
        with pytest.raises(engine.ConfigError, match=name) as info:
            right_triangle_config(**overrides)
        assert info.value.field == name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode, name", [
    ("flock", "initial_poses"), ("flock", "initial_v_f_hat"),
    ("intercept", "initial_poses"), ("intercept", "initial_v_t_hat"),
    ("intercept", "initial_e_t_hat"), ("intercept", "target_positions")])
def test_run_config_rejects_non_finite_initial_state(mode, name, bad):
    # A state that was never sane is bad input, not a divergence at t = dt.
    cfg = right_triangle_config(mode=mode)
    value = getattr(cfg, name).copy()
    value[1, -1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(cfg, **{name: value})


def test_run_config_broadcasts_scalar_c():
    cfg = right_triangle_config(c=7.0)
    np.testing.assert_array_equal(cfg.c, [7.0, 7.0, 7.0])
    assert cfg.leader == 3


def test_initial_state_by_mode():
    w = initial_state(flock_config())
    assert w.v_f_hat is not None and w.v_t_hat is None
    w = initial_state(intercept_config())
    assert w.v_f_hat is None
    assert w.v_t_hat is not None and w.e_t_hat is not None
    assert w.time == 0.0


@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_law_mapping_matches_the_eval_wrappers(name):
    # run evaluates RunConfig.law() and references(); perfbench times
    # flock_eval/intercept_eval with the config's fields.  Both
    # mappings of a run onto the law must give the same bits.
    cfg = load_scenario(bundled_scenario_path(name)).to_run_config()
    w = initial_state(cfg)
    est = np.concatenate([getattr(w, f) for f in engine._ESTIMATES[cfg.mode]], axis=1)
    rate, *rest = engine.kernels._eval(cfg.law(), w.poses, est, cfg.references(0.0)[0])
    if cfg.mode == "flock":
        _, v0, _ = cfg.signal.state(0.0)
        expected = engine.kernels.flock_eval(
            w.poses, w.v_f_hat, v0, cfg._edges, cfg._d2, cfg.access_flags,
            cfg.k_a, cfg.c, cfg.alpha, cfg.anchor_sign, cfg.smoothing_epsilon)
    else:
        pt, vt, at = cfg.signal.state(0.0)
        expected = engine.kernels.intercept_eval(
            w.poses, w.v_t_hat, w.e_t_hat, pt, vt, at, cfg._edges, cfg._d2,
            cfg.leader - 1, cfg.k_a, cfg.k_t, cfg.c, cfg.alpha1, cfg.alpha2,
            cfg.smoothing_epsilon)
    got = [rate[:, k] for k in range(rate.shape[1])] + rest
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


# --- stepping ----------------------------------------------------------------

def test_exact_equilibrium_is_bitwise_stationary():
    cfg = right_triangle_config()
    w0 = initial_state(cfg)
    for form in FORMS:
        log = run(cfg, force_kernel=form)
        for r in range(log.rows):
            np.testing.assert_array_equal(log.poses[r], w0.poses, err_msg=(form, r))
            np.testing.assert_array_equal(log.v_f_hat[r], w0.v_f_hat, err_msg=(form, r))
        assert log.edge_errors.max() == 0.0
        m = metrics(log)
        assert m["final_max_edge_error"] == 0.0
        assert m["final_shape_distance"] == pytest.approx(0.0, abs=1e-12)


def test_step_world_rejects_bad_dt():
    # The oracle steps by config.dt, and RunConfig rejects a bad one.
    cfg = right_triangle_config()
    assert measurement_step(initial_state(cfg), cfg).time == cfg.dt
    for dt in (-1e-3, 0.0, float("nan")):
        with pytest.raises(ValueError, match="dt must be positive"):
            dataclasses.replace(cfg, dt=dt)


def test_step_world_divergence_reports_agent():
    # A run that diverges within its first ten steps names an agent and a
    # time after the start, in either form.
    cfg = right_triangle_config(k_a=1e12, duration=0.01,
                                initial_poses=[[0.0, 0.0, 0.0],
                                               [3.5, 0.0, 0.0],
                                               [0.0, 4.0, 0.0]])
    for form in FORMS:
        with pytest.raises(SimulationDiverged) as err:
            run(cfg, force_kernel=form)
        assert 1 <= err.value.agent <= 3
        assert err.value.time_s > 0.0


# Only edge (2, 3) is off in OFF_23, so agent 1 is still sane when 2 and
# 3 blow up.
STRETCHED = [[0.0, 0.0, 0.0], [3.5, 0.0, 0.0], [0.0, 4.0, 0.0]]
OFF_23 = [3.0, 4.0, 5.5]
DIVERGENCE_CASES = [  # (overrides, agent, time_s)
    (dict(k_a=1e12, initial_poses=STRETCHED), 1, 0.001),
    (dict(k_a=1e7, initial_poses=STRETCHED), 1, 0.002),
    (dict(mode="intercept", k_a=1e12, initial_poses=STRETCHED), 1, 0.001),
    (dict(k_a=1e12, distances=OFF_23), 2, 0.001),
    (dict(mode="intercept", k_a=1e12, distances=OFF_23), 2, 0.001),
    # An infinite observer gain breaks the estimates a step before any
    # pose; a huge finite one is not yet a divergence on its own.
    # RunConfig rejects an infinite gain, and law() reads the gains at
    # call time, so this case sets them after construction.
    (dict(mode="intercept", initial_poses=STRETCHED,
          set_after=dict(alpha1=np.inf, alpha2=np.inf)), 1, 0.001),
    (dict(mode="intercept", alpha1=1e300, alpha2=1e300,
          initial_poses=STRETCHED), 1, 0.003),
]


def assert_divergences_match(monkeypatch, sample_every=10):
    """Every runtime of ``run`` names the expected agent and time.

    The runtimes are the unforced default (rollout_jit where numba is
    installed, the generated function where it is not), the numpy law,
    and the loop form uncompiled on arrays (the numba source) and as its
    generated function on Python floats.
    """
    for overrides, agent, time_s in DIVERGENCE_CASES:
        overrides = dict(overrides)
        set_after = overrides.pop("set_after", {})
        cfg = right_triangle_config(duration=0.01, sample_every=sample_every,
                                    **overrides)
        for name, value in set_after.items():
            setattr(cfg, name, value)
        with np.errstate(over="ignore", invalid="ignore"):
            found = []
            with pytest.raises(SimulationDiverged) as by_run:
                run(cfg)
            found.append((by_run.value.agent, by_run.value.time_s))
            for impl in (None, engine.kernels._rollout_loops, unrolled.rollout):
                with monkeypatch.context() as m:
                    if impl is not None:
                        m.setattr(engine.kernels, "_rollout_numpy", impl)
                    with pytest.raises(SimulationDiverged) as by_run:
                        run(cfg, force_kernel="numpy")
                found.append((by_run.value.agent, by_run.value.time_s))
        assert all(f == found[0] for f in found), (overrides, found)
        assert found[0][0] == agent, overrides
        assert found[0][1] == pytest.approx(time_s)


def test_run_divergence_matches_step_world(monkeypatch):
    # The rollout checks one reduction per step and scans per agent only
    # when it fails; it must name the agent and time the loop form names.
    assert_divergences_match(monkeypatch)


def test_chunked_run_divergence_matches_step_world(monkeypatch):
    # One row per step and per chunk: the divergences at steps 1 to 3
    # happen in the first, second and third chunk, whose kernels count
    # steps from their own start.
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 1)
    assert_divergences_match(monkeypatch, sample_every=1)


# --- chunked rollouts ---------------------------------------------------------

def log_arrays(log):
    """Every array a log holds, by field name."""
    return {f.name: getattr(log, f.name) for f in dataclasses.fields(log)
            if isinstance(getattr(log, f.name), np.ndarray)}


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("form", ["lists", "loops", "law"])
@pytest.mark.parametrize("mode", ["flock", "intercept"])
def test_chunked_run_equals_one_chunk(monkeypatch, mode, form, sample_every):
    # 42 steps: with sample_every 3, 15 rows, which chunks of 2 rows do
    # not divide.
    cfg = dataclasses.replace(
        load_scenario(bundled_scenario_path(f"pentagon_{mode}")).to_run_config(),
        duration=0.042 if mode == "flock" else 0.0105, sample_every=sample_every)
    assert round(cfg.duration / cfg.dt) == 42
    impl = {"lists": unrolled.rollout,
            "loops": engine.kernels._rollout_loops}.get(form)
    if impl is not None:
        monkeypatch.setattr(engine.kernels, "_rollout_numpy", impl)
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 10**9)
    whole = run(cfg, force_kernel="numpy")
    expected = log_arrays(whole)
    assert len(expected) == {"flock": 10, "intercept": 15}[mode]  # all of them
    for rows in (1, 2, 3):
        monkeypatch.setattr(engine, "_CHUNK_ROWS", rows)
        reports = []

        def on_rows(log, ready):
            # Rows [0, ready) of every array, the derived series included,
            # are final: copy them now, compare at the end.
            reports.append((ready, {k: v[:ready].copy()
                                    for k, v in log_arrays(log).items()}))

        chunked = run(cfg, force_kernel="numpy", on_rows=on_rows)
        got = log_arrays(chunked)
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            np.testing.assert_array_equal(got[name], value, err_msg=(rows, name))
        readies = [ready for ready, _ in reports]
        assert readies == [*range(rows, whole.rows - 1, rows), whole.rows]
        for ready, early in reports:
            assert early.keys() == expected.keys()
            for name, value in early.items():
                np.testing.assert_array_equal(value, expected[name][:ready],
                                              err_msg=(rows, ready, name))


@pytest.mark.parametrize("mode", ["flock", "intercept"])
def test_run_samples_one_chunk_of_references_at_a_time(monkeypatch, mode):
    # A run holds one chunk's references, never the whole run's.
    base = load_scenario(bundled_scenario_path(f"pentagon_{mode}")).to_run_config()
    cfg = dataclasses.replace(base, duration=base.dt * 120, sample_every=2)
    path = type(cfg.signal)
    lengths = []
    monkeypatch.setattr(path, "sample", lambda self, times, fn=path.sample:
                        lengths.append(np.size(times)) or fn(self, times))
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 8)
    run(cfg)
    assert max(lengths) <= 8 * cfg.sample_every + 1
    assert len(lengths) == 8  # 61 rows in chunks of 8


@pytest.mark.parametrize("mode", ["flock", "intercept"])
def test_chunked_references_equal_one_sampling_of_the_run(monkeypatch, mode):
    base = load_scenario(bundled_scenario_path(f"pentagon_{mode}")).to_run_config()
    cfg = dataclasses.replace(base, duration=base.dt * 3000, sample_every=3)
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 128)  # 1,001 rows: 8 chunks
    log = run(cfg)
    times = np.arange(3001) * cfg.dt
    pos, vel, _ = cfg.signal.sample(times)
    np.testing.assert_array_equal(log.t, times[::3])
    if mode == "flock":
        np.testing.assert_array_equal(log.v0, vel[::3])
    else:
        np.testing.assert_array_equal(log.target_pos, pos[::3])
        np.testing.assert_array_equal(log.target_vel, vel[::3])


# --- rollouts and logs -------------------------------------------------------

def test_step_count_within_rounding():
    # 0.3 / 1e-4 is 2999.9999999999995: a whole number within rounding.
    assert 0.3 / 1e-4 != 3000
    assert engine.step_count(0.3, 1e-4, 10) == 3000
    assert run(right_triangle_config(dt=1e-4, duration=0.3)).rows == 301
    assert engine.step_count(0.0, 1e-3, 10) == 0
    with pytest.raises(ValueError, match="whole number"):
        engine.step_count(0.3 + 1e-9, 1e-4, 1)


def test_log_too_large_to_map_is_a_memory_error():
    # 1e17 steps index, but the log's bytes exceed what mmap can count.
    with pytest.raises(MemoryError, match="cannot map a log"):
        run(right_triangle_config(duration=1e14, sample_every=1))


def test_row_counts():
    cfg = flock_config()
    log = run(cfg)
    # duration 0.2 s, dt 1e-3, sample_every 10 -> 200 steps, 21 rows.
    assert log.rows == 21
    assert log.t[0] == 0.0
    assert log.t[-1] == pytest.approx(0.2)
    scn = load_scenario(bundled_scenario_path("pentagon_flock"), duration=1.0)
    assert run(scn.to_run_config()).rows == 101


def test_zero_duration_run_keeps_initial_row():
    cfg = right_triangle_config(duration=0.0)
    log = run(cfg)
    assert log.rows == 1
    np.testing.assert_array_equal(log.poses[0], cfg.initial_poses)
    m = metrics(log)
    assert m["rows"] == 1


def test_log_meta_fields():
    log = run(flock_config())
    for key in ("mode", "dt_s", "duration_s", "sample_every", "n_steps",
                "kernel", "runtime_s"):
        assert key in log.meta
    assert log.meta["mode"] == "flock"
    assert log.meta["n_steps"] == 200


def law_step(world, cfg):
    """``world`` advanced one step: one evaluation of the law, integrated
    by the oracle's explicit-Euler step."""
    fields = engine._ESTIMATES[cfg.mode]
    est = np.concatenate([getattr(world, f) for f in fields], axis=1)
    rate, _u, _te, v, omega, _udot = engine.kernels._eval(
        cfg.law(), world.poses, est, cfg.references(world.time)[0])
    return euler_step(world, cfg.dt, v, omega,
                      **{f: rate[:, k] for k, f in enumerate(fields)})


def test_run_matches_repeated_step_world_flock():
    # run's numpy rollout reproduces the law stepped one step at a time.
    cfg = flock_config()
    log = run(cfg, force_kernel="numpy")
    w = initial_state(cfg)
    for _ in range(cfg.sample_every * 3):
        w = law_step(w, cfg)
    np.testing.assert_allclose(w.poses, log.poses[3], atol=1e-12)
    np.testing.assert_allclose(w.v_f_hat, log.v_f_hat[3], atol=1e-12)


def test_run_matches_repeated_step_world_intercept():
    cfg = intercept_config()
    log = run(cfg, force_kernel="numpy")
    w = initial_state(cfg)
    for _ in range(cfg.sample_every * 2):
        w = law_step(w, cfg)
    np.testing.assert_allclose(w.poses, log.poses[2], atol=1e-12)
    np.testing.assert_allclose(w.v_t_hat, log.v_t_hat[2], atol=1e-12)
    np.testing.assert_allclose(w.e_t_hat, log.e_t_hat[2], atol=1e-12)


def kabsch_distance(p, q):
    """RMS residual of q rotated onto p about the centroids: the SVD of
    the 2x2 cross-covariance, with the det sign fix against reflections."""
    pc, qc = p - p.mean(axis=0), q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(qc.T @ pc)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, d]) @ u.T
    return float(np.sqrt(np.mean(np.sum((pc - qc @ rot.T) ** 2, axis=1))))


def test_shape_distance_series_matches_pointwise():
    cfg = flock_config()
    log = run(cfg)
    for r in (0, log.rows // 2, log.rows - 1):
        expect = kabsch_distance(log.poses[r, :, :2], cfg.target_positions)
        assert log.shape_dist[r] == pytest.approx(expect, abs=1e-12)


def test_heading_error_series_is_wrapped_difference():
    log = run(flock_config())
    assert np.all(np.abs(log.heading_errors) <= np.pi)


# --- metrics -----------------------------------------------------------------

def test_metrics_flock_keys_and_settle_tag():
    log = run(flock_config())
    m = metrics(log, settle_time_s=0.1)
    for key in ("max_edge_error_after_0.1s", "max_heading_error_after_0.1s",
                "max_estimation_error_after_0.1s",
                "max_velocity_tracking_error_after_0.1s",
                "max_shape_distance_after_0.1s", "final_max_edge_error"):
        assert key in m, key
    # Default settle time is half the run.
    m2 = metrics(log)
    assert m2["settle_time_s"] == pytest.approx(0.1)
    # A settle time past the last row: the tail keys read the last row.
    late = metrics(log, settle_time_s=10.0)
    assert late["max_edge_error_after_10s"] == late["final_max_edge_error"]
    assert late["max_heading_error_after_10s"] == late["final_max_heading_error"]
    assert late["max_estimation_error_after_10s"] == late["final_max_estimation_error"]
    assert late["max_shape_distance_after_10s"] == late["final_shape_distance"]


def test_metrics_intercept_keys():
    log = run(intercept_config())
    m = metrics(log, settle_time_s=0.1)
    for key in ("final_e_t_norm", "max_e_t_norm_after_0.1s",
                "max_vt_estimation_error_after_0.1s",
                "max_et_estimation_error_after_0.1s",
                "hull_contains_final", "hull_contains_always_after_0.1s"):
        assert key in m, key


def test_velocity_tracking_errors_shape_and_mode():
    log = run(flock_config())
    err = velocity_tracking_errors(log)
    assert err.shape == (log.rows - 2,)
    with pytest.raises(ValueError):
        velocity_tracking_errors(run(intercept_config()))


def test_hull_containment_mode_check():
    with pytest.raises(ValueError):
        engine.hull_containment(run(flock_config()))


# --- measurement-mediated path ----------------------------------------------

def test_measure_body_frame_rotation():
    g = Graph(2, [(1, 2)])
    cfg = RunConfig(mode="flock", graph=g, distances=[1.0],
                    initial_poses=[[0.0, 0.0, np.pi / 2], [1.0, 0.0, 0.0]],
                    signal=LinePath([0.0, 0.0], [0.0, 0.0]), dt=1e-3,
                    duration=0.0, c=10.0, alpha=1.0, access_flags=[0, 0])
    w = initial_state(cfg)
    m = measure(w, 1, cfg)
    assert m.neighbors == (2,)
    # World-frame p_1 - p_2 = (-1, 0); in agent 1's frame it is (0, 1).
    np.testing.assert_allclose(m.rel_positions, [[0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(m.rel_headings, [np.pi / 2])
    np.testing.assert_allclose(m.target_distances, [1.0])
    assert not m.has_reference


def test_measure_target_distances_follow_the_edges():
    # Each neighbour's desired distance is the one of their edge, in
    # either order of the pair.
    cfg = right_triangle_config()
    w = initial_state(cfg)
    for agent, nbrs, dists in ((1, (2, 3), [3.0, 4.0]), (2, (1, 3), [3.0, 5.0]),
                               (3, (1, 2), [4.0, 5.0])):
        m = measure(w, agent, cfg)
        assert m.neighbors == nbrs
        np.testing.assert_array_equal(m.target_distances, dists)


def test_measure_locality():
    # Perturbing a non-neighbor must not change an agent's measurement.
    cfg = flock_config()
    w = initial_state(cfg)
    m_before = measure(w, 2, cfg)  # neighbors of 2 are 1 and 3
    w2 = w.copy()
    w2.poses[4 - 1] += [5.0, -3.0, 1.0]
    w2.v_f_hat[4 - 1] += [1.0, 1.0]
    m_after = measure(w2, 2, cfg)
    assert m_before.neighbors == m_after.neighbors == (1, 3)
    np.testing.assert_array_equal(m_before.rel_positions, m_after.rel_positions)
    np.testing.assert_array_equal(m_before.rel_headings, m_after.rel_headings)
    np.testing.assert_array_equal(m_before.neighbor_v_f_hat,
                                  m_after.neighbor_v_f_hat)


def test_measure_reference_access():
    cfg = flock_config()
    w = initial_state(cfg)
    assert measure(w, 1, cfg).has_reference  # agent 1 holds the signal
    assert not measure(w, 2, cfg).has_reference
    icfg = intercept_config()
    wi = initial_state(icfg)
    leader = measure(wi, icfg.leader, icfg)
    assert leader.has_reference
    assert leader.e_t is not None and leader.v_t is not None
    follower = measure(wi, 1, icfg)
    assert not follower.has_reference
    assert follower.e_t is None
    with pytest.raises(ValueError):
        measure(wi, 0, icfg)


def assert_measurement_commands_match(cfg, rows):
    """The oracle's commands on the states of a run's first ``rows``
    logged rows are the commands that run logged, in every form."""
    for form in FORMS:
        log = run(cfg, force_kernel=form)
        for r in range(rows):
            cmds, _ = measurement_commands(world_at(log, r), cfg)
            np.testing.assert_allclose(cmds, log.commands[r], atol=1e-9,
                                       err_msg=(form, r))


def test_measurement_commands_match_kernel_flock():
    assert_measurement_commands_match(flock_config(), 4)


def test_measurement_commands_match_kernel_intercept():
    assert_measurement_commands_match(intercept_config(), 3)


def test_measurement_step_tracks_step_world():
    # The oracle, stepped on its own, follows a run logged every step.
    for cfg in (flock_config(), intercept_config()):
        cfg = dataclasses.replace(cfg, sample_every=1)
        logs = [run(cfg, force_kernel=form) for form in FORMS]
        w = initial_state(cfg)
        for r in range(1, 21):
            w = measurement_step(w, cfg)
            for log in logs:
                np.testing.assert_allclose(w.poses, log.poses[r], atol=1e-10)


def test_measurement_dataclass_is_plain_data():
    m = Measurement(agent=1, neighbors=(), heading=0.0,
                    rel_positions=np.zeros((0, 2)), rel_headings=np.zeros(0),
                    target_distances=np.zeros(0))
    assert m.agent == 1 and m.v0 is None


# --- single-agent behavior ---------------------------------------------------

def test_single_agent_tracks_constant_velocity():
    g = Graph(1, [])
    v0 = np.array([0.3, 0.4])
    cfg = RunConfig(mode="flock", graph=g, distances=np.zeros(0),
                    initial_poses=[[0.0, 0.0, 2.0]],
                    signal=LinePath([0.0, 0.0], v0), dt=1e-3, duration=8.0,
                    sample_every=10, k_a=1.0, c=10.0, alpha=1.0,
                    access_flags=[1])
    log = run(cfg)
    err = velocity_tracking_errors(log)
    assert err[-1] < 5e-3
    # Heading settles on the direction of v0.
    assert abs(log.heading_errors[-1, 0]) < 1e-3


def test_intercept_leader_reaches_circular_target():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    pos = np.array([[0.0, 0.5], [-0.4, -0.3], [0.4, -0.3]])
    # Leader is agent 3; start everyone at the target formation.
    sig = CirclePath([-0.3, -0.3], 0.3, 0.2, 0.0)
    vth = np.zeros((3, 2))
    vth[2] = sig.state(0.0)[1]
    cfg = RunConfig(mode="intercept", graph=g,
                    distances=np.sqrt(edge_function(Framework(g, pos))),
                    initial_poses=np.column_stack([pos, np.zeros(3)]),
                    signal=sig, dt=1e-3, duration=30.0, sample_every=100,
                    k_a=6.0, k_t=1.0, c=10.0, alpha1=0.05, alpha2=0.3,
                    initial_v_t_hat=vth, target_positions=pos)
    log = run(cfg)
    assert log.e_t_norm[-1] < 1e-2
