"""Tests for analytic reference trajectories."""

import numpy as np
import pytest

from rigidflock.trajectories import (
    CirclePath,
    LinePath,
    SinePath,
    WaypointPath,
    is_json_numeric_array,
    make_trajectory,
)

ALL_MODELS = [
    CirclePath([0.5, -0.5], 0.3, 0.2, 0.1),
    LinePath([1.0, 2.0], [-0.1, 0.3]),
    SinePath([0.0, 0.0], [0.2, 0.0], 0.05, 1.5),
    WaypointPath([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]], [0.0, 1.0, 3.0]),
]


def fd_check(model, times, atol=1e-6):
    """Velocity and acceleration must be derivatives of the position."""
    eps = 1e-6
    for t in times:
        p_p, v_p, _ = model.state(t + eps)
        p_m, v_m, _ = model.state(t - eps)
        _, v, a = model.state(t)
        np.testing.assert_allclose((p_p - p_m) / (2 * eps), v, atol=atol)
        np.testing.assert_allclose((v_p - v_m) / (2 * eps), a, atol=atol)


def test_circle_closed_form():
    c = CirclePath([1.0, 2.0], 0.5, 2.0, np.pi / 2)
    p, v, a = c.state(0.0)
    np.testing.assert_allclose(p, [1.0, 2.5], atol=1e-15)
    np.testing.assert_allclose(v, [-1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(a, [0.0, -2.0], atol=1e-15)


def test_circle_derivative_consistency():
    fd_check(CirclePath([0.0, 0.0], 0.3, 0.7), np.linspace(0.1, 9.0, 7))


def test_circle_sup_bounds():
    c = CirclePath([0.0, 0.0], 0.3, 0.2)
    assert c.sup_speed() == pytest.approx(0.06)
    assert c.sup_accel() == pytest.approx(0.012)
    t = np.linspace(0.0, 40.0, 400)
    _, v, a = c.sample(t)
    assert np.hypot(v[:, 0], v[:, 1]).max() <= c.sup_speed() + 1e-12
    assert np.hypot(a[:, 0], a[:, 1]).max() <= c.sup_accel() + 1e-12


def test_circle_validation():
    with pytest.raises(ValueError):
        CirclePath([0.0], 0.3, 0.2)
    with pytest.raises(ValueError):
        CirclePath([0.0, 0.0], -0.3, 0.2)


def test_line_path():
    m = LinePath([1.0, 1.0], [0.5, -0.5])
    p, v, a = m.state(2.0)
    np.testing.assert_allclose(p, [2.0, 0.0])
    np.testing.assert_allclose(v, [0.5, -0.5])
    np.testing.assert_allclose(a, [0.0, 0.0])
    assert m.sup_speed() == pytest.approx(np.hypot(0.5, 0.5))
    assert m.sup_accel() == 0.0


def test_sine_path_stays_near_drift_line():
    m = SinePath([0.0, 0.0], [1.0, 0.0], 0.2, 3.0)
    t = np.linspace(0.0, 10.0, 101)
    p, _, _ = m.sample(t)
    np.testing.assert_allclose(p[:, 0], t, atol=1e-12)  # drift along x
    assert np.abs(p[:, 1]).max() <= 0.2 + 1e-12
    fd_check(m, [0.3, 1.7, 4.4])
    assert m.sup_speed() == pytest.approx(np.sqrt(1.0 + 0.36))
    assert m.sup_accel() == pytest.approx(0.2 * 9.0)


def test_sine_path_needs_drift():
    with pytest.raises(ValueError):
        SinePath([0.0, 0.0], [0.0, 0.0], 0.1, 1.0)


def test_waypoints_interpolation_and_clamping():
    m = WaypointPath([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]], [0.0, 1.0, 3.0])
    p, v, _ = m.state(0.5)
    np.testing.assert_allclose(p, [0.5, 0.0])
    np.testing.assert_allclose(v, [1.0, 0.0])
    p, v, _ = m.state(2.0)
    np.testing.assert_allclose(p, [1.0, 1.0])
    np.testing.assert_allclose(v, [0.0, 1.0])
    # Clamped before the first and after the last knot.
    p, v, _ = m.state(-1.0)
    np.testing.assert_allclose(p, [0.0, 0.0])
    np.testing.assert_allclose(v, [0.0, 0.0])
    p, v, _ = m.state(10.0)
    np.testing.assert_allclose(p, [1.0, 2.0])
    np.testing.assert_allclose(v, [0.0, 0.0])
    assert m.sup_speed() == pytest.approx(1.0)


def test_waypoints_validation():
    with pytest.raises(ValueError):
        WaypointPath([[0.0, 0.0]], [0.0])
    with pytest.raises(ValueError):
        WaypointPath([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        WaypointPath([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0])


def test_sample_matches_state_rows():
    rng = np.random.default_rng(14)
    times = rng.uniform(0.0, 8.0, size=9)
    for m in ALL_MODELS:
        ps, vs, accs = m.sample(times)
        assert ps.shape == (9, 2)
        for k, t in enumerate(times):
            p, v, a = m.state(t)
            np.testing.assert_allclose(ps[k], p, atol=1e-14)
            np.testing.assert_allclose(vs[k], v, atol=1e-14)
            np.testing.assert_allclose(accs[k], a, atol=1e-14)


def test_make_trajectory_errors():
    with pytest.raises(ValueError, match="kind"):
        make_trajectory({})
    with pytest.raises(ValueError, match="unknown"):
        make_trajectory({"kind": "spiral"})
    with pytest.raises(ValueError, match="missing field"):
        make_trajectory({"kind": "line", "start_m": [0.0, 0.0]})


def test_numeric_array_check_has_no_depth_limit():
    # The check once recursed through a generator at every level, so
    # 500 levels exhausted Python's stack.
    deep_number, deep_string = 1.0, "x"
    for _ in range(100_000):
        deep_number, deep_string = [deep_number], [deep_string]
    assert is_json_numeric_array(deep_number)
    assert not is_json_numeric_array(deep_string)
    assert is_json_numeric_array([[1, 2.5], [], 3])
    assert not is_json_numeric_array([[1, 2], [True]])
