"""Tests for unicycle kinematics, angle wrapping, and the input map."""

import numpy as np
import pytest

from rigidflock.unicycle import (
    b_matrix,
    rot_matrix,
    wrap_angle,
)


def test_wrap_angle_scalars():
    assert wrap_angle(3.0 * np.pi / 2.0) == pytest.approx(-np.pi / 2.0)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(np.pi) == pytest.approx(np.pi)


def test_wrap_angle_array_and_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.uniform(-50.0, 50.0, size=17)
        w = wrap_angle(raw)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        # Same angle modulo 2 pi.
        assert np.abs(np.sin(w) - np.sin(raw)).max() < 1e-12
        assert np.abs(np.cos(w) - np.cos(raw)).max() < 1e-12


def test_rot_matrix_is_rotation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(-10, 10)
        Q = rot_matrix(a)
        np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-14)
        assert np.linalg.det(Q) == pytest.approx(1.0)
    np.testing.assert_allclose(rot_matrix(np.pi / 2) @ [1.0, 0.0], [0.0, 1.0],
                               atol=1e-15)


def test_b_matrix_special_values():
    np.testing.assert_allclose(b_matrix(0.0), np.eye(2))
    np.testing.assert_allclose(b_matrix(np.pi / 2), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(b_matrix(np.pi / 4),
                               [[0.5, -0.5], [0.5, 0.5]], atol=1e-15)


def test_b_matrix_identity_on_grid():
    grid = np.linspace(-np.pi, np.pi, 1000)
    worst = 0.0
    for e in grid:
        diff = b_matrix(e) - np.cos(e) * rot_matrix(e)
        worst = max(worst, float(np.abs(diff).max()))
    assert worst < 1e-14
