"""Tests for the per-agent flocking control laws."""

import numpy as np
import pytest

from rigidflock.kernels import EPS_U
from rigidflock.oracle import (
    control_u,
    desired_heading,
    desired_heading_rate,
    u_dot,
)


def test_control_u_reduces_to_velocity_at_formation():
    v0 = np.array([0.3, -0.1])
    rel = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = control_u(rel, np.zeros(2), v0, 6.0)
    np.testing.assert_allclose(u, v0)


def test_control_u_single_neighbor_hand_case():
    u = control_u(np.array([[1.0, 0.0]]), np.array([3.0]), np.zeros(2), 1.0)
    np.testing.assert_allclose(u, [-3.0, 0.0])


def test_control_u_symmetric_neighbors_cancel():
    rel = np.array([[1.0, 0.0], [-1.0, 0.0]])
    z = np.array([0.7, 0.7])
    u = control_u(rel, z, np.zeros(2), 2.0)
    np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)


def test_control_u_no_neighbors():
    v = np.array([0.1, 0.2])
    np.testing.assert_allclose(control_u(np.zeros((0, 2)), np.zeros(0), v, 5.0), v)


def test_control_u_shape_mismatch():
    with pytest.raises(ValueError):
        control_u(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 1.0)


def test_desired_heading_values():
    assert desired_heading(np.array([1.0, 0.0])) == 0.0
    assert desired_heading(np.array([0.0, -1.0])) == pytest.approx(-np.pi / 2)
    assert desired_heading(np.array([0.0, 0.0])) == 0.0
    assert desired_heading(np.array([EPS_U / 2, 0.0])) == 0.0


def test_u_dot_zero_cases():
    # No relative velocity and zero feedforward: no change in u.
    rel = np.array([[1.0, 0.0]])
    z = np.array([0.0])
    out = u_dot(rel, z, np.zeros(2), np.zeros((1, 2)), np.zeros(2), 1.0)
    np.testing.assert_allclose(out, [0.0, 0.0])
    # Common translation (equal achieved velocities) also cancels.
    bu = np.array([0.4, 0.2])
    out = u_dot(rel, z, bu, bu[None, :], np.zeros(2), 3.0)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)


def test_u_dot_single_edge_hand_case():
    # Agents at (0,0) and (1,0) at the desired distance 1 (z = 0); the
    # first moves with (1,0), the second is still:
    # udot = -(z I + 2 p p^T)(bu_1 - bu_2) = -2 e1 e1^T (1,0) = (-2,0).
    rel = np.array([[-1.0, 0.0]])  # p_1 - p_2
    out = u_dot(rel, np.array([0.0]), np.array([1.0, 0.0]),
                np.zeros((1, 2)), np.zeros(2), 1.0)
    np.testing.assert_allclose(out, [-2.0, 0.0])


def test_u_dot_includes_feedforward():
    ff = np.array([0.5, -0.5])
    out = u_dot(np.zeros((0, 2)), np.zeros(0), np.zeros(2),
                np.zeros((0, 2)), ff, 1.0)
    np.testing.assert_allclose(out, ff)


def test_u_dot_matches_finite_difference_of_control():
    # Move two agents along fixed planar velocities and compare the
    # analytic udot with a finite difference of control_u.
    rng = np.random.default_rng(17)
    k_a = 2.5
    for _ in range(10):
        p = rng.normal(size=(2, 2))
        vel = rng.normal(size=(2, 2))  # achieved pdot for each agent
        d = rng.uniform(0.5, 2.0)
        eps = 1e-7

        def u_of(p1, p2):
            rel = (p1 - p2)[None, :]
            z = np.array([rel[0] @ rel[0] - d * d])
            return control_u(rel, z, np.zeros(2), k_a)

        analytic = u_dot((p[0] - p[1])[None, :],
                         np.array([(p[0] - p[1]) @ (p[0] - p[1]) - d * d]),
                         vel[0], vel[1][None, :], np.zeros(2), k_a)
        numeric = (u_of(p[0] + eps * vel[0], p[1] + eps * vel[1])
                   - u_of(p[0] - eps * vel[0], p[1] - eps * vel[1])) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_desired_heading_rate_values():
    u = np.array([1.0, 0.0])
    assert desired_heading_rate(u, 2.0 * u) == 0.0
    assert desired_heading_rate(u, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert desired_heading_rate(np.zeros(2), np.array([1.0, 1.0])) == 0.0


def test_desired_heading_rate_matches_finite_difference():
    rng = np.random.default_rng(19)
    for _ in range(10):
        u = rng.normal(size=2)
        udot = rng.normal(size=2)
        eps = 1e-7
        a_plus = np.arctan2(*(u + eps * udot)[::-1])
        a_minus = np.arctan2(*(u - eps * udot)[::-1])
        numeric = (a_plus - a_minus) / (2 * eps)
        assert desired_heading_rate(u, udot) == pytest.approx(numeric, abs=1e-6)
