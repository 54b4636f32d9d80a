"""Unicycle kinematics: angle wrapping, rotations, and the input map.

The configuration is q = (x, y, theta) with heading theta kept in
(-pi, pi].  Commands are a forward speed v along the heading and a
turn rate omega; integration is explicit Euler.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to the half-open interval (-pi, pi]."""
    w = np.mod(theta, TWO_PI)
    if np.ndim(w) == 0:
        return float(w - TWO_PI) if w > np.pi else float(w)
    return np.where(w > np.pi, w - TWO_PI, w)


def rot_matrix(angle: float) -> np.ndarray:
    """2x2 counterclockwise rotation matrix."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def b_matrix(theta_err: float) -> np.ndarray:
    """Input map B = cos(e) Rot(e) relating commanded u to achieved pdot.

    With heading error e = theta - theta_d, a unicycle tracking the
    direction of u moves with pdot = B(e) u; B(0) = I and B(pi/2) = 0.
    """
    c, s = np.cos(theta_err), np.sin(theta_err)
    return np.array([[c * c, -c * s], [c * s, c * c]])
