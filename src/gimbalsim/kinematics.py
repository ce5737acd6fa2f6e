"""Frame kinematics of a two-axis (yaw outer, pitch inner) gimbal.

Three right-handed frames are involved: the platform body frame B, the
yaw-gimbal frame K obtained by rotating B through ``nu1`` about the body
z-axis, and the pitch-gimbal frame A obtained by rotating K through
``nu2`` about the yaw-frame y-axis. The sensor line of sight (LOS) is
the x-axis of frame A; the inertial LOS elevation and azimuth rates are
the y and z components of frame A's inertial angular velocity.

The frame-rate functions take the gimbal state, ``plant.GimbalState``
or anything with its fields: ``nu1 = x3`` (rate ``x4``), ``nu2 = x1``
(rate ``x2``).

Angles are radians and rates rad/s throughout. Every function here is a
pure function of its arguments and is safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "BodyRates",
    "FrameRates",
    "BODY_AT_REST",
    "rot_body_to_yaw",
    "rot_yaw_to_pitch",
    "yaw_rates",
    "pitch_rates",
    "los_rates",
]


class BodyRates(NamedTuple):
    """Inertial angular velocity of the platform body and its time derivative.

    ``p, q, r`` are the components about the body x, y, z axes [rad/s];
    ``p_dot, q_dot, r_dot`` are their time derivatives [rad/s^2]. In a
    closed loop these come from a rate gyro (or a motion profile) and are
    treated as known functions of time.
    """

    p: float
    q: float
    r: float
    p_dot: float = 0.0
    q_dot: float = 0.0
    r_dot: float = 0.0


class FrameRates(NamedTuple):
    """Inertial angular velocity of a gimbal frame, in that frame's axes."""

    about_x: float
    about_y: float
    about_z: float


BODY_AT_REST = BodyRates(0.0, 0.0, 0.0)


def rot_body_to_yaw(nu1: float) -> np.ndarray:
    """Rotation matrix taking body-frame vectors into the yaw-gimbal frame.

    A plane rotation through ``nu1`` about the shared z-axis. The result
    is orthonormal with determinant +1 for any finite angle.
    """
    c, s = math.cos(nu1), math.sin(nu1)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_yaw_to_pitch(nu2: float) -> np.ndarray:
    """Rotation matrix taking yaw-frame vectors into the pitch-gimbal frame.

    A plane rotation through ``nu2`` about the shared y-axis.
    """
    c, s = math.cos(nu2), math.sin(nu2)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def yaw_rates(state, body: BodyRates) -> FrameRates:
    """Inertial angular velocity of the yaw gimbal frame.

    The body rates are rotated through ``nu1 = state.x3`` into the yaw
    frame and the joint rate ``nu1_dot = state.x4`` adds along the z-axis:

        p_k = p cos(nu1) + q sin(nu1)
        q_k = -p sin(nu1) + q cos(nu1)
        r_k = r + nu1_dot
    """
    c, s = math.cos(state.x3), math.sin(state.x3)
    return FrameRates(
        body.p * c + body.q * s,
        -body.p * s + body.q * c,
        body.r + state.x4,
    )


def pitch_rates(state, yaw: FrameRates) -> FrameRates:
    """Inertial angular velocity of the pitch gimbal frame.

    The yaw-frame rates are rotated through ``nu2 = state.x1`` about y
    and the joint rate ``nu2_dot = state.x2`` adds along the y-axis:

        p_a = p_k cos(nu2) - r_k sin(nu2)
        q_a = q_k + nu2_dot
        r_a = p_k sin(nu2) + r_k cos(nu2)
    """
    c, s = math.cos(state.x1), math.sin(state.x1)
    return FrameRates(
        yaw.about_x * c - yaw.about_z * s,
        yaw.about_y + state.x2,
        yaw.about_x * s + yaw.about_z * c,
    )


def los_rates(state, body: BodyRates) -> tuple[float, float]:
    """LOS elevation and azimuth inertial rates ``(q_a, r_a)``, the closed
    form of ``pitch_rates(state, yaw_rates(state, body))``:

        q_a = -p sin(x3) + q cos(x3) + x2
        r_a = p cos(x3) sin(x1) + q sin(x3) sin(x1) + r cos(x1) + x4 cos(x1)
    """
    s3, c3 = math.sin(state.x3), math.cos(state.x3)
    s1, c1 = math.sin(state.x1), math.cos(state.x1)
    q_a = -body.p * s3 + body.q * c3 + state.x2
    r_a = body.p * c3 * s1 + body.q * s3 * s1 + body.r * c1 + state.x4 * c1
    return q_a, r_a
