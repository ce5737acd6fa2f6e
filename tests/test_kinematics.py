import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimbalsim.kinematics import (
    BODY_AT_REST,
    BodyRates,
    FrameRates,
    los_rates,
    pitch_rates,
    rot_body_to_yaw,
    rot_yaw_to_pitch,
    yaw_rates,
)
from gimbalsim.plant import GimbalState

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
rates = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def matmul3(a, b):
    # explicit triple loop: oracle independent of the library's own algebra
    out = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            out[i][j] = sum(a[i][k] * b[k][j] for k in range(3))
    return out


def cofactor_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class TestRotations:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rot_body_to_yaw(0.0), np.eye(3))
        np.testing.assert_array_equal(rot_yaw_to_pitch(0.0), np.eye(3))

    def test_quarter_turn_body_to_yaw(self):
        R = rot_body_to_yaw(math.pi / 2)
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(R, expected, atol=1e-15)

    def test_quarter_turn_yaw_to_pitch(self):
        R = rot_yaw_to_pitch(math.pi / 2)
        expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(R, expected, atol=1e-15)

    def test_orthonormality_at_0_37(self):
        R = rot_body_to_yaw(0.37)
        rtr = matmul3(R.T.tolist(), R.tolist())
        for i in range(3):
            for j in range(3):
                assert rtr[i][j] == pytest.approx(float(i == j), abs=1e-14)

    @given(angles)
    @settings(max_examples=200)
    def test_determinant_is_plus_one(self, ang):
        assert cofactor_det3(rot_yaw_to_pitch(ang).tolist()) == pytest.approx(1.0, abs=1e-14)
        assert cofactor_det3(rot_body_to_yaw(ang).tolist()) == pytest.approx(1.0, abs=1e-14)

    @given(angles)
    @settings(max_examples=200)
    def test_orthonormality_everywhere(self, ang):
        for R in (rot_body_to_yaw(ang), rot_yaw_to_pitch(ang)):
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-13)


class TestFrameRates:
    def test_coincident_frames_pass_through(self):
        body = BodyRates(0.3, -0.4, 0.5)
        out = yaw_rates(GimbalState(0.0, 0.0, 0.0, 0.0), body)
        assert out == FrameRates(0.3, -0.4, 0.5)

    def test_pure_gimbal_rotation(self):
        out = yaw_rates(GimbalState(0.0, 0.0, 1.2, 0.5), BODY_AT_REST)
        assert out.about_x == 0.0
        assert out.about_y == 0.0
        assert out.about_z == 0.5

    @given(rates, rates, rates, angles, rates)
    @settings(max_examples=200)
    def test_yaw_rates_match_rotation_product(self, p, q, r, nu1, nu1_dot):
        body = BodyRates(p, q, r)
        out = yaw_rates(GimbalState(0.0, 0.0, nu1, nu1_dot), body)
        rotated = rot_body_to_yaw(nu1) @ np.array([p, q, r])
        expected = rotated + np.array([0.0, 0.0, nu1_dot])
        np.testing.assert_allclose([out.about_x, out.about_y, out.about_z], expected, atol=1e-13)

    def test_pitch_identity_frame(self):
        yaw = FrameRates(0.1, 0.2, 0.3)
        assert pitch_rates(GimbalState(0.0, 0.0, 0.0, 0.0), yaw) == yaw

    def test_pitch_joint_rate_adds_on_y(self):
        yaw = FrameRates(0.0, 0.7, 0.0)
        out = pitch_rates(GimbalState(0.9, 0.2, 0.0, 0.0), yaw)
        assert out.about_y == pytest.approx(0.9)

    @given(rates, rates, rates, angles, rates)
    @settings(max_examples=200)
    def test_pitch_rates_match_rotation_product(self, pk, qk, rk, nu2, nu2_dot):
        yaw = FrameRates(pk, qk, rk)
        out = pitch_rates(GimbalState(nu2, nu2_dot, 0.0, 0.0), yaw)
        rotated = rot_yaw_to_pitch(nu2) @ np.array([pk, qk, rk])
        expected = rotated + np.array([0.0, nu2_dot, 0.0])
        np.testing.assert_allclose([out.about_x, out.about_y, out.about_z], expected, atol=1e-13)


class TestLosRates:
    def test_all_zero(self):
        assert los_rates(GimbalState(0.0, 0.0, 0.0, 0.0), BODY_AT_REST) == (0.0, 0.0)

    def test_identity_frames_pass_q_and_r(self):
        q_a, r_a = los_rates(GimbalState(0.0, 0.0, 0.0, 0.0), BodyRates(0.1, 0.2, 0.3))
        assert q_a == pytest.approx(0.2)
        assert r_a == pytest.approx(0.3)

    @given(angles, rates, angles, rates, rates, rates, rates)
    @settings(max_examples=300)
    def test_chain_consistency(self, x1, x2, x3, x4, p, q, r):
        # composing the two frame transforms must reproduce the closed form
        state = GimbalState(x1, x2, x3, x4)
        body = BodyRates(p, q, r)
        chained = pitch_rates(state, yaw_rates(state, body))
        q_a, r_a = los_rates(state, body)
        assert q_a == pytest.approx(chained.about_y, abs=1e-13)
        assert r_a == pytest.approx(chained.about_z, abs=1e-13)

    @given(angles, rates, angles, rates)
    @settings(max_examples=200)
    def test_zero_platform_invariance(self, x1, x2, x3, x4):
        q_a, r_a = los_rates(GimbalState(x1, x2, x3, x4), BODY_AT_REST)
        assert q_a == x2
        assert r_a == x4 * math.cos(x1)
