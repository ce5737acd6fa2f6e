import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimbalsim.kinematics import BODY_AT_REST, BodyRates
from gimbalsim.plant import (
    INERTIA_ENTRIES,
    GimbalState,
    InertiaModel,
    NoiseSpec,
    TorqueCommand,
    default_model,
    pitch_accel_drift,
    state_derivative,
    yaw_accel_drift,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
rates = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
torques = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)

states = st.builds(GimbalState, angles, rates, angles, rates, angles, angles)
bodies = st.builds(BodyRates, rates, rates, rates, rates, rates, rates)
moments = st.floats(min_value=1e-4, max_value=0.1)


@st.composite
def models(draw):
    """Symmetric designs: pitch diag(a, b, a), yaw diag(c, c + a, d)."""
    a, b, c, d = (draw(moments) for _ in range(4))
    return InertiaModel(pitch_gimbal=np.diag([a, b, a]), yaw_gimbal=np.diag([c, c + a, d]))


MODEL = default_model()
ZERO_U = TorqueCommand(0.0, 0.0)


class TestInertiaModel:
    def test_default_model_scalars(self):
        assert MODEL.j_ay == 0.008
        assert MODEL.j_k == pytest.approx(0.0033, rel=1e-15)

    @given(models())
    @settings(max_examples=50)
    def test_scalars_are_floats_of_the_matrix_entries(self, model):
        assert type(model.j_ay) is float and type(model.j_k) is float
        assert model.j_ay == float(model.pitch_gimbal[1, 1])
        assert model.j_k == float(model.yaw_gimbal[2, 2] + model.pitch_gimbal[2, 2])

    def test_scalars_are_set_at_construction_only(self):
        with pytest.raises(TypeError):
            InertiaModel(MODEL.pitch_gimbal, MODEL.yaw_gimbal, 1.0, 1.0)
        with pytest.raises(TypeError):
            InertiaModel(pitch_gimbal=MODEL.pitch_gimbal, yaw_gimbal=MODEL.yaw_gimbal, j_ay=1.0)
        for name in ("j_ay", "j_k"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(MODEL, name, 1.0)
        assert "j_ay" not in repr(MODEL) and "j_k" not in repr(MODEL)

    def test_replace_recomputes_scalars(self):
        heavier = dataclasses.replace(
            MODEL,
            pitch_gimbal=np.diag([0.003, 0.02, 0.003]),
            yaw_gimbal=np.diag([0.003, 0.006, 0.0007]),
        )
        assert heavier.j_ay == 0.02
        assert heavier.j_k == 0.0007 + 0.003
        assert (MODEL.j_ay, MODEL.j_k) == (0.008, 0.0003 + 0.003)

    def test_default_model_is_symmetric_design(self):
        # construction would raise otherwise; a rebuild from the same
        # matrices is accepted and equal
        rebuilt = InertiaModel(pitch_gimbal=MODEL.pitch_gimbal, yaw_gimbal=MODEL.yaw_gimbal)
        assert rebuilt == MODEL

    def test_product_of_inertia_violation(self):
        a = np.diag([0.003, 0.008, 0.003]).astype(float)
        a[0, 1] = a[1, 0] = 0.001
        with pytest.raises(ValueError, match="pitch product of inertia xy = 0.001 != 0"):
            InertiaModel(pitch_gimbal=a, yaw_gimbal=np.diag([0.003, 0.006, 0.0003]))

    def test_moment_balance_violation(self):
        # 0.003 + 0.003 != 0.005
        with pytest.raises(ValueError, match="yaw y moment must equal yaw x"):
            InertiaModel(
                pitch_gimbal=np.diag([0.003, 0.008, 0.003]),
                yaw_gimbal=np.diag([0.003, 0.005, 0.0003]),
            )

    def test_pitch_x_z_moment_violation(self):
        with pytest.raises(ValueError, match="pitch x and z moments differ"):
            InertiaModel(
                pitch_gimbal=np.diag([0.003, 0.008, 0.004]),
                yaw_gimbal=np.diag([0.003, 0.006, 0.0003]),
            )

    def test_lists_every_violation(self):
        a = np.diag([0.003, 0.008, 0.004]).astype(float)
        a[1, 2] = a[2, 1] = 2e-12
        k = np.diag([0.003, 0.005, 0.0003]).astype(float)
        k[0, 2] = k[2, 0] = -1e-3
        with pytest.raises(ValueError, match="symmetric-design") as exc:
            InertiaModel(pitch_gimbal=a, yaw_gimbal=k)
        violations = str(exc.value).split(": ", 1)[1].split("; ")
        assert [v.split(" = ")[0].split(":")[0] for v in violations] == [
            "yaw product of inertia xz",
            "pitch product of inertia yz",
            "pitch x and z moments differ",
            "yaw y moment must equal yaw x + pitch x moments",
        ]
        # each ends with the config names of the entries it shows
        names = [v.rsplit(" (", 1)[1].rstrip(")").split(", ") for v in violations]
        assert names == [
            ["yaw_xz"], ["pitch_yz"], ["pitch_xx", "pitch_zz"], ["yaw_yy", "yaw_xx", "pitch_xx"]
        ]
        assert {n for group in names for n in group} <= INERTIA_ENTRIES.keys()

    def test_design_tolerance_is_1e_12(self):
        a = np.diag([0.003, 0.008, 0.003]).astype(float)
        k = np.diag([0.003, 0.006, 0.0003]).astype(float)
        a[0, 1] = a[1, 0] = 1e-12
        InertiaModel(pitch_gimbal=a, yaw_gimbal=k)
        a[0, 1] = a[1, 0] = 1.01e-12
        with pytest.raises(ValueError, match="xy"):
            InertiaModel(pitch_gimbal=a, yaw_gimbal=k)

    def test_symmetry_tolerance_is_1e_15(self):
        a = np.diag([0.003, 0.008, 0.003]).astype(float)
        a[0, 1] = 1e-15  # mirror entry stays 0; within the design tolerance
        InertiaModel(pitch_gimbal=a, yaw_gimbal=np.diag([0.003, 0.006, 0.0003]))
        a[0, 1] = 2e-15
        with pytest.raises(ValueError, match="pitch_gimbal must be symmetric"):
            InertiaModel(pitch_gimbal=a, yaw_gimbal=np.diag([0.003, 0.006, 0.0003]))

    @pytest.mark.parametrize(
        "pitch, message",
        [
            (np.eye(2), r"pitch_gimbal must be 3x3, got \(2, 2\)"),
            (np.diag([0.003, math.inf, 0.003]), "pitch_yy must be finite, got inf"),
            (np.diag([0.003, math.nan, 0.003]), "pitch_yy must be finite, got nan"),
            (np.diag([0.003, 0.008, 0.003]) + [[0, 0, 0], [math.nan, 0, 0], [0, 0, 0]],
             "pitch_gimbal has non-finite entries"),
        ],
        ids=["shape", "inf", "nan", "unnamed-nan"],
    )
    def test_rejects_bad_matrix_naming_it(self, pitch, message):
        with pytest.raises(ValueError, match=message):
            InertiaModel(pitch_gimbal=pitch, yaw_gimbal=np.diag([0.003, 0.006, 0.0003]))

    def test_rejects_asymmetric_matrix(self):
        bad = np.diag([0.003, 0.008, 0.003]).astype(float)
        bad[0, 1] = 0.001  # not mirrored
        with pytest.raises(ValueError, match="symmetric"):
            InertiaModel(pitch_gimbal=bad, yaw_gimbal=np.diag([0.003, 0.006, 0.0003]))

    def test_rejects_nonpositive_moments(self):
        with pytest.raises(ValueError, match="positive"):
            InertiaModel(
                pitch_gimbal=np.diag([0.003, -0.008, 0.003]),
                yaw_gimbal=np.diag([0.003, 0.006, 0.0003]),
            )

    def test_noise_spec_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_y=-1e-3)

    @pytest.mark.parametrize("field", ["sigma_y", "sigma_z"])
    def test_noise_spec_rejects_nan_sigma(self, field):
        with pytest.raises(ValueError, match=field):
            NoiseSpec(**{field: math.nan})


class TestPitchAccelDrift:
    def test_zero_body(self):
        assert pitch_accel_drift(0.0, GimbalState(0.1, 0.2, 0.3, 0.4), BODY_AT_REST) == 0.0

    def test_only_q_dot_term(self):
        body = BodyRates(0.0, 0.0, 0.0, q_dot=1.0)
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        assert pitch_accel_drift(0.0, state, body) == -1.0

    def test_finite_difference_oracle(self):
        # along an analytic path with x3_dot = x4, the drift is the time
        # derivative of p sin(x3) - q cos(x3)
        def x3(t):
            return 0.4 * math.sin(1.3 * t) + 0.2 * t

        def x4(t):
            return 0.4 * 1.3 * math.cos(1.3 * t) + 0.2

        def p(t):
            return 0.1 * math.sin(math.pi * t / 15)

        def q(t):
            return 0.1 * math.sin(math.pi * t / 20)

        def phi(t):
            return p(t) * math.sin(x3(t)) - q(t) * math.cos(x3(t))

        h = 1e-5
        for t in (0.3, 1.7, 4.2, 9.9):
            body = BodyRates(
                p(t), q(t), 0.0,
                0.1 * math.pi / 15 * math.cos(math.pi * t / 15),
                0.1 * math.pi / 20 * math.cos(math.pi * t / 20),
                0.0,
            )
            state = GimbalState(0.0, 0.0, x3(t), x4(t))
            fd = (phi(t + h) - phi(t - h)) / (2 * h)
            assert pitch_accel_drift(t, state, body) == pytest.approx(fd, abs=1e-6)


class TestYawAccelDrift:
    def test_zero_body_zero_pitch_rate(self):
        assert yaw_accel_drift(0.0, GimbalState(0.0, 0.0, 0.0, 0.0), BODY_AT_REST, MODEL) == 0.0

    def test_zero_body_nonzero_pitch_rate(self):
        # no body rates means no yaw-frame x rate, so the product vanishes
        assert yaw_accel_drift(0.0, GimbalState(0.0, 1.0, 0.0, 0.0), BODY_AT_REST, MODEL) == 0.0

    def test_arithmetic_example(self):
        state = GimbalState(0.0, 0.3, 0.0, 0.0)
        body = BodyRates(0.1, 0.0, 0.0)
        expected = -(0.008 / (0.0003 + 0.003)) * 0.1 * 0.3
        assert yaw_accel_drift(0.0, state, body, MODEL) == pytest.approx(expected, rel=1e-12)


class TestStateDerivative:
    def test_drift_free_double_integrators(self):
        state = GimbalState(0.0, 0.1, 0.0, 0.2, 0.0, 0.0)
        d = state_derivative(0.0, state, ZERO_U, BODY_AT_REST, MODEL)
        assert d == GimbalState(0.1, 0.0, 0.2, 0.0, 0.1, 0.2)

    def test_unit_pitch_acceleration(self):
        d = state_derivative(
            0.0, GimbalState(0.0, 0.0, 0.0, 0.0), TorqueCommand(0.008, 0.0), BODY_AT_REST, MODEL
        )
        assert d.x2 == 1.0

    @given(states, bodies, torques, torques, models())
    @settings(max_examples=200)
    def test_recomposition_from_public_operations(self, state, body, u1, u2, model):
        # all six components, bit for bit, from the public drift and
        # LOS-rate functions
        from gimbalsim.kinematics import los_rates

        d = state_derivative(0.0, state, TorqueCommand(u1, u2), body, model)
        want = (
            state.x2,
            u1 / model.j_ay + pitch_accel_drift(0.0, state, body),
            state.x4,
            u2 / model.j_k + yaw_accel_drift(0.0, state, body, model),
            *los_rates(state, body),
        )
        assert [v.hex() for v in d] == [v.hex() for v in want]

    def test_affine_in_torque_with_exact_slopes(self):
        state = GimbalState(0.3, -0.2, 1.1, 0.4)
        body = BodyRates(0.05, -0.02, 0.1, 0.01, 0.02, -0.03)
        d0 = state_derivative(1.0, state, TorqueCommand(0.001, 0.002), body, MODEL)
        d1 = state_derivative(1.0, state, TorqueCommand(0.005, 0.008), body, MODEL)
        slope_y = (d1.x2 - d0.x2) / (0.005 - 0.001)
        slope_z = (d1.x4 - d0.x4) / (0.008 - 0.002)
        assert slope_y == pytest.approx(1.0 / MODEL.j_ay, rel=1e-12)
        assert slope_z == pytest.approx(1.0 / MODEL.j_k, rel=1e-12)

    def test_noise_torque_enters_through_inertia(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        d = state_derivative(0.0, state, ZERO_U, BODY_AT_REST, MODEL, noise_torque=(0.004, 0.0033))
        assert d.x2 == pytest.approx(0.004 / MODEL.j_ay)
        assert d.x4 == pytest.approx(0.0033 / MODEL.j_k)

    def test_deterministic(self):
        state = GimbalState(0.2, 0.1, -0.4, 0.3, 0.05, -0.02)
        body = BodyRates(0.03, 0.05, -0.07, 0.001, 0.002, 0.003)
        u = TorqueCommand(0.01, -0.02)
        assert state_derivative(2.0, state, u, body, MODEL) == state_derivative(
            2.0, state, u, body, MODEL
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            state_derivative(
                0.0, GimbalState(math.nan, 0.0, 0.0, 0.0), ZERO_U, BODY_AT_REST, MODEL
            )
