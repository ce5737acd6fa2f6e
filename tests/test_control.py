import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimbalsim.control import (
    ControlGains,
    GuardSpec,
    PidParams,
    PidState,
    VirtualControl,
    ZERO_TRAJECTORY,
    azimuth_drift,
    elevation_drift,
    guard_cos,
    los_tracking_control,
    pid_baseline,
    rate_tracking_control,
    torques_from_virtual,
    virtual_from_torques,
)
from gimbalsim.kinematics import BODY_AT_REST, BodyRates, los_rates
from gimbalsim.plant import (
    GimbalState,
    InertiaModel,
    TorqueCommand,
    default_model,
    pitch_accel_drift,
    state_derivative,
)
from gimbalsim.sim import ConstantPlatform, Scenario, integrate

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
rates = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
states = st.builds(GimbalState, angles, rates, angles, rates, angles, angles)
bodies = st.builds(BodyRates, rates, rates, rates, rates, rates, rates)
inertias = st.builds(
    lambda ax, ay, kx, kz: InertiaModel(
        pitch_gimbal=np.diag([ax, ay, ax]),
        yaw_gimbal=np.diag([kx, kx + ax, kz]),
    ),
    st.floats(min_value=1e-3, max_value=2e-2),
    st.floats(min_value=1e-3, max_value=2e-2),
    st.floats(min_value=1e-3, max_value=2e-2),
    st.floats(min_value=1e-4, max_value=2e-2),
)

MODEL = default_model()


def constant_trajectory(value):
    return types.SimpleNamespace(value=lambda t: value, d1=lambda t: 0.0, d2=lambda t: 0.0)


class TestControlGains:
    def test_rate_gains_only(self):
        g = ControlGains(3.0, 4.0)
        assert g.c3 is None and g.c4 is None
        with pytest.raises(ValueError):
            g.require_full()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ControlGains(0.0, 4.0)
        with pytest.raises(ValueError):
            ControlGains(3.0, -4.0)
        with pytest.raises(ValueError):
            ControlGains(3.0, 4.0, 5.0, math.inf)

    def test_full_gains(self):
        ControlGains(6.0, 8.0, 9.0, 10.0).require_full()


class TestGuard:
    def test_outside_band_passes_through(self):
        assert guard_cos(0.9) == 0.9
        assert guard_cos(-0.8) == -0.8
        assert guard_cos(0.3) == 0.3
        assert guard_cos(-0.3) == -0.3

    def test_positive_band_clamps_up(self):
        assert guard_cos(0.1, GuardSpec(0.3)) == 0.3

    def test_zero_maps_to_negative_threshold(self):
        assert guard_cos(0.0) == -0.3

    def test_negative_band_clamps_down(self):
        assert guard_cos(-0.05) == -0.3

    def test_custom_threshold(self):
        assert guard_cos(0.4, GuardSpec(0.5)) == 0.5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            GuardSpec(0.0)
        with pytest.raises(ValueError):
            GuardSpec(1.0)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=300)
    def test_guard_properties(self, c):
        out = guard_cos(c)
        assert abs(out) >= 0.3
        if abs(c) >= 0.3:
            assert out == c


class TestDriftTerms:
    @given(states, bodies)
    @settings(max_examples=400)
    def test_elevation_drift_is_exact_negation_of_pitch_drift(self, state, body):
        total = pitch_accel_drift(0.0, state, body) + elevation_drift(0.0, state, body)
        assert total == 0.0

    def test_azimuth_drift_zero_cases(self):
        assert azimuth_drift(0.0, GimbalState(0.5, 0.0, 0.3, 0.7), BODY_AT_REST) == 0.0
        # sin(x1) = 0 kills the x2*x4 term as well
        assert azimuth_drift(0.0, GimbalState(0.0, 1.0, 0.0, 1.0), BODY_AT_REST) == 0.0


class TestLinearizingTransform:
    def test_zero_maps_to_zero(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        u = torques_from_virtual(VirtualControl(0.0, 0.0), 0.0, state, BODY_AT_REST, MODEL)
        assert u == TorqueCommand(0.0, 0.0)
        v = virtual_from_torques(TorqueCommand(0.0, 0.0), 0.0, state, BODY_AT_REST, MODEL)
        assert v == VirtualControl(0.0, 0.0)

    def test_unit_virtual_pitch_accel(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        u = torques_from_virtual(VirtualControl(1.0, 0.0), 0.0, state, BODY_AT_REST, MODEL)
        assert u.u1 == pytest.approx(0.008, rel=1e-15)

    @given(states, bodies, inertias,
           st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=300)
    def test_round_trip_virtual(self, state, body, model, v1, v2):
        v = VirtualControl(v1, v2)
        back = virtual_from_torques(
            torques_from_virtual(v, 1.0, state, body, model), 1.0, state, body, model
        )
        assert back.v1 == pytest.approx(v1, abs=1e-12)
        assert back.v2 == pytest.approx(v2, abs=1e-12)

    @given(states, bodies, inertias,
           st.floats(min_value=-0.05, max_value=0.05, allow_nan=False),
           st.floats(min_value=-0.05, max_value=0.05, allow_nan=False))
    @settings(max_examples=300)
    def test_round_trip_torque(self, state, body, model, u1, u2):
        u = TorqueCommand(u1, u2)
        back = torques_from_virtual(
            virtual_from_torques(u, 1.0, state, body, model), 1.0, state, body, model
        )
        assert back.u1 == pytest.approx(u1, abs=1e-12)
        assert back.u2 == pytest.approx(u2, abs=1e-12)

    def test_closing_the_loop_recovers_virtual_accelerations(self):
        # applying the mapped torques to the plant must realize v exactly
        state = GimbalState(0.4, -0.3, 1.2, 0.25)
        body = BodyRates(0.05, -0.08, 0.12, 0.01, -0.02, 0.03)
        v = VirtualControl(0.7, -1.1)
        u = torques_from_virtual(v, 2.0, state, body, MODEL)
        d = state_derivative(2.0, state, u, body, MODEL)
        assert d.x2 == pytest.approx(v.v1, abs=1e-12)
        assert d.x4 == pytest.approx(v.v2, abs=1e-12)


class TestRateTracking:
    def test_already_converged(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        v = rate_tracking_control(
            0.0, state, BODY_AT_REST, ControlGains(3.0, 4.0), ZERO_TRAJECTORY, ZERO_TRAJECTORY
        )
        assert v == VirtualControl(0.0, 0.0)

    def test_pure_rate_error(self):
        state = GimbalState(0.0, 0.1, 0.0, 0.0)
        v = rate_tracking_control(
            0.0, state, BODY_AT_REST, ControlGains(3.0, 4.0), ZERO_TRAJECTORY, ZERO_TRAJECTORY
        )
        assert v.v1 == pytest.approx(-0.3, rel=1e-14)

    @given(states, bodies)
    @settings(max_examples=200, deadline=None)
    def test_stabilization_equals_zero_reference_tracking(self, state, body):
        # the integrator's stabilize controller commands, bit for bit,
        # rate tracking of zero references and its torque map
        body = BodyRates(body.p, body.q, body.r)
        sc = Scenario(
            controller="stabilize",
            gains=ControlGains(3.0, 4.0),
            duration=1e-3,
            initial_state=state,
            platform=ConstantPlatform(body.p, body.q, body.r),
        )
        row = integrate(sc).data[0].tolist()
        v = rate_tracking_control(
            0.0, state, body, sc.gains, ZERO_TRAJECTORY, ZERO_TRAJECTORY, sc.guard
        )
        u = torques_from_virtual(v, 0.0, state, body, sc.model)
        assert [x.hex() for x in row[9:13]] == [x.hex() for x in (*v, *u)]


class TestLosTracking:
    def test_requires_full_gains(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            los_tracking_control(
                0.0, state, BODY_AT_REST, ControlGains(3.0, 4.0),
                ZERO_TRAJECTORY, ZERO_TRAJECTORY, 0.0, 0.0,
            )

    def test_position_error_term(self):
        state = GimbalState(0.0, 0.0, 0.0, 0.0)
        v = los_tracking_control(
            0.0, state, BODY_AT_REST, ControlGains(6.0, 8.0, 9.0, 10.0),
            constant_trajectory(math.pi / 6), ZERO_TRAJECTORY, 0.0, 0.0,
        )
        assert v.v1 == pytest.approx(8.0 * math.pi / 6, rel=1e-14)

    def test_reduces_to_feedforward_on_the_trajectory(self):
        # when state and rates match the reference, only the declared
        # second derivative remains (drifts are zero without body motion)
        traj = types.SimpleNamespace(value=lambda t: 0.4, d1=lambda t: 0.25, d2=lambda t: 0.6)
        state = GimbalState(0.0, 0.25, 0.0, 0.0)  # q_a == d1
        v = los_tracking_control(
            0.0, state, BODY_AT_REST, ControlGains(6.0, 8.0, 9.0, 10.0),
            traj, ZERO_TRAJECTORY, 0.4, 0.0,
        )
        assert v.v1 == pytest.approx(0.6, rel=1e-12)


class TestPidBaseline:
    def test_zero_error_history(self):
        v, state = pid_baseline(0.0, 0.0, 0.0, PidParams(), PidState())
        assert v == VirtualControl(0.0, 0.0)
        assert state.primed

    def test_pure_proportional(self):
        params = PidParams(kp_q=5.0, ki_q=0.0, kd_q=0.0, kp_r=2.0, ki_r=0.0, kd_r=0.0)
        st0 = PidState()
        v, st1 = pid_baseline(0.0, 0.4, -0.2, params, st0)
        assert v.v1 == pytest.approx(5.0 * 0.4)
        assert v.v2 == pytest.approx(2.0 * -0.2)
        v, _ = pid_baseline(0.1, 0.4, -0.2, params, st1)
        assert v.v1 == pytest.approx(5.0 * 0.4)

    def test_integral_accumulates(self):
        params = PidParams(kp_q=0.0, ki_q=1.0, kd_q=0.0, kp_r=0.0, ki_r=1.0, kd_r=0.0)
        state = PidState()
        v, state = pid_baseline(0.0, 1.0, 0.5, params, state)
        assert v.v1 == 0.0  # priming call
        v, state = pid_baseline(0.5, 1.0, 0.5, params, state)
        assert v.v1 == pytest.approx(0.5)
        assert v.v2 == pytest.approx(0.25)

    def test_derivative_term(self):
        params = PidParams(kp_q=0.0, ki_q=0.0, kd_q=2.0, kp_r=0.0, ki_r=0.0, kd_r=0.0)
        state = PidState()
        _, state = pid_baseline(0.0, 0.0, 0.0, params, state)
        v, _ = pid_baseline(0.1, 0.3, 0.0, params, state)
        assert v.v1 == pytest.approx(2.0 * 0.3 / 0.1)

    def test_state_is_immutable_and_returned(self):
        st0 = PidState()
        _, st1 = pid_baseline(0.0, 0.1, 0.2, PidParams(), st0)
        assert st0 == PidState()
        assert st1 != st0


class TestClosedLoopResiduals:
    """Pointwise first/second-order error dynamics recomputed from plant
    derivatives along recorded closed-loop trajectories."""

    def test_rate_law_first_order_residual(self, rec_fig3):
        sc = rec_fig3.scenario
        gains = sc.gains
        worst_q = worst_r = 0.0
        for i in range(0, rec_fig3.n_rows, 23):
            row = rec_fig3.data[i]
            t = row[0]
            state = GimbalState(*row[1:7])
            if abs(math.cos(state.x1)) < sc.guard.threshold:
                continue
            body = sc.platform.rates(t)
            u = TorqueCommand(row[11], row[12])
            d = state_derivative(t, state, u, body, sc.model)
            q_a, r_a = los_rates(state, body)
            qa_dot = elevation_drift(t, state, body) + d.x2
            ra_dot = azimuth_drift(t, state, body) + d.x4 * math.cos(state.x1)
            # desired rates are zero: e = -q_a, e_dot = -qa_dot
            worst_q = max(worst_q, abs(-qa_dot + gains.c1 * (-q_a)))
            worst_r = max(worst_r, abs(-ra_dot + gains.c2 * (-r_a)))
        assert worst_q <= 1e-9
        assert worst_r <= 1e-9

    def test_los_law_second_order_residual(self, rec_fig4):
        sc = rec_fig4.scenario
        gains = sc.gains
        traj_q, traj_r = sc.ref_q, sc.ref_r
        h = sc.step_size
        worst_q = worst_r = 0.0
        for i in range(0, rec_fig4.n_rows, 17):
            row = rec_fig4.data[i]
            t = row[0]
            if min(abs(t - sc.ref_q.t_on), abs(t - sc.ref_q.t_off)) < 2 * h:
                continue
            state = GimbalState(*row[1:7])
            if abs(math.cos(state.x1)) < sc.guard.threshold:
                continue
            body = sc.platform.rates(t)
            u = TorqueCommand(row[11], row[12])
            d = state_derivative(t, state, u, body, sc.model)
            q_a, r_a = los_rates(state, body)
            qa_dot = elevation_drift(t, state, body) + d.x2
            ra_dot = azimuth_drift(t, state, body) + d.x4 * math.cos(state.x1)
            e_q = traj_q.value(t) - state.theta_q
            e_q_dot = traj_q.d1(t) - q_a
            e_q_ddot = traj_q.d2(t) - qa_dot
            worst_q = max(worst_q, abs(e_q_ddot + gains.c1 * e_q_dot + gains.c2 * e_q))
            e_r = traj_r.value(t) - state.theta_r
            e_r_dot = traj_r.d1(t) - r_a
            e_r_ddot = traj_r.d2(t) - ra_dot
            worst_r = max(worst_r, abs(e_r_ddot + gains.c3 * e_r_dot + gains.c4 * e_r))
        assert worst_q <= 1e-9
        assert worst_r <= 1e-9
