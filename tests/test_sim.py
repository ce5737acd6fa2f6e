import errno
import math
import mmap
import os
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimbalsim.control import (
    ZERO_TRAJECTORY,
    ControlGains,
    GuardSpec,
    PidState,
    guard_cos,
    los_tracking_control,
    pid_baseline,
    rate_tracking_control,
    torques_from_virtual,
)
from gimbalsim.kinematics import los_rates
from gimbalsim.plant import GimbalState, NoiseSpec, TorqueCommand, state_derivative
from gimbalsim.sim import (
    _BLOCK,
    COLUMNS,
    CONTROLLERS,
    LINEARIZING_CONTROLLERS,
    MAX_STEPS,
    ConstantPlatform,
    ReferenceSpec,
    Scenario,
    SimulationDiverged,
    SinusoidalPlatform,
    TablePlatform,
    UnknownPresetError,
    _gauss_pairs,
    fit_decay_slope,
    integrate,
    integrated_abs_error,
    observe_blocks,
    peak_abs_error,
    preset,
    preset_description,
    preset_names,
    rms,
    settling_time,
)

STILL = ConstantPlatform()


def open_loop(duration, step, x0, platform=STILL, name="ol"):
    return Scenario(
        name=name,
        controller="open-loop",
        duration=duration,
        step_size=step,
        initial_state=x0,
        platform=platform,
    )


class TestPlatformProfiles:
    def test_preset_motion_at_zero(self):
        b = SinusoidalPlatform().rates(0.0)
        assert (b.p, b.q, b.r) == (0.0, 0.0, 0.0)
        assert b.p_dot == pytest.approx(0.1 * math.pi / 15)
        assert b.q_dot == pytest.approx(0.1 * math.pi / 20)
        assert b.r_dot == pytest.approx(0.2 * math.pi / 15)

    def test_quarter_period_peak(self):
        b = SinusoidalPlatform().rates(7.5)
        assert b.p == pytest.approx(0.1, rel=1e-12)
        assert b.p_dot == pytest.approx(0.0, abs=1e-15)

    def test_constant_profile_has_zero_derivatives(self):
        b = ConstantPlatform(0.1, -0.2, 0.3).rates(12.0)
        assert (b.p, b.q, b.r) == (0.1, -0.2, 0.3)
        assert (b.p_dot, b.q_dot, b.r_dot) == (0.0, 0.0, 0.0)

    def test_table_interpolation_and_slope(self):
        tab = TablePlatform(times=(0.0, 1.0, 3.0), p=(0.0, 1.0, 0.0), q=(0.0, 0.0, 2.0), r=(1.0, 1.0, 1.0))
        b = tab.rates(0.5)
        assert b.p == pytest.approx(0.5)
        assert b.p_dot == pytest.approx(1.0)
        b = tab.rates(2.0)
        assert b.p == pytest.approx(0.5)
        assert b.p_dot == pytest.approx(-0.5)
        assert b.q_dot == pytest.approx(1.0)
        # clamped outside the table
        assert tab.rates(9.0).p == 0.0
        assert tab.rates(9.0).p_dot == 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TablePlatform(times=(0.0,), p=(1.0,), q=(1.0,), r=(1.0,))
        with pytest.raises(ValueError):
            TablePlatform(times=(0.0, 0.0), p=(1.0, 1.0), q=(1.0, 1.0), r=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: SinusoidalPlatform(amp_q=v), "amp_q"),
            (lambda v: SinusoidalPlatform(omega_r=v), "omega_r"),
            (lambda v: ConstantPlatform(p=v), "p"),
            (lambda v: ConstantPlatform(r=v), "r"),
            (lambda v: TablePlatform((0.0, 1.0, 2.0), (0.0, 0.0, 0.0), (0.0, v, 0.0), (0.0,) * 3), "q"),
            (lambda v: TablePlatform((0.0, 1.0, v), (0.0,) * 3, (0.0,) * 3, (0.0,) * 3), "times"),
        ],
        ids=["sinusoidal", "sinusoidal", "constant", "constant", "table", "table"],
    )
    def test_non_finite_parameter_rejected_naming_field(self, build, field, bad):
        with pytest.raises(ValueError, match=f"platform {field} must be finite"):
            build(bad)


class TestReferences:
    def test_zero(self):
        traj = ReferenceSpec(kind="zero")
        assert (traj.value(3.0), traj.d1(3.0), traj.d2(3.0)) == (0.0, 0.0, 0.0)

    def test_sinusoid_analytic_derivatives(self):
        traj = ReferenceSpec(kind="sinusoid", amplitude=1.0, omega=math.pi / 25)
        assert traj.value(0.0) == 0.0
        assert traj.d1(0.0) == pytest.approx(math.pi / 25)
        assert traj.d2(0.0) == pytest.approx(0.0, abs=1e-15)
        # spot-check declared derivatives against finite differences
        h1, h2 = 1e-6, 1e-4
        for t in (1.3, 7.7, 20.1):
            fd1 = (traj.value(t + h1) - traj.value(t - h1)) / (2 * h1)
            fd2 = (traj.value(t + h2) - 2 * traj.value(t) + traj.value(t - h2)) / (h2 * h2)
            assert traj.d1(t) == pytest.approx(fd1, abs=1e-8)
            assert traj.d2(t) == pytest.approx(fd2, abs=1e-6)

    def test_step_window(self):
        traj = ReferenceSpec(kind="step", amplitude=math.pi / 6, t_on=5.0, t_off=25.0)
        assert traj.value(4.999) == 0.0
        assert traj.value(5.0) == math.pi / 6
        assert traj.value(24.999) == math.pi / 6
        assert traj.value(25.0) == 0.0
        assert traj.d1(6.0) == 0.0 and traj.d2(6.0) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ReferenceSpec(kind="ramp")

    @pytest.mark.parametrize("t_on, t_off", [(1.0, math.nan), (2.0, 1.0), (1.0, 1.0)])
    def test_step_window_must_be_ordered(self, t_on, t_off):
        with pytest.raises(ValueError, match="t_off"):
            ReferenceSpec(kind="step", amplitude=1.0, t_on=t_on, t_off=t_off)


def _assert_same_bits(ts, got_cols, want_rows):
    got = np.column_stack(got_cols)
    want = np.array(want_rows, dtype=float)
    assert got.shape == want.shape
    bad = np.nonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))[0]
    assert bad.size == 0, f"{bad.size} mismatches, first at t={ts[bad[0]]!r}"


# The step grids integrate samples on (k h, k h + h/2, k h + h for a
# 60 s run at 1 ms), plus random times in +-1e4 s.
_GRID = np.arange(60001, dtype=float) * 1e-3
_PROBES = np.concatenate(
    (_GRID, _GRID + 0.5e-3, _GRID + 1e-3, np.random.default_rng(7).uniform(-1e4, 1e4, 20000))
)


class TestSample:
    """``sample(ts)`` equals the scalar ``rates`` / ``value``, ``d1``,
    ``d2`` path bit for bit at every time."""

    @staticmethod
    def assert_platform_matches(platform, ts):
        ts = np.asarray(ts, dtype=float)
        want = [platform.rates(t) for t in ts.tolist()]
        _assert_same_bits(ts, platform.sample(ts), want)

    @staticmethod
    def assert_reference_matches(spec, ts):
        ts = np.asarray(ts, dtype=float)
        want = [(spec.value(t), spec.d1(t), spec.d2(t)) for t in ts.tolist()]
        _assert_same_bits(ts, spec.sample(ts), want)

    @pytest.mark.parametrize(
        "platform",
        [SinusoidalPlatform(), SinusoidalPlatform(0.3, 2.7, -0.05, 11.0, 1e-3, 0.013), ConstantPlatform(0.1, -0.2, 0.3)],
        ids=["preset", "custom", "constant"],
    )
    def test_platform(self, platform):
        self.assert_platform_matches(platform, _PROBES)

    def test_table_before_at_between_beside_and_beyond_breakpoints(self):
        times = (-0.5, 0.0, 0.001, 0.0015, 0.1, 0.30000000000000004, 2.0)
        tab = TablePlatform(
            times,
            p=(0.1, -0.2, 0.3, 0.25, -0.1, 0.0, 0.4),
            q=(0.0, 0.0, 1e-3, 2e-3, -5.0, 5.0, 1.0),
            r=(1.0, 0.7, 0.3, -0.3, 0.2, 0.1, 0.0),
        )
        probes = [-1e3, -0.75, 2.5, 1e3, 0.1 + 0.2]
        probes += list(times)
        probes += [0.5 * (a + b) for a, b in zip(times, times[1:])]
        probes += [math.nextafter(t, d) for t in times for d in (math.inf, -math.inf)]
        probes += (np.arange(3001) * 1e-3 - 0.7).tolist()
        self.assert_platform_matches(tab, probes)
        # rates() gives a NaN time the first segment's slopes
        self.assert_platform_matches(tab, [math.nan])
        self.assert_platform_matches(tab, [0.05, math.nan, 1e3, -math.nan, -1e3])

    def test_table_with_one_segment(self):
        tab = TablePlatform((1.0, 2.0), (0.0, 1.0), (2.0, 2.0), (-1.0, 3.0))
        self.assert_platform_matches(tab, [0.0, 1.0, 1.25, math.nextafter(2.0, 0.0), 2.0, 9.0])

    @pytest.mark.parametrize(
        "times",
        [
            # breakpoints on block edges (k = 256, 512) and between grid points
            (-0.1, 0.0, 0.0005, 0.1, 0.256, 0.2565, 0.3, 0.512, 0.7, 0.9),
            (0.3, 0.4),  # one segment, inside the run
            (-2.0, 5.0),  # one segment, spanning the run
        ],
        ids=["block-edges", "one-segment", "one-segment-spanning"],
    )
    def test_table_on_block_grids_and_odd_inputs(self, times):
        # the block grids of a 1 s run, past both table ends, beside
        # each breakpoint and NaN among finite times
        rng = np.random.default_rng(3)
        tab = TablePlatform(times, *(tuple(rng.uniform(-1.0, 1.0, len(times)).tolist()) for _ in range(3)))
        h, n = 1e-3, 1000
        for k0 in range(0, n + 1, _BLOCK):
            ts = np.arange(k0, min(k0 + _BLOCK, n + 1), dtype=float) * h
            self.assert_platform_matches(tab, np.concatenate((ts, ts + 0.5 * h, ts + h)))
        for ts in (
            [times[0]], [times[-1]],
            [-1e3, -50.0], [50.0, 1e3], [1e3, -1e3, 0.35],
            [math.nextafter(t, d) for t in times for d in (math.inf, -math.inf)],
            [0.35, math.nan, -1e3],
        ):
            self.assert_platform_matches(tab, ts)
        # no rows to compare with rates(): six empty float arrays
        empty = tab.sample(np.array([]))
        assert [(a.shape, a.dtype) for a in empty] == [((0,), np.float64)] * 6

    @pytest.mark.parametrize(
        "spec",
        [
            ReferenceSpec(),
            ReferenceSpec(kind="sinusoid", amplitude=1.0, omega=math.pi / 25),
            ReferenceSpec(kind="sinusoid", amplitude=-0.3, omega=7.5),
            ReferenceSpec(kind="step", amplitude=math.pi / 6, t_on=5.0, t_off=25.0),
        ],
        ids=["zero", "preset-sinusoid", "sinusoid", "step"],
    )
    def test_reference(self, spec):
        self.assert_reference_matches(spec, _PROBES)

    def test_step_exactly_at_t_on_and_t_off(self):
        spec = ReferenceSpec(kind="step", amplitude=0.2, t_on=0.5, t_off=1.5)
        edges = [0.5, 1.5]
        probes = edges + [math.nextafter(t, d) for t in edges for d in (math.inf, -math.inf)]
        self.assert_reference_matches(spec, probes)
        value = spec.sample(np.array(probes))[0].tolist()
        assert value[:2] == [0.2, 0.0]
        # an open window: t_off = inf
        self.assert_reference_matches(ReferenceSpec(kind="step", amplitude=1.0, t_on=2.0), [2.0, 1e300])


class TestScenarioValidation:
    def test_unknown_controller(self):
        with pytest.raises(ValueError, match="controller"):
            Scenario(controller="banana")

    def test_gains_required(self):
        with pytest.raises(ValueError, match="gains"):
            Scenario(controller="stabilize")
        with pytest.raises(ValueError, match="c1..c4"):
            Scenario(controller="los-track", gains=ControlGains(1.0, 2.0))

    def test_positive_duration_and_step(self):
        with pytest.raises(ValueError):
            Scenario(controller="open-loop", duration=0.0)
        with pytest.raises(ValueError):
            Scenario(controller="open-loop", step_size=-1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", GimbalState._fields)
    def test_non_finite_initial_state_rejected_naming_field(self, field, value):
        x0 = GimbalState(0.0, 0.0, 0.0, 0.0)._replace(**{field: value})
        with pytest.raises(ValueError, match=f"initial state {field} must be finite, got {value!r}"):
            Scenario(controller="open-loop", initial_state=x0)

    @pytest.mark.parametrize("x0", [(0.1, 0.0, 0.0, 0.0), (0.0,) * 7, 0.1])
    def test_initial_state_must_have_six_fields(self, x0):
        with pytest.raises(ValueError, match="initial_state must have the 6 fields"):
            Scenario(controller="open-loop", duration=0.01, initial_state=x0)

    def test_six_value_initial_state_becomes_gimbal_state(self):
        sc = Scenario(controller="open-loop", duration=0.01, initial_state=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert type(sc.initial_state) is GimbalState
        assert sc.initial_state == GimbalState(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert integrate(sc).data[0, 1:7].tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_step_count_bound(self):
        # checked before anything of the run is allocated; the record of
        # MAX_STEPS steps would take 1.28 GB
        tracemalloc.start()
        try:
            assert Scenario(controller="open-loop", duration=MAX_STEPS, step_size=1.0).n_steps == MAX_STEPS
            with pytest.raises(
                ValueError,
                match=r"duration 1e\+07 at step_size 1 is 10,000,001 steps, more than MAX_STEPS "
                r"= 10,000,000; the record would take 1,280,000,256 bytes",
            ):
                Scenario(controller="open-loop", duration=MAX_STEPS + 1, step_size=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("duration, step", [(1e9, 1e-3), (60.0, 1e-9), (1e300, 1e-300)])
    def test_oversized_scenario_rejected_naming_its_fields(self, duration, step):
        with pytest.raises(ValueError, match="duration .* at step_size .* steps, more than MAX_STEPS.* bytes"):
            Scenario(controller="open-loop", duration=duration, step_size=step)

    def test_coarse_step_warning(self):
        with pytest.warns(UserWarning, match="coarse"):
            Scenario(controller="stabilize", gains=ControlGains(20.0, 16.0), step_size=0.05)

    def test_coarse_step_warning_names_the_line_that_built_the_scenario(self):
        # built directly, and by dataclasses.replace
        with pytest.warns(UserWarning, match="coarse") as caught:
            sc = Scenario(controller="stabilize", gains=ControlGains(20.0, 16.0), step_size=0.05)
            replace(sc, step_size=0.5)
        assert [w.filename for w in caught] == [__file__, __file__]


# Platforms for the kernel oracle tests: time-varying, constant, and a
# table whose breakpoints fall inside the runs and whose end value holds
# after 0.4 s.
_ORACLE_PLATFORMS = (
    SinusoidalPlatform(0.3, 2.7, -0.2, 4.0, 0.25, 3.1),
    ConstantPlatform(0.1, -0.2, 0.3),
    TablePlatform((0.0, 0.1, 0.2565, 0.4), (0.0, 0.3, -0.2, 0.1), (0.1, -0.4, 0.0, 0.2), (0.2, 0.2, -0.3, 0.0)),
)


def _oracle_scenario(controller, platform, ref):
    """A 0.5 s run (two sample blocks) that starts inside the guard band
    and leaves it, with torque noise on."""
    return Scenario(
        controller=controller,
        duration=0.5,
        gains=ControlGains(6.0, 8.0, 9.0, 10.0),
        initial_state=GimbalState(1.28, -0.6, -0.2, 0.1),
        platform=platform,
        ref_q=ref,
        ref_r=ref,
        noise=NoiseSpec(enabled=True, sigma_y=0.01, sigma_z=0.01, seed=5),
    )


def _law_row(sc, traj, row):
    """Row ``row``'s LOS rates, virtual controls and torques of a
    feedback-linearizing scenario, from the library functions, as hex."""
    t, x = row[0], GimbalState(*row[1:7])
    body = sc.platform.rates(t)
    if sc.controller == "los-track":
        v = los_tracking_control(t, x, body, sc.gains, traj, traj, x.theta_q, x.theta_r, sc.guard)
    else:
        v = rate_tracking_control(t, x, body, sc.gains, traj, traj, sc.guard)
    u = torques_from_virtual(v, t, x, body, sc.model)
    return [w.hex() for w in (*los_rates(x, body), *v, *u)]


class TestIntegrate:
    def test_zero_dynamics_all_rows_zero(self):
        rec = integrate(open_loop(1.0, 0.01, GimbalState(0.0, 0.0, 0.0, 0.0)))
        assert rec.n_rows == 101
        assert np.all(rec.data[:, 1:] == 0.0)
        assert np.all(np.diff(rec.t) > 0)

    def test_double_integrator_polynomial_exactness(self):
        # dyadic step: accumulation is exact, x1(T) == T bitwise
        h = 2.0 ** -10
        rec = integrate(open_loop(1.0, h, GimbalState(0.0, 1.0, 0.0, 0.0)))
        assert rec.n_rows == 1025
        assert rec.data[-1, COLUMNS.index("x1")] == 1.0
        assert rec.data[-1, COLUMNS.index("theta_q")] == 1.0

    def test_row_count_matches_duration_over_step(self):
        rec = integrate(open_loop(2.0, 0.004, GimbalState(0.0, 0.0, 0.0, 0.0)))
        assert rec.n_rows == 501

    def test_rejects_non_integer_step_count(self):
        # checked when the scenario is built, before integrate is reached
        with pytest.raises(ValueError, match="whole number"):
            open_loop(1.0, 0.0003, GimbalState(0.0, 0.0, 0.0, 0.0))

    def test_drift_free_rates_stay_constant(self):
        rec = integrate(open_loop(2.0, 0.001, GimbalState(0.0, 0.3, 0.0, -0.2)))
        assert np.all(rec.col("x2") == 0.3)
        assert np.all(rec.col("x4") == -0.2)

    def test_determinism_bit_identical(self):
        sc = replace(
            preset("fig3-stab-noise"), duration=2.0, name="det"
        )
        a = integrate(sc)
        b = integrate(sc)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_noise_stream(self):
        sc = replace(preset("fig3-stab-noise"), duration=1.0, name="s1")
        a = integrate(sc)
        b = integrate(replace(sc, noise=replace(sc.noise, seed=999)))
        assert not np.array_equal(a.col("noise_y"), b.col("noise_y"))

    def test_noise_draws_recorded_and_used(self):
        sc = replace(preset("fig3-stab-noise"), duration=0.5, name="nz")
        rec = integrate(sc)
        ny = rec.col("noise_y")
        assert np.any(ny != 0.0)
        assert np.std(ny) == pytest.approx(sc.noise.sigma_y, rel=0.2)

    def test_theta_consistency_with_los_rates(self, rec_fig3):
        h = rec_fig3.scenario.step_size
        for th_col, rate_col in (("theta_q", "q_a"), ("theta_r", "r_a")):
            th = rec_fig3.col(th_col)
            rate = rec_fig3.col(rate_col)
            fd = (th[2:] - th[:-2]) / (2 * h)
            assert np.max(np.abs(fd - rate[1:-1])) < 1e-5

    def test_rk4_order_on_smooth_dynamics(self):
        x0 = GimbalState(0.1, 0.4, -0.2, 0.3)
        runs = {
            h: integrate(open_loop(10.0, h, x0, SinusoidalPlatform(), name=f"ol{h}"))
            for h in (0.02, 0.01, 0.005)
        }
        d1 = np.max(np.abs(runs[0.02].data[:, 1:7] - runs[0.01].data[::2, 1:7]))
        d2 = np.max(np.abs(runs[0.01].data[:, 1:7] - runs[0.005].data[::2, 1:7]))
        assert 12.0 <= d1 / d2 <= 20.0

    def test_divergence_aborts_with_diagnostic(self):
        with pytest.warns(UserWarning, match="coarse"):
            sc = Scenario(
                name="blowup",
                controller="stabilize",
                gains=ControlGains(1e8, 1e8),
                duration=5.0,
                step_size=1e-3,
                initial_state=GimbalState(0.0, 0.1, 0.0, 0.1),
            )
        with pytest.raises(SimulationDiverged, match="non-finite"):
            integrate(sc)

    @pytest.mark.filterwarnings("ignore:step_size")
    @pytest.mark.parametrize(
        "blow_up, cause",
        [
            # the 1e8-gain scenario above: a stage's trig overflows in the first block
            (dict(gains=ControlGains(1e8, 1e8)), ValueError),
            # a loop that grows by about 1.03 per step blows up in the second block
            (dict(gains=ControlGains(2030.0, 2030.0)), ValueError),
            # the same with torque noise, drawn a block ahead of the steps
            (dict(gains=ControlGains(2030.0, 2030.0), noise=NoiseSpec(enabled=True, seed=7)),
             ValueError),
            # a finite step whose RK4 sum overflows: the post-step check
            (dict(controller="open-loop", platform=ConstantPlatform(1.0, 1.0),
                  initial_state=GimbalState(0.0, 1e307, 0.0, 1e300)), type(None)),
        ],
        ids=["stage-trig", "later-block", "later-block-noise", "post-step"],
    )
    def test_divergence_keeps_the_rows_before_the_blow_up(self, blow_up, cause):
        sc = Scenario(
            **{"name": "blowup", "controller": "stabilize", "duration": 5.0, "step_size": 1e-3,
               "initial_state": GimbalState(0.0, 0.1, 0.0, 0.1), **blow_up}
        )
        with pytest.raises(SimulationDiverged) as info:
            integrate(sc)
        exc = info.value
        assert type(exc.__cause__) is cause
        assert exc.record.scenario == sc
        assert bool(exc.record.col("noise_y").any()) == sc.noise.enabled
        k = exc.record.n_rows - 1
        assert exc.t == pytest.approx((k + (cause is type(None))) * sc.step_size)
        cut = integrate(replace(sc, duration=k * sc.step_size)).data
        assert cut.shape == exc.record.data.shape
        assert np.array_equal(cut.view(np.uint64), exc.record.data.view(np.uint64))

    def test_block_observer_sees_each_stored_block(self):
        sc = replace(preset("fig4-step-noise"), duration=1.0, name="obs")
        calls = []

        def observe(data, rows):
            calls.append((data, rows, data[:rows].copy()))

        with observe_blocks(observe):
            rec = integrate(sc)
        integrate(sc)  # outside the block: not observed
        n = rec.n_rows
        assert [rows for _, rows, _ in calls] == [*range(_BLOCK, n, _BLOCK), n]
        for data, rows, stored in calls:
            assert data is rec.data
            assert np.array_equal(stored.view(np.uint64), rec.data[:rows].view(np.uint64))

    def test_process_forked_by_observer_sees_later_rows(self):
        # the child is forked at the first block, waits until integrate
        # has returned, then sends back the last row of its own view; a
        # scenario no other test runs, whose rows no freed array holds
        sc = replace(preset("fig5-sin"), duration=0.75, name="shared")
        go_r, go_w = os.pipe()
        back_r, back_w = os.pipe()
        pids = []

        def observe(data, rows):
            if pids:
                return
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(go_w)  # so that a parent that failed reads as EOF
                    os.read(go_r, 1)
                    os.write(back_w, data[-1].tobytes())
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)

        try:
            with observe_blocks(observe):
                rec = integrate(sc)
            os.write(go_w, b"\0")
            row = os.read(back_r, rec.data[-1].nbytes)
        finally:
            for fd in (go_r, go_w, back_r, back_w):
                os.close(fd)
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        assert statuses == [0]
        assert rec.n_rows > _BLOCK and rec.data[-1, 0] == sc.duration
        assert row == rec.data[-1].tobytes()

    def test_record_that_cannot_be_mapped_is_a_memory_error(self, monkeypatch):
        # as np.empty fails: an OSError would read as a failed file write
        def no_memory(fileno, length):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", no_memory)
        with pytest.raises(MemoryError, match="record of 1,001 rows: Cannot allocate memory"):
            integrate(replace(preset("fig3-stab"), duration=1.0))

    def test_stabilize_ignores_references(self):
        base = replace(preset("fig3-stab"), duration=1.0, name="st0")
        with_refs = replace(
            base,
            ref_q=ReferenceSpec(kind="sinusoid", amplitude=0.5, omega=1.0),
            name="st1",
        )
        assert np.array_equal(integrate(base).data, integrate(with_refs).data)

    @pytest.mark.parametrize("controller", ["rate-track", "los-track", "stabilize", "pid"])
    def test_recorded_rows_match_public_functions(self, controller):
        # the fused step kernel reproduces los_rates, the laws and the
        # torque map bit for bit, inside and outside the guard band, on
        # every platform kind; the PID memory threads through every row
        ref = ReferenceSpec(kind="sinusoid", amplitude=0.5, omega=2.0)
        traj = ZERO_TRAJECTORY if controller == "stabilize" else ref
        for platform in _ORACLE_PLATFORMS:
            sc = _oracle_scenario(controller, platform, ref)
            rec = integrate(sc)
            if controller in ("rate-track", "los-track"):
                assert rec.guard_active.any() and not rec.guard_active.all()
            pid = PidState()
            for row in rec.data.tolist():
                t, st = row[0], GimbalState(*row[1:7])
                if controller == "pid":
                    v, pid = pid_baseline(
                        t, traj.value(t) - st.theta_q, traj.value(t) - st.theta_r, sc.pid, pid
                    )
                    u = (sc.model.j_ay * v.v1, sc.model.j_k * v.v2)
                    want = [x.hex() for x in (*los_rates(st, platform.rates(t)), *v, *u)]
                else:
                    want = _law_row(sc, traj, row)
                assert [x.hex() for x in row[7:13]] == want, (platform, t)

    @pytest.mark.parametrize("inside", [False, True], ids=["at-threshold", "one-ulp-inside"])
    @pytest.mark.parametrize("x1", [1.2, 1.9], ids=["cos-positive", "cos-negative"])
    @pytest.mark.parametrize("controller", LINEARIZING_CONTROLLERS)
    def test_guard_band_edge_is_guard_cos(self, controller, x1, inside):
        # cos(x1) at exactly +-threshold lies outside the guard band (its
        # bounds are strict) and is neither clamped nor flagged; a
        # threshold one ulp wider clamps and flags it
        c = math.cos(x1)
        guard = GuardSpec(math.nextafter(abs(c), 1.0) if inside else abs(c))
        assert (guard_cos(c, guard) != c) is inside
        ref = ReferenceSpec(kind="sinusoid", amplitude=0.5, omega=2.0)
        sc = Scenario(
            controller=controller,
            duration=0.01,
            gains=ControlGains(6.0, 8.0, 9.0, 10.0),
            initial_state=GimbalState(x1, -0.6, -0.2, 0.1),
            platform=_ORACLE_PLATFORMS[0],
            ref_q=ref,
            ref_r=ref,
            guard=guard,
        )
        row = integrate(sc).data[0].tolist()
        traj = ZERO_TRAJECTORY if controller == "stabilize" else ref
        assert [x.hex() for x in row[7:13]] == _law_row(sc, traj, row)
        assert row[COLUMNS.index("guard_active")] == float(inside)

    @pytest.mark.parametrize("platform", _ORACLE_PLATFORMS, ids=["sinusoidal", "constant", "table"])
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_each_step_is_one_rk4_step_of_state_derivative(self, controller, platform):
        # row k+1's state is classical RK4 from row k, composed from
        # plant.state_derivative with row k's u + noise held over the
        # step and the platform at t, t + h/2 and t + h, bit for bit
        sc = _oracle_scenario(controller, platform, ReferenceSpec(kind="step", amplitude=0.3, t_on=0.2))
        rec = integrate(sc)
        assert rec.col("noise_y").any()
        if controller in ("stabilize", "rate-track", "los-track"):
            assert rec.guard_active.any() and not rec.guard_active.all()
        h, model = sc.step_size, sc.model
        half, sixth = 0.5 * h, h / 6.0
        rows = rec.data.tolist()
        for row, nxt in zip(rows, rows[1:]):
            t, x = row[0], GimbalState(*row[1:7])
            u, noise = TorqueCommand(row[11], row[12]), (row[14], row[15])
            body0, body_mid, body_end = (platform.rates(s) for s in (t, t + half, t + h))

            def f(state, body):
                return state_derivative(t, GimbalState(*state), u, body, model, noise)

            a = f(x, body0)
            b = f([xi + half * ai for xi, ai in zip(x, a)], body_mid)
            c = f([xi + half * bi for xi, bi in zip(x, b)], body_mid)
            d = f([xi + h * ci for xi, ci in zip(x, c)], body_end)
            want = [xi + sixth * (ai + 2.0 * (bi + ci) + di) for xi, ai, bi, ci, di in zip(x, a, b, c, d)]
            assert [v.hex() for v in nxt[1:7]] == [v.hex() for v in want], t

    @pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("controller", ["los-track", "pid"])
    def test_block_boundaries_do_not_show_in_the_trace(self, controller, rows):
        # a run of `rows` rows is the head of a longer run, bit for bit
        h = 1e-3
        long = Scenario(
            controller=controller,
            duration=(3 * _BLOCK + 10) * h,
            step_size=h,
            gains=ControlGains(8.0, 10.0, 6.0, 8.0),
            initial_state=GimbalState(0.2, 0.1, -0.3, 0.05),
            ref_q=ReferenceSpec(kind="sinusoid", amplitude=0.3, omega=1.5),
            ref_r=ReferenceSpec(kind="step", amplitude=0.2, t_on=(_BLOCK - 0.5) * h, t_off=0.6),
            noise=NoiseSpec(enabled=True, seed=11),
        )
        short = replace(long, duration=(rows - 1) * h)
        assert short.n_steps + 1 == rows
        head = integrate(long).data[:rows]
        assert integrate(short).data.tobytes() == head.tobytes()

    def test_integrate_samples_in_blocks_not_per_step(self, monkeypatch):
        # integrate must read time-only inputs through sample() and draw
        # the noise a block at a time; a fallback to per-step rates(),
        # value(), d1() or d2() calls, to trajectory(), or to
        # random.Random.gauss fails here
        class NoScalarPlatform(SinusoidalPlatform):
            def rates(self, t):
                raise AssertionError("integrate called rates() per step")

        def refuse(name):
            def call(self, *args):
                raise AssertionError(f"integrate called {name}()")

            return call

        class NoScalarReference(ReferenceSpec):
            value, d1, d2 = refuse("value"), refuse("d1"), refuse("d2")
            trajectory = refuse("trajectory")

        sin_ref = dict(kind="sinusoid", amplitude=0.4, omega=2.5)
        step_ref = dict(kind="step", amplitude=0.3, t_on=0.2, t_off=0.4)
        for controller in ("stabilize", "rate-track", "los-track", "pid", "open-loop"):
            plain = Scenario(
                controller=controller,
                duration=0.6,
                gains=ControlGains(6.0, 8.0, 9.0, 10.0),
                initial_state=GimbalState(0.1, 0.2, -0.1, 0.0),
                ref_q=ReferenceSpec(**sin_ref),
                ref_r=ReferenceSpec(**step_ref),
                noise=NoiseSpec(enabled=True),
            )
            guarded = replace(
                plain,
                platform=NoScalarPlatform(),
                ref_q=NoScalarReference(**sin_ref),
                ref_r=NoScalarReference(**step_ref),
            )
            want = integrate(plain).data.tobytes()
            with monkeypatch.context() as patch:
                patch.setattr(random.Random, "gauss", refuse("gauss"))
                assert integrate(guarded).data.tobytes() == want, controller

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        sigmas=st.lists(st.sampled_from([0.0, 0.002]) | st.floats(0.0, 1e3), min_size=2, max_size=2),
        lengths=st.lists(st.sampled_from([1, _BLOCK, _BLOCK + 1]), min_size=1, max_size=3),
    )
    def test_block_noise_is_the_per_step_gauss_pairs(self, seed, sigmas, lengths):
        # consecutive blocks from one generator give, bit for bit, the
        # pairs gauss(0.0, sigma_y), gauss(0.0, sigma_z) of every step
        sig_y, sig_z = sigmas
        rng, ref = random.Random(seed), random.Random(seed)
        for m in lengths:
            ny, nz = _gauss_pairs(rng, m, sig_y, sig_z)
            got = [(a.hex(), b.hex()) for a, b in zip(ny.tolist(), nz.tolist())]
            want = [(ref.gauss(0.0, sig_y).hex(), ref.gauss(0.0, sig_z).hex()) for _ in range(m)]
            assert got == want

    def test_guard_flag_recorded(self, rec_fig5):
        # the sinusoid scenario passes near gimbal lock once
        assert rec_fig5.guard_active.any()
        x1 = rec_fig5.col("x1")[rec_fig5.guard_active]
        assert np.all(np.abs(np.cos(x1)) < rec_fig5.scenario.guard.threshold)


class TestPresets:
    def test_names_and_descriptions(self):
        names = preset_names()
        assert "fig3-stab" in names and "fig5-sin-noise" in names
        assert len(names) == 7
        for n in names:
            assert preset_description(n)

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(UnknownPresetError, match="fig4-step"):
            preset("fig9-nope")

    def test_stabilization_gains_and_initial_rates(self):
        sc = preset("fig3-stab")
        assert (sc.gains.c1, sc.gains.c2) == (3.0, 4.0)
        assert sc.controller == "stabilize"
        assert sc.initial_state.x2 == 0.2 and sc.initial_state.x4 == 0.2
        assert not sc.noise.enabled

    def test_noise_preset_raises_gains(self):
        sc = preset("fig3-stab-noise")
        assert (sc.gains.c1, sc.gains.c2) == (20.0, 16.0)
        assert sc.noise.enabled

    def test_step_preset(self):
        sc = preset("fig4-step")
        assert (sc.gains.c1, sc.gains.c2, sc.gains.c3, sc.gains.c4) == (6.0, 8.0, 9.0, 10.0)
        assert sc.ref_q.kind == "step" and sc.ref_q.amplitude == pytest.approx(math.pi / 6)
        assert sc.ref_r.amplitude == pytest.approx(math.pi / 3)
        assert sc.ref_q.t_off - sc.ref_q.t_on == pytest.approx(20.0)
        assert preset("fig4-step-noise").noise.enabled

    def test_sinusoid_preset(self):
        sc = preset("fig5-sin")
        assert (sc.gains.c1, sc.gains.c2, sc.gains.c3, sc.gains.c4) == (8.0, 10.0, 6.0, 8.0)
        for ref in (sc.ref_q, sc.ref_r):
            assert ref.kind == "sinusoid"
            assert ref.amplitude == 1.0
            assert ref.omega == pytest.approx(math.pi / 25)

    def test_pid_preset_uses_same_references(self):
        sc = preset("fig4-step-pid")
        assert sc.controller == "pid"
        assert sc.ref_q == preset("fig4-step").ref_q


class TestAnalysisHelpers:
    def test_fit_decay_slope_on_synthetic_exponential(self):
        t = np.linspace(0.0, 10.0, 4001)
        e = 0.5 * np.exp(-2.0 * t)
        fit = fit_decay_slope(t, e, floor=1e-6)
        assert fit.slope == pytest.approx(-2.0, rel=1e-6)
        # window ends where 0.5 exp(-2t) crosses the 1e-6 floor
        assert fit.t_end == pytest.approx(math.log(0.5 / 1e-6) / 2.0, abs=0.01)

    def test_fit_window_stops_at_floor(self):
        t = np.linspace(0.0, 10.0, 1001)
        e = np.maximum(0.5 * np.exp(-2.0 * t), 2e-6)
        fit = fit_decay_slope(t, e, floor=3e-6)
        # window must end when the signal hits the floor region
        assert fit.t_end <= math.log(0.5 / 3e-6) / 2.0 + 0.1

    def test_fit_rejects_empty_window(self):
        with pytest.raises(ValueError):
            fit_decay_slope(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def test_settling_time(self):
        t = np.linspace(0.0, 10.0, 1001)
        y = 1.0 - np.exp(-t)
        ts = settling_time(t, y, 1.0, band=0.02)
        assert ts == pytest.approx(math.log(1 / 0.02), abs=0.02)

    def test_settling_never(self):
        t = np.linspace(0.0, 1.0, 101)
        assert settling_time(t, np.ones_like(t), 0.0, band=0.5) == math.inf

    def test_settling_immediately(self):
        t = np.linspace(0.0, 1.0, 101)
        assert settling_time(t, np.zeros_like(t), 0.0, band=0.5) == 0.0

    def test_rms_and_iae(self):
        t = np.array([0.0, 1.0, 2.0])
        e = np.array([1.0, -1.0, 1.0])
        assert rms(e) == 1.0
        assert integrated_abs_error(t, e) == pytest.approx(2.0)
        assert peak_abs_error(e) == 1.0
