"""Feedback-linearizing control laws for LOS stabilization and tracking.

The plant's rate channels are double integrators once the drift terms
are cancelled: commanding virtual accelerations ``v = (v1, v2)`` and
mapping them to motor torques with :func:`torques_from_virtual` yields

    x2_dot = v1,   x4_dot = v2.

On top of that linear system, the LOS rates obey

    d/dt q_a = elevation_drift + v1
    d/dt r_a = azimuth_drift + v2 cos(x1)

so the laws below cancel the drifts and place first- or second-order
error dynamics on the LOS rates or angles. The ``cos(x1)`` divisor in
the yaw channel loses authority near pitch angles of +-90 deg; a
saturation guard keeps the divisor away from zero.

A conventional PID baseline on the LOS angle errors is included for
benchmarking; its default gains are implementation choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import BodyRates, los_rates
from .plant import GimbalState, InertiaModel, TorqueCommand, _accel_drifts, pitch_accel_drift

__all__ = [
    "ControlGains",
    "VirtualControl",
    "ReferenceSpec",
    "ZERO_TRAJECTORY",
    "GuardSpec",
    "guard_cos",
    "elevation_drift",
    "azimuth_drift",
    "torques_from_virtual",
    "virtual_from_torques",
    "rate_tracking_control",
    "los_tracking_control",
    "PidParams",
    "PidState",
    "pid_baseline",
]


@dataclass(frozen=True)
class ControlGains:
    """Positive decay-rate gains [1/s].

    ``c1, c2`` drive the elevation / azimuth rate errors (rate tracking
    and stabilization). LOS tracking additionally needs ``c3, c4``:
    the elevation angle error obeys e'' + c1 e' + c2 e = 0 and the
    azimuth angle error e'' + c3 e' + c4 e = 0.
    """

    c1: float
    c2: float
    c3: float | None = None
    c4: float | None = None

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            v = getattr(self, name)
            if v is None:
                continue
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gain {name} must be a positive real, got {v!r}")

    def require_full(self) -> None:
        missing = ", ".join(name for name in ("c3", "c4") if getattr(self, name) is None)
        if missing:
            raise ValueError(f"LOS tracking needs all four gains c1..c4, missing {missing}")


class VirtualControl(NamedTuple):
    """Commanded accelerations in the linearized system [rad/s^2]."""

    v1: float
    v2: float


@dataclass(frozen=True)
class ReferenceSpec:
    """A reference signal with its first two time derivatives: scalar
    ``value(t)``, ``d1(t)`` and ``d2(t)``, and ``sample(ts)`` on an
    array of times.

    Kinds: ``zero``; ``step`` (value ``amplitude`` on [t_on, t_off),
    zero outside, zero declared derivatives, the flat-segment values);
    ``sinusoid`` (A sin(omega t) with analytic derivatives). Rate laws
    use ``value``/``d1``, angle-tracking laws use all three.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    omega: float = 0.0
    t_on: float = 0.0
    t_off: float = math.inf

    def __post_init__(self):
        if self.kind not in ("zero", "step", "sinusoid"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        for name in ("amplitude", "omega", "t_on"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"reference {name} must be finite")
        if not self.t_off > self.t_on:  # also rejects a NaN t_off
            raise ValueError(
                f"reference t_off must be a number > t_on = {self.t_on!r}, got {self.t_off!r}"
            )

    def value(self, t: float) -> float:
        if self.kind == "step":
            return self.amplitude if self.t_on <= t < self.t_off else 0.0
        if self.kind == "sinusoid":
            return self.amplitude * math.sin(self.omega * t)
        return 0.0

    def d1(self, t: float) -> float:
        if self.kind == "sinusoid":
            return self.amplitude * self.omega * math.cos(self.omega * t)
        return 0.0

    def d2(self, t: float) -> float:
        if self.kind == "sinusoid":
            return -self.amplitude * self.omega * self.omega * math.sin(self.omega * t)
        return 0.0

    def trajectory(self) -> ReferenceSpec:
        # the scalar reference is the spec itself; perfbench/tracing.py
        # still reaches the laws' references through this call
        return self

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``value, d1, d2`` at every time in ``ts``, as arrays; element
        ``i`` has the same bits as ``value``, ``d1`` and ``d2`` at
        ``ts[i]``."""
        zero = np.zeros(len(ts))
        if self.kind == "zero":
            return zero, zero, zero
        if self.kind == "step":
            on = (self.t_on <= ts) & (ts < self.t_off)
            return np.where(on, self.amplitude, 0.0), zero, zero
        a, w = self.amplitude, self.omega
        return a * np.sin(w * ts), a * w * np.cos(w * ts), -a * w * w * np.sin(w * ts)


ZERO_TRAJECTORY = ReferenceSpec()


@dataclass(frozen=True)
class GuardSpec:
    """Saturation guard for the yaw-channel ``cos(x1)`` divisor.

    ``threshold`` in (0, 1): divisor magnitudes below it are clamped to
    the threshold, keeping the commanded acceleration finite near the
    gimbal-lock neighborhood.
    """

    threshold: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("guard threshold must lie in (0, 1)")


def guard_cos(c: float, spec: GuardSpec = GuardSpec()) -> float:
    """Clamp a cosine value away from zero.

    Values in (-threshold, 0] map to -threshold, values in
    (0, threshold) map to +threshold, anything else passes through.
    Exactly zero is pushed to the negative side.
    """
    thr = spec.threshold
    if -thr < c <= 0.0:
        return -thr
    if 0.0 < c < thr:
        return thr
    return c


def elevation_drift(t: float, state: GimbalState, body: BodyRates) -> float:
    """Drift of the LOS elevation rate: d/dt q_a minus the pitch
    acceleration ``x2_dot`` [rad/s^2].

    The exact negation of ``plant.pitch_accel_drift``: the elevation
    rate is ``x2`` plus the body-rate term whose derivative that
    function computes.
    """
    return -pitch_accel_drift(t, state, body)


def azimuth_drift(t: float, state: GimbalState, body: BodyRates) -> float:
    """Drift of the LOS azimuth rate: d/dt r_a minus ``x4_dot cos(x1)``
    [rad/s^2]."""
    s3, c3 = math.sin(state.x3), math.cos(state.x3)
    s1, c1 = math.sin(state.x1), math.cos(state.x1)
    x2, x4 = state.x2, state.x4
    return (
        (body.p_dot * c3 - x4 * body.p * s3 + body.q_dot * s3 + x4 * body.q * c3) * s1
        + (body.p * c3 + body.q * s3) * x2 * c1
        - x2 * body.r * s1
        - x2 * x4 * s1
        + body.r_dot * c1
    )


def torques_from_virtual(
    v: VirtualControl,
    t: float,
    state: GimbalState,
    body: BodyRates,
    model: InertiaModel,
) -> TorqueCommand:
    """Motor torques realizing the virtual accelerations.

    Cancels the plant drift terms and scales by the channel inertias, so
    the closed rate dynamics become ``x2_dot = v1`` and ``x4_dot = v2``.
    Inverse of :func:`virtual_from_torques`.
    """
    j_ay, j_k = model.j_ay, model.j_k
    pitch, yaw = _accel_drifts(state, body, j_ay / j_k)
    return TorqueCommand(j_ay * (v.v1 - pitch), j_k * (v.v2 - yaw))


def virtual_from_torques(
    u: TorqueCommand,
    t: float,
    state: GimbalState,
    body: BodyRates,
    model: InertiaModel,
) -> VirtualControl:
    """Virtual accelerations produced by given motor torques."""
    j_ay, j_k = model.j_ay, model.j_k
    pitch, yaw = _accel_drifts(state, body, j_ay / j_k)
    return VirtualControl(u.u1 / j_ay + pitch, u.u2 / j_k + yaw)


def _linearizing_law(
    t: float, state: GimbalState, body: BodyRates, guard: GuardSpec,
    kq: float, kr: float, ff_q: float, ff_r: float, ref_q: float, ref_r: float,
    pos: tuple[float, float] | None = None,
) -> VirtualControl:
    """The tracking laws' common form: cancel the drift, add the
    feedforward ``ff`` and feed back the LOS rate error ``ref - rate``
    at gain ``k``; ``pos`` is the LOS law's angle feedback
    ``k_pos (value - angle)`` per channel. The step kernel of
    ``sim.integrate`` writes the same arithmetic out."""
    q_a, r_a = los_rates(state, body)
    v1 = -elevation_drift(t, state, body) + ff_q + kq * (ref_q - q_a)
    w2 = -azimuth_drift(t, state, body) + ff_r + kr * (ref_r - r_a)
    if pos is not None:
        v1 += pos[0]
        w2 += pos[1]
    return VirtualControl(v1, w2 / guard_cos(math.cos(state.x1), guard))


def rate_tracking_control(
    t: float,
    state: GimbalState,
    body: BodyRates,
    gains: ControlGains,
    qa_des: ReferenceSpec,
    ra_des: ReferenceSpec,
    guard: GuardSpec = GuardSpec(),
) -> VirtualControl:
    """Drive the LOS rates to desired rate trajectories.

    Leaves first-order error dynamics e' + c e = 0 per channel, so each
    rate error decays exponentially at its gain. The yaw channel divides
    by the guarded ``cos(x1)``.
    """
    return _linearizing_law(
        t, state, body, guard, gains.c1, gains.c2,
        qa_des.d1(t), ra_des.d1(t), qa_des.value(t), ra_des.value(t),
    )


def los_tracking_control(
    t: float,
    state: GimbalState,
    body: BodyRates,
    gains: ControlGains,
    thq_des: ReferenceSpec,
    thr_des: ReferenceSpec,
    theta_q: float,
    theta_r: float,
    guard: GuardSpec = GuardSpec(),
) -> VirtualControl:
    """Drive the LOS elevation/azimuth angles to desired trajectories.

    The measured LOS rates stand in for the angle derivatives (exact by
    definition). Leaves second-order error dynamics
    e'' + c_rate e' + c_pos e = 0 per channel, gains (c1, c2) on
    elevation and (c3, c4) on azimuth.
    """
    gains.require_full()
    pos = (gains.c2 * (thq_des.value(t) - theta_q), gains.c4 * (thr_des.value(t) - theta_r))
    return _linearizing_law(
        t, state, body, guard, gains.c1, gains.c3,
        thq_des.d2(t), thr_des.d2(t), thq_des.d1(t), thr_des.d1(t), pos,
    )


@dataclass(frozen=True)
class PidParams:
    """Per-channel PID gains for the baseline angle controller.

    Defaults are tuning choices local to this project: a gentle
    response that settles the bundled step scenario in a few seconds
    with moderate overshoot.
    """

    kp_q: float = 2.0
    ki_q: float = 0.3
    kd_q: float = 3.5
    kp_r: float = 2.0
    ki_r: float = 0.3
    kd_r: float = 3.5

    def __post_init__(self):
        for name in ("kp_q", "ki_q", "kd_q", "kp_r", "ki_r", "kd_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"PID gain {name} must be finite")


@dataclass(frozen=True)
class PidState:
    """Integral/derivative memory of the PID baseline; passed in and
    returned so the law itself stays reentrant."""

    t_prev: float = 0.0
    int_q: float = 0.0
    int_r: float = 0.0
    prev_eq: float = 0.0
    prev_er: float = 0.0
    primed: bool = False


def pid_baseline(
    t: float,
    error_q: float,
    error_r: float,
    params: PidParams,
    state: PidState,
) -> tuple[VirtualControl, PidState]:
    """Proportional-integral-derivative law on the LOS angle errors.

    Output is interpreted as virtual acceleration per channel; the
    caller maps it to torques by plain inertia scaling (no drift
    cancellation, no divisor guard). The first call only primes the
    memory (no integral or derivative contribution).
    """
    if state.primed and t > state.t_prev:
        dt = t - state.t_prev
        int_q = state.int_q + error_q * dt
        int_r = state.int_r + error_r * dt
        de_q = (error_q - state.prev_eq) / dt
        de_r = (error_r - state.prev_er) / dt
    else:
        int_q, int_r = state.int_q, state.int_r
        de_q = de_r = 0.0
    v1 = params.kp_q * error_q + params.ki_q * int_q + params.kd_q * de_q
    v2 = params.kp_r * error_r + params.ki_r * int_r + params.kd_r * de_r
    new_state = PidState(
        t_prev=t,
        int_q=int_q,
        int_r=int_r,
        prev_eq=error_q,
        prev_er=error_r,
        primed=True,
    )
    return VirtualControl(v1, v2), new_state
