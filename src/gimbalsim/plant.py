"""Open-loop dynamics of a symmetric two-axis gimbal.

State vector (see :class:`GimbalState`): pitch angle and rate, yaw angle
and rate, plus the integrated LOS elevation and azimuth angles. Inputs
are the pitch- and yaw-axis motor torques. Platform body rates enter as
known functions of time (rate-gyro measurements), so the state
derivative is a function of ``(t, x, u)`` once a motion profile is
fixed.

The model assumes a symmetric gimbal with no mass unbalance: products
of inertia vanish, the inner gimbal has equal x/z moments, and the
outer y moment equals the sum of the inner and outer x moments.
:class:`InertiaModel` rejects a design that violates them. Residual
design error can be represented as additive torque noise per channel
(:class:`NoiseSpec`); the realized draws are supplied by the simulation
loop, once per integrator macro-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import BodyRates, los_rates

__all__ = [
    "GimbalState",
    "TorqueCommand",
    "InertiaModel",
    "INERTIA_ENTRIES",
    "NoiseSpec",
    "default_model",
    "pitch_accel_drift",
    "yaw_accel_drift",
    "state_derivative",
]


class GimbalState(NamedTuple):
    """Augmented gimbal state.

    ``x1`` = ``nu2``, the pitch gimbal angle [rad], ``x2`` its rate [rad/s],
    ``x3`` = ``nu1``, the yaw gimbal angle [rad], ``x4`` its rate [rad/s],
    ``theta_q`` / ``theta_r`` the LOS elevation / azimuth angles [rad],
    defined as the time integrals of the LOS rates ``q_a`` / ``r_a``.
    Angles accumulate (no wrapping). The same tuple shape doubles as the
    state-derivative container.
    """

    x1: float
    x2: float
    x3: float
    x4: float
    theta_q: float = 0.0
    theta_r: float = 0.0


class TorqueCommand(NamedTuple):
    """Motor torques: ``u1`` about the pitch axis, ``u2`` about the yaw
    axis [N m]."""

    u1: float
    u2: float


_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 2))
# Each independent entry of InertiaModel's two matrices by name, as
# (matrix, row, column): ``pitch_xy`` is entry (0, 1) of ``pitch_gimbal``
# and its mirror image. A symmetric-design violation names its entries
# so, and the CLI's ``[inertia]`` config keys are these names.
INERTIA_ENTRIES = {
    f"{body}_{axes}": (f"{body}_gimbal", "xyz".index(axes[0]), "xyz".index(axes[1]))
    for body in ("pitch", "yaw")
    for axes in ("xx", "yy", "zz", "xy", "xz", "yz")
}


@dataclass(frozen=True, eq=False)
class InertiaModel:
    """Inertia matrices of the two gimbals plus the derived scalars.

    ``pitch_gimbal`` is the 3x3 inertia of the inner (pitch) gimbal,
    ``yaw_gimbal`` of the outer (yaw) gimbal, both in kg m^2. The pitch
    equation of motion uses ``j_ay`` (pitch-gimbal y moment); the yaw
    equation uses ``j_k`` (sum of both z moments, constant under the
    symmetric-design assumptions). Both are float attributes set at
    construction, not constructor arguments.

    Construction checks each matrix (3x3, finite, symmetric within
    1e-15, positive moments) and then the symmetric design within
    1e-12 kg m^2: all products of inertia vanish on both gimbals, the
    pitch gimbal has equal x and z moments, and the outer y moment
    equals the sum of the inner and outer x moments. A violation raises
    ValueError naming it and its entries (see ``INERTIA_ENTRIES``).
    """

    pitch_gimbal: np.ndarray
    yaw_gimbal: np.ndarray
    j_ay: float = field(init=False, repr=False)
    j_k: float = field(init=False, repr=False)

    def __post_init__(self):
        entries = []
        for name in ("pitch_gimbal", "yaw_gimbal"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3, got {m.shape}")
            e = m.tolist()
            if not all(math.isfinite(v) for row in e for v in row):
                raise ValueError(f"{name} has non-finite entries")
            if any(abs(e[i][j] - e[j][i]) > 1e-15 for i, j in _OFF_DIAGONAL):
                raise ValueError(f"{name} must be symmetric")
            if min(e[0][0], e[1][1], e[2][2]) <= 0.0:
                raise ValueError(f"{name} needs positive moments of inertia")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            entries.append(e)
        a, k = entries
        tol = 1e-12
        violations = []
        for (i, j), label in zip(_OFF_DIAGONAL, ("xy", "xz", "yz")):
            for body, e in (("pitch", a), ("yaw", k)):
                if abs(e[i][j]) > tol:
                    violations.append(
                        f"{body} product of inertia {label} = {e[i][j]:g} != 0 ({body}_{label})"
                    )
        if abs(a[0][0] - a[2][2]) > tol:
            violations.append(
                f"pitch x and z moments differ: {a[0][0]:g} != {a[2][2]:g} (pitch_xx, pitch_zz)"
            )
        if abs(k[0][0] + a[0][0] - k[1][1]) > tol:
            violations.append(
                "yaw y moment must equal yaw x + pitch x moments: "
                f"{k[1][1]:g} != {k[0][0]:g} + {a[0][0]:g} (yaw_yy, yaw_xx, pitch_xx)"
            )
        if violations:
            raise ValueError(
                "inertia model violates the symmetric-design assumptions: "
                + "; ".join(violations)
            )
        object.__setattr__(self, "j_ay", a[1][1])
        object.__setattr__(self, "j_k", k[2][2] + a[2][2])

    def __eq__(self, other):
        if not isinstance(other, InertiaModel):
            return NotImplemented
        return np.array_equal(self.pitch_gimbal, other.pitch_gimbal) and np.array_equal(
            self.yaw_gimbal, other.yaw_gimbal
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Additive torque-channel noise model.

    Zero-mean Gaussian torque with standard deviation ``sigma_y`` /
    ``sigma_z`` [N m] on the pitch / yaw channel, sampled once per
    integrator macro-step: step k's pair is the k-th pair
    ``gauss(0.0, sigma_y)``, ``gauss(0.0, sigma_z)`` of
    ``random.Random(seed)``, bit for bit, though ``sim.integrate``
    computes a block of pairs at a time from the generator's
    ``random()`` draws. Stands
    in for residual products-of-inertia design error and other
    mechanical noise. Defaults are implementation choices, not values
    from any reference design.
    """

    enabled: bool = False
    sigma_y: float = 0.002
    sigma_z: float = 0.002
    seed: int = 1234

    def __post_init__(self):
        for name in ("sigma_y", "sigma_z"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"noise {name} must be a finite value >= 0, got {v!r}")


def default_model() -> InertiaModel:
    """Inertia model used by the bundled presets (satisfies symmetry)."""
    return InertiaModel(
        pitch_gimbal=np.diag([0.003, 0.008, 0.003]),
        yaw_gimbal=np.diag([0.003, 0.006, 0.0003]),
    )


def _accel_drifts(state: GimbalState, body: BodyRates, j_ratio: float) -> tuple[float, float]:
    # pitch and yaw drifts from one sin/cos of x3; j_ratio = j_ay / j_k
    s3, c3 = math.sin(state.x3), math.cos(state.x3)
    p, q, x4 = body.p, body.q, state.x4
    return (
        body.p_dot * s3 + x4 * p * c3 - body.q_dot * c3 + x4 * q * s3,
        -body.r_dot - j_ratio * (p * c3 + q * s3) * (-p * s3 + q * c3 + state.x2),
    )


def pitch_accel_drift(t: float, state: GimbalState, body: BodyRates) -> float:
    """Platform-induced angular acceleration on the pitch rate channel.

    Time derivative of the body-rate contribution to the LOS elevation
    rate, i.e. of ``p sin(x3) - q cos(x3)`` along trajectories with
    ``x3_dot = x4``. Appears additively in the ``x2`` dynamics
    [rad/s^2].
    """
    return _accel_drifts(state, body, 1.0)[0]  # the pitch drift has no inertia ratio


def yaw_accel_drift(
    t: float, state: GimbalState, body: BodyRates, model: InertiaModel
) -> float:
    """Platform- and coupling-induced acceleration on the yaw rate channel.

    Combines the body yaw acceleration with the inertia cross-coupling
    between the yaw-frame x rate and the LOS elevation rate [rad/s^2].
    """
    return _accel_drifts(state, body, model.j_ay / model.j_k)[1]


def _rhs(
    x1: float, x2: float, x3: float, x4: float, u1: float, u2: float,
    p: float, q: float, r: float, p_dot: float, q_dot: float, r_dot: float,
    j_ay: float, j_k: float, j_ratio: float,
) -> tuple[float, float, float, float, float, float]:
    # state_derivative on 15 scalars (perfbench/tracing.py replays it by
    # name); u1/u2 already include any held noise torque. sim.integrate
    # writes the same arithmetic out for all four RK4 stages with the
    # same operand order; tests/test_sim.py checks each step against RK4
    # composed from state_derivative, and tests/test_golden.py pins the
    # traces.
    state, body = GimbalState(x1, x2, x3, x4), BodyRates(p, q, r, p_dot, q_dot, r_dot)
    pitch, yaw = _accel_drifts(state, body, j_ratio)
    return (x2, u1 / j_ay + pitch, x4, u2 / j_k + yaw, *los_rates(state, body))


def state_derivative(
    t: float,
    state: GimbalState,
    u: TorqueCommand,
    body: BodyRates,
    model: InertiaModel,
    noise_torque: tuple[float, float] = (0.0, 0.0),
) -> GimbalState:
    """Time derivative of the augmented gimbal state.

    ``noise_torque`` is the realized additive torque draw for this
    macro-step (held constant across integrator stages); pass the
    default for noise-free evaluation. Raises ValueError on non-finite
    inputs.
    """
    values = (*state, *u, *body, *noise_torque)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("state_derivative requires finite state/input values")
    j_ay, j_k = model.j_ay, model.j_k
    u1, u2 = u.u1 + noise_torque[0], u.u2 + noise_torque[1]
    return GimbalState(*_rhs(*state[:4], u1, u2, *body, j_ay, j_k, j_ay / j_k))
