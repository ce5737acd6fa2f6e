"""Two-axis gimbal LOS stabilization and tracking.

Library layout:

- :mod:`gimbalsim.kinematics` - frame transforms and angular-velocity
  algebra between body, yaw-gimbal and pitch-gimbal frames.
- :mod:`gimbalsim.plant` - inertia model (checked for the symmetric design),
  drift terms and the open-loop state derivative.
- :mod:`gimbalsim.control` - feedback-linearizing torque map, the
  stabilization / rate-tracking / LOS-tracking laws, the cos(x1)
  saturation guard and a PID baseline.
- :mod:`gimbalsim.sim` - scenarios, platform motion profiles, reference
  signals, the deterministic RK4 loop, presets and trace analysis.
- :mod:`gimbalsim.cli` - the ``gimbalsim`` command line front end.
"""

from .kinematics import (
    BODY_AT_REST,
    BodyRates,
    FrameRates,
    GimbalAngles,
    los_rates,
    pitch_rates,
    rot_body_to_yaw,
    rot_yaw_to_pitch,
    yaw_rates,
)
from .plant import (
    GimbalState,
    InertiaModel,
    NoiseSpec,
    TorqueCommand,
    default_model,
    pitch_accel_drift,
    state_derivative,
    yaw_accel_drift,
)
from .control import (
    ControlGains,
    DesiredTrajectory,
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
from .sim import (
    COLUMNS,
    CONTROLLERS,
    ConstantPlatform,
    DecayFit,
    ReferenceSpec,
    Scenario,
    SimRecord,
    SimulationDiverged,
    SinusoidalPlatform,
    TablePlatform,
    UnknownPresetError,
    fit_decay_slope,
    integrate,
    integrated_abs_error,
    peak_abs_error,
    preset,
    preset_description,
    preset_names,
    rms,
    settling_time,
)

__version__ = "0.1.0"
