"""Two-axis gimbal LOS stabilization and tracking.

Library layout:

- :mod:`gimbalsim.kinematics` - frame transforms and angular-velocity
  algebra between body, yaw-gimbal and pitch-gimbal frames.
- :mod:`gimbalsim.plant` - inertia model (checked for the symmetric design),
  drift terms and the open-loop state derivative.
- :mod:`gimbalsim.control` - reference signals, the feedback-linearizing
  torque map, the stabilization / rate-tracking / LOS-tracking laws, the
  cos(x1) saturation guard and a PID baseline.
- :mod:`gimbalsim.sim` - scenarios, platform motion profiles, the
  deterministic RK4 loop, presets and trace analysis.
- :mod:`gimbalsim.cli` - the ``gimbalsim`` command line front end.

The package re-exports the names in each library module's ``__all__``.
"""

from .kinematics import *
from .plant import *
from .control import *
from .sim import *

__version__ = "0.1.0"
