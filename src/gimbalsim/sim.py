"""Deterministic closed-loop simulation of the gimbal.

A :class:`Scenario` bundles everything one run needs: duration and step
size, initial state, platform motion profile, controller selection with
gains, reference signals, noise and guard settings. ``integrate`` runs
classical fixed-step RK4 on the six-state augmented plant with the
control recomputed once per macro-step and held across the four stages
(zero-order hold); torque noise, when enabled, is one
``random.Random(seed).gauss`` pair per macro-step, held the same way
and drawn for a block of steps at a time. Identical scenarios
(including the noise seed) produce bit-identical traces.

``preset`` returns ready-made scenarios reproducing the bundled
stabilization and tracking studies. Analysis helpers (decay-slope fit,
settling time, RMS, integrated absolute error) operate on the recorded
traces.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
import os
import random
import struct
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .control import (
    ControlGains,
    GuardSpec,
    PidParams,
    ReferenceSpec,
    ZERO_TRAJECTORY,
)
from .kinematics import BodyRates
from .plant import (
    GimbalState,
    InertiaModel,
    NoiseSpec,
    default_model,
)

__all__ = [
    "COLUMNS",
    "CONTROLLERS",
    "LINEARIZING_CONTROLLERS",
    "MAX_STEPS",
    "SimulationDiverged",
    "UnknownPresetError",
    "PlatformProfile",
    "SinusoidalPlatform",
    "ConstantPlatform",
    "TablePlatform",
    "Scenario",
    "SimRecord",
    "integrate",
    "observe_blocks",
    "preset",
    "preset_names",
    "preset_description",
    "fit_decay_slope",
    "DecayFit",
    "settling_time",
    "rms",
    "integrated_abs_error",
    "peak_abs_error",
]

COLUMNS = (
    "t",
    "x1",
    "x2",
    "x3",
    "x4",
    "theta_q",
    "theta_r",
    "q_a",
    "r_a",
    "v1",
    "v2",
    "u1",
    "u2",
    "guard_active",
    "noise_y",
    "noise_z",
)

# the feedback-linearizing laws, which need ControlGains
LINEARIZING_CONTROLLERS = ("stabilize", "rate-track", "los-track")
CONTROLLERS = (*LINEARIZING_CONTROLLERS, "pid", "open-loop")

# Most steps a Scenario may take. integrate allocates the whole record up
# front: n + 1 rows of len(COLUMNS) float64 values, 1.28 GB at the bound.
MAX_STEPS = 10_000_000


class SimulationDiverged(RuntimeError):
    """A state component left the finite range during integration.

    ``record``, as :func:`integrate` raises it, is the trace up to the
    blow-up: a :class:`SimRecord` whose last row is the step from which
    the state left the finite range. ``t`` and ``state`` are that row's
    time and state.
    """

    def __init__(self, record: SimRecord):
        row = record.data[-1].tolist()
        self.record = record
        self.t = row[0]
        self.state = GimbalState(*row[1:7])
        super().__init__(
            f"state left the finite range in the step from t={self.t:.6g} at {self.state}"
        )


class UnknownPresetError(ValueError):
    def __init__(self, name: str):
        valid = ", ".join(preset_names())
        super().__init__(f"unknown preset {name!r}; valid presets: {valid}")


# ---------------------------------------------------------------------------
# Platform motion profiles


class PlatformProfile:
    """Base: supplies body rates and their exact time derivatives."""

    kind = "abstract"

    def __post_init__(self):  # runs for the dataclass subclasses
        for f in fields(self):
            v = getattr(self, f.name)
            bad = [x for x in (v if isinstance(v, tuple) else (v,)) if not math.isfinite(x)]
            if bad:
                raise ValueError(f"platform {f.name} must be finite, got {bad[0]!r}")

    def rates(self, t: float) -> BodyRates:
        raise NotImplementedError

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        """``p, q, r, p_dot, q_dot, r_dot`` at every time in ``ts``, as
        arrays; element ``i`` has the same bits as ``rates(ts[i])``."""
        raise NotImplementedError


@dataclass(frozen=True)
class SinusoidalPlatform(PlatformProfile):
    """Sinusoidal body rates per channel: A sin(omega t), with analytic
    derivatives. Defaults are the motion profile used by the presets."""

    amp_p: float = 0.1
    omega_p: float = math.pi / 15
    amp_q: float = 0.1
    omega_q: float = math.pi / 20
    amp_r: float = 0.2
    omega_r: float = math.pi / 15

    kind = "sinusoidal"

    def rates(self, t: float) -> BodyRates:
        return BodyRates(
            self.amp_p * math.sin(self.omega_p * t),
            self.amp_q * math.sin(self.omega_q * t),
            self.amp_r * math.sin(self.omega_r * t),
            self.amp_p * self.omega_p * math.cos(self.omega_p * t),
            self.amp_q * self.omega_q * math.cos(self.omega_q * t),
            self.amp_r * self.omega_r * math.cos(self.omega_r * t),
        )

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        chans = ((self.amp_p, self.omega_p), (self.amp_q, self.omega_q), (self.amp_r, self.omega_r))
        return tuple(a * np.sin(w * ts) for a, w in chans) + tuple(
            (a * w) * np.cos(w * ts) for a, w in chans
        )


@dataclass(frozen=True)
class ConstantPlatform(PlatformProfile):
    """Constant body rates (derivatives identically zero)."""

    p: float = 0.0
    q: float = 0.0
    r: float = 0.0

    kind = "constant"

    def rates(self, t: float) -> BodyRates:
        return BodyRates(self.p, self.q, self.r)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        zero = np.zeros(len(ts))
        return tuple(np.full(len(ts), v) for v in (self.p, self.q, self.r)) + (zero,) * 3


@dataclass(frozen=True)
class TablePlatform(PlatformProfile):
    """Piecewise-linear body rates from a time-indexed table.

    Rates interpolate linearly between breakpoints; the reported
    derivatives are the segment slopes (consistent with the
    interpolant). Outside the table range the end values hold with zero
    derivative.
    """

    times: tuple[float, ...]
    p: tuple[float, ...]
    q: tuple[float, ...]
    r: tuple[float, ...]

    kind = "custom-table"

    def __post_init__(self):
        n = len(self.times)
        if n < 2 or any(len(ch) != n for ch in (self.p, self.q, self.r)):
            raise ValueError("table needs >= 2 breakpoints with matching channel lengths")
        super().__post_init__()
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("table times must be strictly increasing")

    def rates(self, t: float) -> BodyRates:
        ts = self.times
        if t <= ts[0]:
            return BodyRates(self.p[0], self.q[0], self.r[0])
        if t >= ts[-1]:
            return BodyRates(self.p[-1], self.q[-1], self.r[-1])
        i = bisect_left(ts, t, 1)  # first breakpoint at or after t: O(log n)
        dt = ts[i] - ts[i - 1]
        w = (t - ts[i - 1]) / dt
        p, q, r = self.p, self.q, self.r
        dp, dq, dr = p[i] - p[i - 1], q[i] - q[i - 1], r[i] - r[i - 1]
        return BodyRates(
            p[i - 1] + w * dp, q[i - 1] + w * dq, r[i - 1] + w * dr, dp / dt, dq / dt, dr / dt
        )

    @cached_property
    def _table(self) -> np.ndarray:
        # times, p, q, r as one 4 x n array, built on the first sample()
        return np.array((self.times, self.p, self.q, self.r), dtype=float)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        # the arithmetic of rates(), one segment index per element
        times, *chans = self._table
        i = np.clip(np.searchsorted(times, ts, side="left"), 1, len(times) - 1)
        i[np.isnan(ts)] = 1  # bisect_left in rates() stops at 1; searchsorted sorts NaN last
        dt = times[i] - times[i - 1]
        w = (ts - times[i - 1]) / dt
        before, after = ts <= times[0], ts >= times[-1]
        held = before | after
        values, slopes = [], []
        for ch in chans:
            d = ch[i] - ch[i - 1]
            values.append(np.where(before, ch[0], np.where(after, ch[-1], ch[i - 1] + w * d)))
            slopes.append(np.where(held, 0.0, d / dt))
        return (*values, *slopes)


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    name: str = "custom"
    controller: str = "stabilize"
    duration: float = 60.0
    step_size: float = 1e-3
    initial_state: GimbalState = GimbalState(0.0, 0.0, 0.0, 0.0)
    platform: PlatformProfile = SinusoidalPlatform()
    model: InertiaModel = field(default_factory=default_model)
    gains: ControlGains | None = None
    ref_q: ReferenceSpec = ReferenceSpec()
    ref_r: ReferenceSpec = ReferenceSpec()
    noise: NoiseSpec = NoiseSpec()
    guard: GuardSpec = GuardSpec()
    pid: PidParams = PidParams()

    def __post_init__(self):
        # the name is the run's output directory under the output root,
        # and an INI value, which loses surrounding whitespace
        name = self.name
        if (
            not isinstance(name, str) or name in ("", ".", "..")
            or "/" in name or os.sep in name or "\x00" in name or name != name.strip()
        ):
            raise ValueError(
                "scenario name must be a file name without path separators or "
                f"surrounding whitespace, got {name!r}"
            )
        if self.controller not in CONTROLLERS:
            raise ValueError(
                f"unknown controller {self.controller!r}; valid: {', '.join(CONTROLLERS)}"
            )
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError("duration must be positive")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError("step_size must be positive")
        steps = self.duration / self.step_size
        if steps > MAX_STEPS + 0.5:  # n_steps rounds to more than MAX_STEPS
            raise ValueError(
                f"duration {self.duration:g} at step_size {self.step_size:g} is {steps:,.0f} "
                f"steps, more than MAX_STEPS = {MAX_STEPS:,}; the record would take "
                f"{(steps + 1) * 8 * len(COLUMNS):,.0f} bytes"
            )
        n = self.n_steps
        if n < 1 or abs(n * self.step_size - self.duration) > 1e-9 * max(1.0, self.duration):
            raise ValueError(
                f"duration {self.duration:g} must be a whole number of steps "
                f"of step_size {self.step_size:g}"
            )
        try:
            state = GimbalState._make(self.initial_state)
        except TypeError:  # not iterable, or not 6 values
            raise ValueError(
                f"initial_state must have the 6 fields {', '.join(GimbalState._fields)}, "
                f"got {self.initial_state!r}"
            ) from None
        object.__setattr__(self, "initial_state", state)
        for name, v in zip(GimbalState._fields, state):
            if not math.isfinite(v):
                raise ValueError(f"initial state {name} must be finite, got {v!r}")
        if self.controller in LINEARIZING_CONTROLLERS:
            if self.gains is None:
                raise ValueError(f"controller {self.controller!r} needs gains")
            if self.controller == "los-track":
                self.gains.require_full()
        if self.gains is not None:
            gmax = max(
                g for g in (self.gains.c1, self.gains.c2, self.gains.c3, self.gains.c4)
                if g is not None
            )
            if self.step_size * gmax > 0.1:
                # name the line that built the scenario: past __init__, and
                # past dataclasses.replace when that built it
                level, caller = 3, sys._getframe(2)
                while caller.f_globals.get("__name__") == "dataclasses":
                    level, caller = level + 1, caller.f_back
                warnings.warn(
                    f"step_size {self.step_size:g} is coarse for max gain {gmax:g}; "
                    "closed-loop time constant is poorly resolved",
                    stacklevel=level,
                )

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.step_size))


# ---------------------------------------------------------------------------
# Trace record


@dataclass
class SimRecord:
    """Per-step trace of a run: one row per macro-step, columns
    :data:`COLUMNS`. ``v``/``u``/noise in a row are the commands and
    draws computed at that row's state (held over the following step)."""

    data: np.ndarray
    scenario: Scenario

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self.data[:, COLUMNS.index(name)]

    @property
    def t(self) -> np.ndarray:
        return self.col("t")

    @property
    def q_a(self) -> np.ndarray:
        return self.col("q_a")

    @property
    def r_a(self) -> np.ndarray:
        return self.col("r_a")

    @property
    def theta_q(self) -> np.ndarray:
        return self.col("theta_q")

    @property
    def theta_r(self) -> np.ndarray:
        return self.col("theta_r")

    @property
    def guard_active(self) -> np.ndarray:
        return self.col("guard_active") != 0.0


# ---------------------------------------------------------------------------
# Integration


# Steps per block of state-independent inputs: platform rates,
# references and torque noise are computed with numpy for this many
# steps at a time, so memory stays flat however long the run.
_BLOCK = 256

# One row of the record and one step's inputs, as native doubles
_ROW = struct.Struct(f"{len(COLUMNS)}d")
_STEP_INPUTS = struct.Struct("27d")
_TWOPI = 2.0 * math.pi  # random.TWOPI

# The block observer of the current context; see observe_blocks.
_observer: contextvars.ContextVar[Callable[[np.ndarray, int], None] | None] = (
    contextvars.ContextVar("gimbalsim_block_observer", default=None)
)


@contextlib.contextmanager
def observe_blocks(observer: Callable[[np.ndarray, int], None]):
    """Within the ``with`` block, each :func:`integrate` call in this
    context calls ``observer(data, rows)`` after it stores a block of
    rows. ``data`` is the record's whole ``(n_steps + 1, len(COLUMNS))``
    array, of which rows ``0..rows`` are stored and final; the last
    call has ``rows == len(data)``. ``integrate`` reads the observer
    once per call and calls it between blocks, never inside the step
    loop; an exception the observer raises ends the integration.

    ``data`` is an anonymous shared ``mmap``, so a process the observer
    forks sees the rows stored after the fork: the CLI's trace writer
    formats them on a second core while the trace is integrated.
    """
    token = _observer.set(observer)
    try:
        yield
    finally:
        _observer.reset(token)


def _gauss_pairs(rng: random.Random, m: int, sig_y: float, sig_z: float):
    """The next ``m`` pairs ``rng.gauss(0.0, sig_y)``, ``rng.gauss(0.0,
    sig_z)`` would return, bit for bit, as two arrays.

    ``random.Random.gauss`` draws two uniforms ``u0, u1`` per pair and
    returns ``mu + (cos(u0 * TWOPI) * g) * sigma`` and then ``mu +
    (sin(u0 * TWOPI) * g) * sigma``, with ``g = sqrt(-2 log(1 - u1))``.
    ``log``, ``cos`` and ``sin`` come from ``math``, since numpy's differ
    from it in the last bit; the rest are exact IEEE operations, and
    ``0.0 +`` turns a ``-0.0`` into ``0.0`` as ``mu +`` does.
    """
    u = np.fromiter(iter(rng.random, None), float, 2 * m)  # count= ends the draws
    u0, u1 = u[0::2] * _TWOPI, u[1::2]
    g = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u1).tolist()), float, m))
    cos_u = np.fromiter(map(math.cos, u0.tolist()), float, m)
    sin_u = np.fromiter(map(math.sin, u0.tolist()), float, m)
    return 0.0 + (cos_u * g) * sig_y, 0.0 + (sin_u * g) * sig_z


def _time_samples(sc: Scenario, los: bool):
    """Yield, for each block of up to ``_BLOCK`` steps of ``sc``, an
    iterator over the block's steps. Each step ``k`` gives ``k`` and a
    tuple of 27 floats: ``t = k * h``, the platform rates at ``t``,
    ``t + h / 2`` and ``t + h`` (6 values each), the reference terms
    ``ff_q, ff_r, ref_q, ref_r, pos_q, pos_r`` and the torque noise
    ``ny, nz``, computed with numpy once per block and unpacked per step
    from the block's ``(m, 27)`` array.

    The laws differ only in their reference terms: the rate laws add
    d1 + c (value - rate), the LOS law d2 + c_rate (d1 - rate) +
    c_pos (value - angle); ``pos`` is the reference value. The noise
    is :func:`_gauss_pairs` of one generator seeded with the scenario's
    seed, or zeros when the noise is off.
    """
    n, h = sc.n_steps, sc.step_size
    half = 0.5 * h
    spec_q, spec_r = sc.ref_q, sc.ref_r
    if sc.controller == "stabilize":  # stabilization is rate tracking of zero
        spec_q = spec_r = ZERO_TRAJECTORY
    sample = sc.platform.sample
    noise = sc.noise
    rng = random.Random(noise.seed) if noise.enabled else None
    for k0 in range(0, n + 1, _BLOCK):
        ts = np.arange(k0, min(k0 + _BLOCK, n + 1), dtype=float) * h
        vq, d1q, d2q = spec_q.sample(ts)
        vr, d1r, d2r = spec_r.sample(ts)
        refs = (d2q, d2r, d1q, d1r) if los else (d1q, d1r, vq, vr)
        # the platform at t, t + h/2 and t + h, in one call. A step never
        # reuses the previous step's t + h as its t: k * h + h differs
        # from (k + 1) * h for about a third of all k.
        body = np.reshape(sample(np.concatenate((ts, ts + half, ts + h))), (6, 3, len(ts)))
        if rng is None:
            ny = nz = np.zeros(len(ts))
        else:
            ny, nz = _gauss_pairs(rng, len(ts), noise.sigma_y, noise.sigma_z)
        cols = (ts, *body[:, 0], *body[:, 1], *body[:, 2], *refs, vq, vr, ny, nz)
        yield zip(range(k0, n + 1), _STEP_INPUTS.iter_unpack(np.stack(cols, axis=1)))


def integrate(scenario: Scenario) -> SimRecord:
    """Run the scenario and return its trace.

    Classical RK4 at fixed step on the augmented six-state plant. The
    controller output and any noise draw are computed from the state at
    each macro-step and held constant across the stage evaluations.
    The platform rates, the references and the noise draws do not
    depend on the state; they come from :func:`_time_samples` in blocks
    of ``_BLOCK`` steps, at the times ``k * h``, ``t + h / 2`` and
    ``t + h`` a per-step call would use, so the trace has the same bits
    as one built from ``rates``, the references' ``value``/``d1``/``d2``
    and per-step ``random.Random(seed).gauss`` calls. Each step packs
    its row straight into the record's shared memory (see
    :func:`observe_blocks`); after each block the observer set there,
    if any, is called. The scenario's inputs were checked
    when it was built, so the only errors raised here are
    :class:`MemoryError` and :class:`SimulationDiverged`, when the state
    leaves the finite range; its ``record`` holds the rows up to the
    blow-up.
    """
    sc = scenario
    model = sc.model
    n = sc.n_steps
    h = sc.step_size
    j_ay, j_k = model.j_ay, model.j_k
    j_ratio = j_ay / j_k
    gthr = sc.guard.threshold
    try:  # a failed mapping is no file's error: raise what np.empty would
        mem = mmap.mmap(-1, (n + 1) * _ROW.size)
    except OSError as e:
        raise MemoryError(f"cannot allocate the record of {n + 1:,} rows: {e.strerror}") from e
    rec = np.ndarray((n + 1, len(COLUMNS)), buffer=mem)
    observe = _observer.get()
    pack, row_size = _ROW.pack_into, _ROW.size

    x1, x2, x3, x4, tq, tr = sc.initial_state

    kind, gains = sc.controller, sc.gains
    law = kind in LINEARIZING_CONTROLLERS
    los = kind == "los-track"
    if los:
        kq, kr, kpq, kpr = gains.c1, gains.c3, gains.c2, gains.c4
    elif law:
        kq, kr = gains.c1, gains.c2
    # control.pid_baseline's memory (PidState) as local floats; a step
    # k > 0 stands in for its primed flag
    pid = sc.pid
    kp_q, ki_q, kd_q, kp_r, ki_r, kd_r = pid.kp_q, pid.ki_q, pid.kd_q, pid.kp_r, pid.ki_r, pid.kd_r
    t_prev = int_q = int_r = prev_eq = prev_er = 0.0
    sin, cos, isfinite = math.sin, math.cos, math.isfinite

    half = 0.5 * h
    sixth = h / 6.0
    for steps in _time_samples(sc, los):
        for k, (
            t, p, q, r, p_dot, q_dot, r_dot,
            pm, qm, rm, pdm, qdm, rdm, pn, qn, rn, pdn, qdn, rdn,
            ff_q, ff_r, ref_q, ref_r, pos_q, pos_r, ny, nz,
        ) in steps:
            # One sin/cos of x1 and x3 per step. The lines below are
            # kinematics.los_rates, plant.pitch_accel_drift/yaw_accel_drift
            # and control.azimuth_drift with the same operand order, so the
            # trace is bit-identical to composing those functions.
            sx1, cx1 = sin(x1), cos(x1)
            sx3, cx3 = sin(x3), cos(x3)
            pc, qs = p * cx3, q * sx3
            q_a = -p * sx3 + q * cx3 + x2
            r_a = pc * sx1 + qs * sx1 + r * cx1 + x4 * cx1
            pq_cx3 = pc + qs
            f_pitch = p_dot * sx3 + x4 * p * cx3 - q_dot * cx3 + x4 * q * sx3
            f_yaw = -r_dot - j_ratio * pq_cx3 * q_a
            if law:
                f_az = (
                    (p_dot * cx3 - x4 * p * sx3 + q_dot * sx3 + x4 * q * cx3) * sx1
                    + pq_cx3 * x2 * cx1
                    - x2 * r * sx1
                    - x2 * x4 * sx1
                    + r_dot * cx1
                )
                # -elevation_drift == pitch drift exactly
                v1 = f_pitch + ff_q + kq * (ref_q - q_a)
                w2 = -f_az + ff_r + kr * (ref_r - r_a)
                if los:
                    v1 += kpq * (pos_q - tq)
                    w2 += kpr * (pos_r - tr)
                # control.guard_cos: a cosine strictly inside the band
                # (-0.0 included) divides as +-gthr, by its sign; NaN
                # passes through
                if -gthr < cx1 < gthr:
                    v2 = w2 / (gthr if cx1 > 0.0 else -gthr)
                    ga = 1.0
                else:
                    v2 = w2 / cx1
                    ga = 0.0
                u1 = j_ay * (v1 - f_pitch)
                u2 = j_k * (v2 - f_yaw)
            elif kind == "pid":
                # control.pid_baseline with the same operand order
                e_q, e_r = pos_q - tq, pos_r - tr
                if k and t > t_prev:
                    dt = t - t_prev
                    int_q = int_q + e_q * dt
                    int_r = int_r + e_r * dt
                    de_q = (e_q - prev_eq) / dt
                    de_r = (e_r - prev_er) / dt
                else:
                    de_q = de_r = 0.0
                v1 = kp_q * e_q + ki_q * int_q + kd_q * de_q
                v2 = kp_r * e_r + ki_r * int_r + kd_r * de_r
                t_prev, prev_eq, prev_er = t, e_q, e_r
                u1, u2, ga = j_ay * v1, j_k * v2, 0.0
            else:  # open-loop
                v1 = v2 = u1 = u2 = ga = 0.0
            pack(mem, k * row_size,
                 t, x1, x2, x3, x4, tq, tr, q_a, r_a, v1, v2, u1, u2, ga, ny, nz)
            if k == n:
                break

            # RK4 stages: plant._rhs at (x, u + noise, body), written out
            # with its operand order. The inputs' accelerations u / J are
            # the same for all four stages. Stage 1 reuses the step's
            # trig; stages 2-3 take the platform at t + h/2, stage 4 at
            # t + h. The shared LOS elevation rate terms are computed once
            # per stage, as q_a is above.
            acc1 = (u1 + ny) / j_ay
            acc2 = (u2 + nz) / j_k
            a1, a2, a3, a4, a5, a6 = x2, acc1 + f_pitch, x4, acc2 + f_yaw, q_a, r_a
            try:
                y1, b1, y3, b3 = x1 + half * a1, x2 + half * a2, x3 + half * a3, x4 + half * a4
                ss3, cc3 = sin(y3), cos(y3)
                ss1, cc1 = sin(y1), cos(y1)
                pc, qs = pm * cc3, qm * ss3
                b5 = -pm * ss3 + qm * cc3 + b1
                b2 = acc1 + (pdm * ss3 + b3 * pm * cc3 - qdm * cc3 + b3 * qm * ss3)
                b4 = acc2 + (-rdm - j_ratio * (pc + qs) * b5)
                b6 = pc * ss1 + qs * ss1 + rm * cc1 + b3 * cc1

                y1, c1, y3, c3 = x1 + half * b1, x2 + half * b2, x3 + half * b3, x4 + half * b4
                ss3, cc3 = sin(y3), cos(y3)
                ss1, cc1 = sin(y1), cos(y1)
                pc, qs = pm * cc3, qm * ss3
                c5 = -pm * ss3 + qm * cc3 + c1
                c2 = acc1 + (pdm * ss3 + c3 * pm * cc3 - qdm * cc3 + c3 * qm * ss3)
                c4 = acc2 + (-rdm - j_ratio * (pc + qs) * c5)
                c6 = pc * ss1 + qs * ss1 + rm * cc1 + c3 * cc1

                y1, d1, y3, d3 = x1 + h * c1, x2 + h * c2, x3 + h * c3, x4 + h * c4
                ss3, cc3 = sin(y3), cos(y3)
                ss1, cc1 = sin(y1), cos(y1)
                pc, qs = pn * cc3, qn * ss3
                d5 = -pn * ss3 + qn * cc3 + d1
                d2 = acc1 + (pdn * ss3 + d3 * pn * cc3 - qdn * cc3 + d3 * qn * ss3)
                d4 = acc2 + (-rdn - j_ratio * (pc + qs) * d5)
                d6 = pc * ss1 + qs * ss1 + rn * cc1 + d3 * cc1
            except (ValueError, OverflowError) as exc:
                # trig of an overflowed stage state; same root cause as the
                # post-step finiteness check
                raise SimulationDiverged(SimRecord(rec[:k + 1], sc)) from exc
            x1 += sixth * (a1 + 2.0 * (b1 + c1) + d1)
            x2 += sixth * (a2 + 2.0 * (b2 + c2) + d2)
            x3 += sixth * (a3 + 2.0 * (b3 + c3) + d3)
            x4 += sixth * (a4 + 2.0 * (b4 + c4) + d4)
            tq += sixth * (a5 + 2.0 * (b5 + c5) + d5)
            tr += sixth * (a6 + 2.0 * (b6 + c6) + d6)
            # a finite sum needs finite terms; a sum that overflows does not
            # by itself make the state non-finite
            if not isfinite(x1 + x2 + x3 + x4 + tq + tr) and not (
                isfinite(x1) and isfinite(x2) and isfinite(x3)
                and isfinite(x4) and isfinite(tq) and isfinite(tr)
            ):
                raise SimulationDiverged(SimRecord(rec[:k + 1], sc))
        if observe is not None:
            observe(rec, k + 1)

    return SimRecord(rec, sc)


# ---------------------------------------------------------------------------
# Presets

_STEP_ON, _STEP_OFF = 5.0, 25.0  # step window; epoch is a project choice
_SIN25 = ReferenceSpec(kind="sinusoid", amplitude=1.0, omega=math.pi / 25)

# Field groups the presets share; each preset adds its own fields.
_STAB = dict(controller="stabilize", initial_state=GimbalState(0.0, 0.2, 0.0, 0.2))
_STEP = dict(
    ref_q=ReferenceSpec(kind="step", amplitude=math.pi / 6, t_on=_STEP_ON, t_off=_STEP_OFF),
    ref_r=ReferenceSpec(kind="step", amplitude=math.pi / 3, t_on=_STEP_ON, t_off=_STEP_OFF),
)
_STEP_LOS = dict(_STEP, controller="los-track", gains=ControlGains(6.0, 8.0, 9.0, 10.0))
_SIN_LOS = dict(
    controller="los-track", gains=ControlGains(8.0, 10.0, 6.0, 8.0), ref_q=_SIN25, ref_r=_SIN25
)
_NOISE_ON = NoiseSpec(enabled=True)

# name -> (description, Scenario fields); this order is preset_names()
_PRESETS: dict[str, tuple[str, dict]] = {
    "fig3-stab": (
        "LOS rate stabilization from 0.2 rad/s initial rates, gains (3, 4)",
        dict(_STAB, gains=ControlGains(3.0, 4.0)),
    ),
    "fig3-stab-noise": (
        "stabilization with torque noise, raised gains (20, 16)",
        dict(_STAB, gains=ControlGains(20.0, 16.0), noise=_NOISE_ON),
    ),
    "fig4-step": (
        "LOS angle step tracking (pi/6 elevation, pi/3 azimuth, 20 s window), "
        "gains (6, 8, 9, 10)",
        _STEP_LOS,
    ),
    "fig4-step-noise": ("step tracking with torque noise", dict(_STEP_LOS, noise=_NOISE_ON)),
    "fig4-step-pid": (
        "step tracking with the PID baseline controller",
        dict(_STEP, controller="pid"),
    ),
    "fig5-sin": (
        "LOS angle sinusoid tracking, sin(pi t/25) both channels, gains (8, 10, 6, 8)",
        _SIN_LOS,
    ),
    "fig5-sin-noise": ("sinusoid tracking with torque noise", dict(_SIN_LOS, noise=_NOISE_ON)),
}


def _lookup(name: str) -> tuple[str, dict]:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(name) from None


def preset(name: str) -> Scenario:
    """The named bundled scenario, built afresh on each call; raises
    UnknownPresetError otherwise."""
    return Scenario(name=name, **_lookup(name)[1])


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_description(name: str) -> str:
    return _lookup(name)[0]


# ---------------------------------------------------------------------------
# Trace analysis


class DecayFit(NamedTuple):
    """Least-squares slope of log|e| vs t over the fitted window."""

    slope: float
    n_points: int
    t_end: float


def fit_decay_slope(
    t: np.ndarray,
    values: np.ndarray,
    floor: float = 1e-6,
    valid: np.ndarray | None = None,
) -> DecayFit:
    """Fit the exponential decay rate of ``|values|``.

    Uses the initial contiguous window in which ``|values| > floor``
    (and ``valid``, when given, holds); the fit stops at the first
    sample outside the window.
    """
    t = np.asarray(t, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    ok = v > floor
    if valid is not None:
        ok = ok & valid
    if not ok[0]:
        raise ValueError("first sample is already outside the fit window")
    bad = np.nonzero(~ok)[0]
    n = int(bad[0]) if bad.size else len(ok)
    if n < 2:
        raise ValueError("fit window has fewer than two samples")
    slope = np.polyfit(t[:n], np.log(v[:n]), 1)[0]
    return DecayFit(float(slope), n, float(t[n - 1]))


def settling_time(
    t: np.ndarray,
    y: np.ndarray,
    target: float,
    band: float,
    t_start: float = 0.0,
    t_end: float | None = None,
) -> float:
    """Time after ``t_start`` from which ``|y - target|`` stays within
    ``band`` up to ``t_end`` (inf if it never settles)."""
    t = np.asarray(t, dtype=float)
    sel = t >= t_start
    if t_end is not None:
        sel &= t <= t_end
    ts = t[sel]
    err = np.abs(np.asarray(y, dtype=float)[sel] - target)
    if ts.size == 0:
        raise ValueError("empty settling window")
    viol = np.nonzero(err > band)[0]
    if viol.size == 0:
        return 0.0
    last = viol[-1]
    if last == ts.size - 1:
        return math.inf
    return float(ts[last + 1] - t_start)


def rms(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(values * values)))


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def integrated_abs_error(t: np.ndarray, e: np.ndarray) -> float:
    """Trapezoidal integral of |e| over the trace."""
    return float(_trapezoid(np.abs(np.asarray(e, dtype=float)), np.asarray(t, dtype=float)))


def peak_abs_error(e: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(e, dtype=float))))
