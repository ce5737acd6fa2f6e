"""Command line front end: run scenarios, verify library properties,
compare presets.

Subcommands:

- ``run``      integrate a preset or config-file scenario; writes
  ``trace.csv`` (one row per step, columns as in ``sim.COLUMNS``),
  ``scenario.resolved`` (the fully resolved scenario in config format)
  and, with ``--plots``, self-contained SVG line charts.
- ``verify``   randomized and simulation-based self checks with
  per-check margins; exits 0 iff all pass.
- ``compare``  run two presets and print settling / peak / integrated
  error per channel.
- ``presets``  list the bundled scenarios.

The default output root is ``$GIMBAL_OUT_DIR`` (falling back to
``./runs``), with one subdirectory per scenario name.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import functools
import io
import math
import os
import pickle
import random
import shutil
import signal
import sys
import threading
from dataclasses import replace
from html import escape
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_origin, get_type_hints

import numpy as np

from . import __version__
from .control import (
    ZERO_TRAJECTORY,
    ControlGains,
    GuardSpec,
    PidParams,
    ReferenceSpec,
    VirtualControl,
    azimuth_drift,
    elevation_drift,
    torques_from_virtual,
    virtual_from_torques,
)
from .kinematics import BodyRates, los_rates, yaw_rates
from .plant import (
    GimbalState,
    InertiaModel,
    NoiseSpec,
    TorqueCommand,
    default_model,
    pitch_accel_drift,
    yaw_accel_drift,
)
from .sim import (
    COLUMNS,
    ConstantPlatform,
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
    settling_time,
)

TRACE_FILENAME = "trace.csv"
RESOLVED_FILENAME = "scenario.resolved"

# controllers whose references are LOS angle targets
ANGLE_TRACKING = ("los-track", "pid")


# ---------------------------------------------------------------------------
# Trace CSV


def _fmt(x: float) -> str:
    return format(x, ".17g")


# Rows formatted per ``%`` operation. Larger blocks save little time but
# hold more strings at once: writing a 60 s trace raises peak RSS by
# about 19 MB with 16384-row blocks, by about 1 MB with 1024.
CSV_BLOCK_ROWS = 1024
# Rows from which ``write_trace_csv`` forks a formatting helper; more
# than one block, so that both processes get rows. With the second core
# free, the fork (about 5 ms) breaks even near 1,500 rows on a 2-vCPU
# VM and wins in 18-24 of 25 alternating writes at 2,048 rows, in 20-25
# of 25 from 4,096 rows on.
CSV_FORK_MIN_ROWS = 4 * CSV_BLOCK_ROWS


def _csv_blocks(data: np.ndarray):
    """Yield the CSV rows of ``data`` as ASCII bytes, one block of
    ``CSV_BLOCK_ROWS`` rows at a time.

    ``"%.17g" % x`` gives the same bytes as ``format(x, ".17g")`` for
    every float64, so a block is one ``%`` operation.
    """
    row = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
    full_block = row * CSV_BLOCK_ROWS
    for start in range(0, len(data), CSV_BLOCK_ROWS):
        block = data[start : start + CSV_BLOCK_ROWS]
        template = full_block if len(block) == CSV_BLOCK_ROWS else row * len(block)
        yield (template % tuple(block.ravel().tolist())).encode("ascii")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_helper(produce: Callable[[], bytes]) -> tuple[int, int] | None:
    """Fork a helper process that writes the bytes ``produce()`` returns
    to a pipe. Returns its pid and the pipe's read end, to be passed to
    :func:`_joined`, or None if this process has to call ``produce``
    itself: it cannot fork, it may run on one CPU only (the helper would
    only add the fork's cost), or it runs other Python threads, one of
    which a forked child could find holding a lock.

    Native threads that Python does not know of, such as numpy's BLAS
    pool, do not stop the fork: ``produce`` must call no BLAS routine
    (the CSV formatter calls ``tolist``, ``%`` and ``encode``, the
    roundtrip suite scalar arithmetic), and glibc's malloc resets its
    locks in the child of a ``fork``. A forked helper reads its inputs
    from the copied address space; a spawned one would import numpy
    again and get them pickled.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1 or _usable_cpus() < 2:
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # The helper leaves only through os._exit: an exception must not
        # run the parent's code (exit handlers, buffered output, a test
        # runner) a second time. It produces everything before writing,
        # because the parent reads the pipe only after its own part.
        code = 1
        try:
            os.close(r)
            data = produce()
            with open(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


@contextlib.contextmanager
def _joined(helper: tuple[int, int], what: str, filename: str | None = None):
    """Yield a helper's pipe as a binary file, then reap the helper. Any
    exception in the block, an interrupt too, kills and reaps it first;
    a non-zero exit raises OSError (EIO) naming ``what`` and ``filename``."""
    pid, r = helper
    with open(r, "rb") as pipe:
        try:
            yield pipe
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitpid(pid, 0)[1]
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        raise OSError(errno.EIO, f"{what} exited with status {code}", filename)


def write_trace_csv(record: SimRecord, path: Path | str) -> None:
    """Write the trace with a header row, 17 significant digits per
    value (lossless for float64), '.' decimal separator, newline
    terminated.

    A trace of at least ``CSV_FORK_MIN_ROWS`` rows is formatted on two
    cores: a forked helper formats the rows from the block boundary at
    or above the middle on while this process formats the rows before
    it. The helper, which starts later, gets the smaller part. The
    bytes do not depend on the split. Raises OSError naming ``path`` if
    the helper fails.
    """
    data = record.data
    mid = -(-len(data) // (2 * CSV_BLOCK_ROWS)) * CSV_BLOCK_ROWS
    with open(path, "wb") as f:
        f.write((",".join(COLUMNS) + "\n").encode("ascii"))
        f.flush()  # a forked helper must not inherit buffered bytes
        helper = None
        if len(data) >= CSV_FORK_MIN_ROWS:
            helper = _fork_helper(lambda: b"".join(_csv_blocks(data[mid:])))
        if helper is None:
            f.writelines(_csv_blocks(data))
            return
        with _joined(helper, "formatting helper", str(path)) as pipe:
            f.writelines(_csv_blocks(data[:mid]))
            shutil.copyfileobj(pipe, f, 1 << 16)


def read_trace_csv(path: Path | str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a trace written by :func:`write_trace_csv`; exact inverse.

    Returns the header and a ``(rows, len(header))`` array. A ragged
    row or a non-numeric cell raises ValueError.
    """
    with open(path) as f:
        line = f.readline()
        if not line:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = tuple(line.rstrip("\n").split(","))
        body, line = f.tell(), f.readline()
        while line.isspace():
            body, line = f.tell(), f.readline()
        if not line:  # header only; np.loadtxt warns on empty input
            return header, np.empty((0, len(header)))
        f.seek(body)
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} cells, header has {len(header)}")
    return header, data


# ---------------------------------------------------------------------------
# Scenario <-> config text (flat INI sections)


# The codec is generated from the field lists of the scenario's record
# types, so the keys written, parsed and accepted have one source.
_SCENARIO_KEYS = ("name", "controller", "duration", "step_size")
_PLATFORMS = {cls.kind: cls for cls in (SinusoidalPlatform, ConstantPlatform, TablePlatform)}
# [inertia] key -> (InertiaModel matrix, row, column); each key sets the
# entry and its mirror image.
_INERTIA = {
    f"{body}_{axes}": (matrix, "xyz".index(axes[0]), "xyz".index(axes[1]))
    for body, matrix in (("pitch", "pitch_gimbal"), ("yaw", "yaw_gimbal"))
    for axes in ("xx", "yy", "zz", "xy", "xz", "yz")
}
# section -> (Scenario field, record type whose fields are the keys)
_RECORDS = {
    "initial": ("initial_state", GimbalState),
    "gains": ("gains", ControlGains),
    "reference_q": ("ref_q", ReferenceSpec),
    "reference_r": ("ref_r", ReferenceSpec),
    "noise": ("noise", NoiseSpec),
    "guard": ("guard", GuardSpec),
    "pid": ("pid", PidParams),
}
_SECTIONS = ("scenario", "platform", "inertia", *_RECORDS)
_hints = functools.cache(get_type_hints)  # field name -> type, per record type


def _ini_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, bool):
        return str(v).lower()
    return _fmt(v) if isinstance(v, float) else str(v)


def _ini_items(obj, keys) -> dict[str, str]:
    return {k: _ini_value(getattr(obj, k)) for k in keys if getattr(obj, k) is not None}


def scenario_to_ini(sc: Scenario) -> str:
    plat = sc.platform
    if _PLATFORMS.get(plat.kind) is not type(plat):
        raise ValueError(f"cannot serialize platform {type(plat).__name__}")
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = _ini_items(sc, _SCENARIO_KEYS)
    cp["platform"] = {"kind": plat.kind, **_ini_items(plat, _hints(type(plat)))}
    cp["inertia"] = {
        key: _fmt(getattr(sc.model, matrix)[i, j]) for key, (matrix, i, j) in _INERTIA.items()
    }
    for section, (attr, cls) in _RECORDS.items():
        if getattr(sc, attr) is not None:
            cp[section] = _ini_items(getattr(sc, attr), _hints(cls))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _ini_parse(hint, raw: str):
    if hint is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ValueError(f"not a boolean: {raw!r}")
        return states[raw.lower()]
    if hint is int or hint is str:
        return hint(raw)
    if get_origin(hint) is tuple:
        return _floats(raw)
    return float(raw)


def _ini_record(cp: configparser.ConfigParser, section: str, hints: dict) -> dict:
    """Parse ``section`` by the types in ``hints``; a key with no hint is
    an error naming the section and the key."""
    values = {}
    for key, raw in cp[section].items():
        if key not in hints:
            raise ValueError(
                f"unknown key {key!r} in section [{section}]; valid: {', '.join(hints)}"
            )
        try:
            values[key] = _ini_parse(hints[key], raw)
        except ValueError as e:
            raise ValueError(f"[{section}] {key}: {e}") from None
    return values


def _ini_build(section: str, cls, values: dict):
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:  # a required key is missing, or a bad value
        raise ValueError(f"[{section}] {e}") from None


def scenario_from_ini(text: str) -> Scenario:
    """Parse a scenario in the format of :func:`scenario_to_ini`.

    Absent sections and keys keep the values of
    ``Scenario(controller="open-loop")``; ``[gains]`` needs ``c1`` and
    ``c2``, a ``custom-table`` platform all four of its channels. An
    unknown section or key raises ValueError naming it.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}]; valid: {', '.join(_SECTIONS)}")
    base = Scenario(controller="open-loop")
    changes = {}
    if cp.has_section("scenario"):
        hints = _hints(Scenario)
        changes.update(_ini_record(cp, "scenario", {k: hints[k] for k in _SCENARIO_KEYS}))
    if cp.has_section("platform"):
        kind = cp["platform"].get("kind", base.platform.kind)
        if kind not in _PLATFORMS:
            raise ValueError(f"unknown platform kind {kind!r}; valid: {', '.join(_PLATFORMS)}")
        cls = _PLATFORMS[kind]
        values = _ini_record(cp, "platform", {"kind": str, **_hints(cls)})
        values.pop("kind", None)
        changes["platform"] = _ini_build("platform", cls, values)
    if cp.has_section("inertia"):
        values = _ini_record(cp, "inertia", dict.fromkeys(_INERTIA, float))
        matrices = {m: getattr(base.model, m).copy() for m in ("pitch_gimbal", "yaw_gimbal")}
        for key, v in values.items():
            matrix, i, j = _INERTIA[key]
            matrices[matrix][i, j] = matrices[matrix][j, i] = v
        changes["model"] = _ini_build("inertia", InertiaModel, matrices)
    for section, (attr, cls) in _RECORDS.items():
        if cp.has_section(section):
            hints = _hints(cls)
            current = getattr(base, attr)
            values = {} if current is None else {k: getattr(current, k) for k in hints}
            values.update(_ini_record(cp, section, hints))
            changes[attr] = _ini_build(section, cls, values)
    return replace(base, **changes)


# ---------------------------------------------------------------------------
# SVG line charts (no plotting dependency)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
_TICKS_PER_AXIS = 6  # about how many ticks _nice_ticks places


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS_PER_AXIS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def write_svg_chart(
    path: Path | str,
    title: str,
    xlabel: str,
    ylabel: str,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    dashed: Sequence[str] = (),
) -> None:
    """Write a time-series line chart as a standalone SVG file.

    ``series`` is a sequence of (label, x, y); labels listed in
    ``dashed`` render with a dash pattern (used for references).
    """
    width, height = 880, 520
    ml, mr, mt, mb = 72, 24, 44, 56
    pw, ph = width - ml - mr, height - mt - mb

    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return mt + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">'
        f"{escape(title)}</text>",
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for tx in _nice_ticks(x0, x1):
        X = px(tx)
        out.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" y2="{mt + ph + 5}" stroke="#444"/>')
        out.append(f'<line x1="{X:.1f}" y1="{mt}" x2="{X:.1f}" y2="{mt + ph}" stroke="#ddd"/>')
        out.append(
            f'<text x="{X:.1f}" y="{mt + ph + 20}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _nice_ticks(y0, y1):
        Y = py(ty)
        out.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#444"/>')
        out.append(f'<line x1="{ml}" y1="{Y:.1f}" x2="{ml + pw}" y2="{Y:.1f}" stroke="#ddd"/>')
        out.append(
            f'<text x="{ml - 9}" y="{Y + 4:.1f}" text-anchor="end">{ty:g}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 14}" text-anchor="middle">'
        f"{escape(xlabel)}</text>"
    )
    out.append(
        f'<text x="20" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {mt + ph / 2:.0f})">{escape(ylabel)}</text>'
    )
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        stride = max(1, len(x) // 2000)
        pts = " ".join(
            f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[::stride], y[::stride])
        )
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7 5"' if label in dashed else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} points="{pts}"/>'
        )
        lx, lyy = ml + pw - 150, mt + 18 + 18 * i
        out.append(
            f'<line x1="{lx}" y1="{lyy - 4}" x2="{lx + 26}" y2="{lyy - 4}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        out.append(f'<text x="{lx + 32}" y="{lyy}">{escape(label)}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def emit_plots(record: SimRecord, outdir: Path) -> list[Path]:
    """Write the standard set of charts for a run."""
    sc = record.scenario
    t = record.t
    stride = max(1, record.n_rows // 4000)
    ts = t[::stride]
    body = sc.platform.sample(ts)
    paths = []

    def emit(name, title, ylabel, series, dashed=()):
        p = outdir / name
        write_svg_chart(p, title, "time [s]", ylabel, series, dashed)
        paths.append(p)

    emit(
        "platform.svg",
        "platform body rates",
        "rate [rad/s]",
        [
            ("p", ts, body[0]),
            ("q", ts, body[1]),
            ("r", ts, body[2]),
        ],
    )
    emit(
        "rates.svg",
        f"LOS rates ({sc.name})",
        "rate [rad/s]",
        [("q_a", t, record.q_a), ("r_a", t, record.r_a)],
    )
    angle_series = [
        ("theta_q", t, record.theta_q),
        ("theta_r", t, record.theta_r),
    ]
    dashed = []
    if sc.controller in ANGLE_TRACKING:
        angle_series.append(("theta_q ref", ts, sc.ref_q.sample(ts)[0]))
        angle_series.append(("theta_r ref", ts, sc.ref_r.sample(ts)[0]))
        dashed = ["theta_q ref", "theta_r ref"]
    emit("los_angles.svg", f"LOS angles ({sc.name})", "angle [rad]", angle_series, dashed)
    emit(
        "torques.svg",
        f"motor torques ({sc.name})",
        "torque [N m]",
        [("u1", t, record.col("u1")), ("u2", t, record.col("u2"))],
    )
    return paths


# ---------------------------------------------------------------------------
# Verification suites


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


# round-trip samples and seed; oracle trajectories, central-difference
# step [s], tolerance and seed
ROUNDTRIP_SAMPLES, ROUNDTRIP_SEED = 10_000, 20240
ORACLE_TRAJECTORIES, ORACLE_FD_STEP, ORACLE_TOL, ORACLE_SEED = 10, 1e-5, 1e-5, 77


def _random_symmetric_model(rng: random.Random) -> InertiaModel:
    ax = rng.uniform(1e-3, 2e-2)
    ay = rng.uniform(1e-3, 2e-2)
    kx = rng.uniform(1e-3, 2e-2)
    kz = rng.uniform(1e-4, 2e-2)
    return InertiaModel(
        pitch_gimbal=np.diag([ax, ay, ax]),
        yaw_gimbal=np.diag([kx, kx + ax, kz]),
    )


def _random_state(rng: random.Random) -> GimbalState:
    return GimbalState(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    )


def _random_body(rng: random.Random) -> BodyRates:
    return BodyRates(*(rng.uniform(-1.0, 1.0) for _ in range(6)))


def verify_roundtrip() -> CheckResult:
    """Randomized check that the torque <-> virtual-acceleration maps
    are mutual inverses to better than 1e-12."""
    rng = random.Random(ROUNDTRIP_SEED)
    worst = 0.0
    for _ in range(ROUNDTRIP_SAMPLES):
        t = rng.uniform(0.0, 60.0)
        st = _random_state(rng)
        body = _random_body(rng)
        model = _random_symmetric_model(rng)
        v = VirtualControl(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        u = TorqueCommand(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        v2 = virtual_from_torques(torques_from_virtual(v, t, st, body, model), t, st, body, model)
        u2 = torques_from_virtual(virtual_from_torques(u, t, st, body, model), t, st, body, model)
        worst = max(
            worst,
            abs(v2.v1 - v.v1),
            abs(v2.v2 - v.v2),
            abs(u2.u1 - u.u1),
            abs(u2.u2 - u.u2),
        )
    return CheckResult(
        "roundtrip",
        worst < 1e-12,
        f"max round-trip error {worst:.3e} over {ROUNDTRIP_SAMPLES} samples (tol 1e-12)",
    )


def verify_decay() -> list[CheckResult]:
    """Fit the stabilization preset's LOS rate decay against the gains."""
    sc = preset("fig3-stab")
    rec = integrate(sc)
    ok_guard = ~rec.guard_active
    results = []
    for channel, gain in (("q_a", sc.gains.c1), ("r_a", sc.gains.c2)):
        fit = fit_decay_slope(rec.t, rec.col(channel), floor=1e-6, valid=ok_guard)
        rel = abs(fit.slope + gain) / gain
        results.append(
            CheckResult(
                f"decay {channel}",
                rel <= 0.02,
                f"fitted slope {fit.slope:+.4f} vs -{gain:g} "
                f"({rel * 100:.2f}% off, tol 2%, {fit.n_points} pts to t={fit.t_end:.2f}s)",
            )
        )
    return results


class _SmoothSignal:
    """offset + drift*t + amp*sin(freq*t + phase), with derivatives."""

    def __init__(self, rng: random.Random, scale: float = 1.0):
        self.c0 = rng.uniform(-1.0, 1.0) * scale
        self.c1 = rng.uniform(-0.3, 0.3) * scale
        self.a = rng.uniform(-1.0, 1.0) * scale
        self.w = rng.uniform(0.3, 2.5)
        self.ph = rng.uniform(0.0, 2.0 * math.pi)

    def value(self, t: float) -> float:
        return self.c0 + self.c1 * t + self.a * math.sin(self.w * t + self.ph)

    def d1(self, t: float) -> float:
        return self.c1 + self.a * self.w * math.cos(self.w * t + self.ph)


class _SyntheticPath:
    """Analytic state/body trajectory for derivative oracles."""

    def __init__(self, rng: random.Random):
        self.sig_x1 = _SmoothSignal(rng)
        self.sig_x3 = _SmoothSignal(rng)
        self.sig_p = _SmoothSignal(rng, 0.5)
        self.sig_q = _SmoothSignal(rng, 0.5)
        self.sig_r = _SmoothSignal(rng, 0.5)

    def state(self, t: float) -> GimbalState:
        return GimbalState(
            self.sig_x1.value(t),
            self.sig_x1.d1(t),
            self.sig_x3.value(t),
            self.sig_x3.d1(t),
        )

    def body(self, t: float) -> BodyRates:
        return BodyRates(
            self.sig_p.value(t),
            self.sig_q.value(t),
            self.sig_r.value(t),
            self.sig_p.d1(t),
            self.sig_q.d1(t),
            self.sig_r.d1(t),
        )

    def x4_dot(self, t: float) -> float:
        s = self.sig_x3
        return -s.a * s.w * s.w * math.sin(s.w * t + s.ph)


def _central_diff(f: Callable[[float], float], t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def verify_oracle() -> list[CheckResult]:
    """Independent checks of the drift terms.

    The pitch/elevation pair must cancel exactly. Each drift term is
    compared against a central finite difference of the quantity it is
    the analytic derivative of, along random smooth synthetic
    trajectories.
    """
    rng = random.Random(ORACLE_SEED)
    worst_id = 0.0
    for _ in range(2000):
        st = _random_state(rng)
        body = _random_body(rng)
        t = rng.uniform(0.0, 10.0)
        worst_id = max(
            worst_id, abs(pitch_accel_drift(t, st, body) + elevation_drift(t, st, body))
        )
    results = [
        CheckResult(
            "oracle drift identity",
            worst_id == 0.0,
            f"max |pitch_accel_drift + elevation_drift| = {worst_id:.3e} (must be exactly 0)",
        )
    ]

    model = default_model()
    ratio = model.j_ay / model.j_k
    worst = {"pitch_accel_drift": 0.0, "yaw_accel_drift": 0.0,
             "elevation_drift": 0.0, "azimuth_drift": 0.0}
    for _ in range(ORACLE_TRAJECTORIES):
        path = _SyntheticPath(rng)
        for _ in range(8):
            t = rng.uniform(1.0, 9.0)
            st = path.state(t)
            body = path.body(t)

            def qk_term(tt: float) -> float:
                s = path.state(tt)
                b = path.body(tt)
                return b.p * math.sin(s.x3) - b.q * math.cos(s.x3)

            fd = _central_diff(qk_term, t, ORACLE_FD_STEP)
            worst["pitch_accel_drift"] = max(
                worst["pitch_accel_drift"], abs(pitch_accel_drift(t, st, body) - fd)
            )
            worst["elevation_drift"] = max(
                worst["elevation_drift"], abs(elevation_drift(t, st, body) + fd)
            )

            r_dot_fd = _central_diff(lambda tt: path.body(tt).r, t, ORACLE_FD_STEP)
            yaw = yaw_rates(st, body)
            q_a, _ = los_rates(st, body)
            f2_fd = -r_dot_fd - ratio * yaw.about_x * q_a
            worst["yaw_accel_drift"] = max(
                worst["yaw_accel_drift"],
                abs(yaw_accel_drift(t, st, body, model) - f2_fd),
            )

            def azimuth_rate(tt: float) -> float:
                return los_rates(path.state(tt), path.body(tt))[1]

            g2_fd = _central_diff(azimuth_rate, t, ORACLE_FD_STEP) - path.x4_dot(t) * math.cos(st.x1)
            worst["azimuth_drift"] = max(
                worst["azimuth_drift"], abs(azimuth_drift(t, st, body) - g2_fd)
            )
    for name, err in worst.items():
        results.append(
            CheckResult(
                f"oracle {name} finite-difference",
                err < ORACLE_TOL,
                f"max deviation {err:.3e} (tol {ORACLE_TOL:g}, step {ORACLE_FD_STEP:g}, "
                f"{ORACLE_TRAJECTORIES} trajectories)",
            )
        )
    return results


def run_verify_suite(suite: str) -> list[CheckResult]:
    if suite in ("roundtrip", "lemma1"):
        return [verify_roundtrip()]
    if suite == "decay":
        return verify_decay()
    if suite == "oracle":
        return verify_oracle()
    if suite == "all":
        # The roundtrip suite runs in a forked helper beside decay and
        # oracle; its result comes back pickled by our own child.
        helper = _fork_helper(lambda: pickle.dumps(verify_roundtrip()))
        if helper is None:
            return [verify_roundtrip(), *verify_decay(), *verify_oracle()]
        with _joined(helper, "roundtrip helper") as pipe:
            rest = [*verify_decay(), *verify_oracle()]
            roundtrip = pipe.read()
        return [pickle.loads(roundtrip), *rest]
    raise ValueError(f"unknown verify suite {suite!r}")


# ---------------------------------------------------------------------------
# Compare


class ChannelMetrics(NamedTuple):
    settling: float
    peak_error: float
    iae: float


def run_metrics(record: SimRecord) -> dict[str, ChannelMetrics]:
    """Per-channel LOS angle metrics against the angle the controller
    drives to: the references of an :data:`ANGLE_TRACKING` record, zero
    for ``stabilize`` and ``open-loop``, which ignore theirs. A
    ``rate-track`` record, whose references are LOS rates, is refused.

    The settling time is measured from run start to the last excursion
    of the error outside a 2% band of the reference peak (absolute band
    0.02 when the reference is identically zero).
    """
    sc = record.scenario
    if sc.controller == "rate-track":
        raise ValueError(f"controller {sc.controller!r} has LOS rate references, not angles")
    refs = (sc.ref_q, sc.ref_r) if sc.controller in ANGLE_TRACKING else (ZERO_TRAJECTORY,) * 2
    t = record.t
    out = {}
    for channel, ref in zip(("theta_q", "theta_r"), refs):
        target = ref.sample(t)[0]
        e = target - record.col(channel)
        peak_ref = float(np.max(np.abs(target)))
        band = 0.02 * peak_ref if peak_ref > 0.0 else 0.02
        out[channel] = ChannelMetrics(
            settling=settling_time(t, e, 0.0, band),
            peak_error=peak_abs_error(e),
            iae=integrated_abs_error(t, e),
        )
    return out


# ---------------------------------------------------------------------------
# Commands


def _resolve_outdir(arg_out: str | None, name: str) -> Path:
    if arg_out:
        return Path(arg_out)
    root = os.environ.get("GIMBAL_OUT_DIR", "runs")
    return Path(root) / name


def _load_scenario(args) -> Scenario:
    if args.preset:
        sc = preset(args.preset)
    else:
        sc = scenario_from_ini(Path(args.config).read_text())
    if args.step_size is not None:
        sc = replace(sc, step_size=args.step_size)
    if args.seed is not None:
        sc = replace(sc, noise=replace(sc.noise, seed=args.seed))
    return sc


def cmd_run(args) -> int:
    try:
        sc = _load_scenario(args)
    except (ValueError, OSError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    outdir = _resolve_outdir(args.out, sc.name)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 2
    try:
        record = integrate(sc)
    except SimulationDiverged as e:
        print(f"error: simulation diverged: {e}", file=sys.stderr)
        return 2
    trace, resolved = outdir / TRACE_FILENAME, outdir / RESOLVED_FILENAME
    try:
        write_trace_csv(record, trace)
        resolved.write_text(scenario_to_ini(record.scenario))
        plots = emit_plots(record, outdir) if args.plots else []
    except OSError as e:
        # a failed write() names no file; the output directory is the
        # closest thing the error can name then
        print(f"error: cannot write {e.filename or outdir}: {e.strerror or e}", file=sys.stderr)
        return 2
    print(f"{sc.name}: {record.n_rows} rows over {sc.duration:g}s (h={sc.step_size:g})")
    for p in [trace, resolved, *plots]:
        print(f"  wrote {p}")
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_verify_suite(args.suite)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} {r.name}: {r.detail}")
    return 0 if all_ok else 1


def cmd_compare(args) -> int:
    try:
        rec_a = integrate(preset(args.preset_a))
        rec_b = integrate(preset(args.preset_b))
    except (UnknownPresetError, SimulationDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ma, mb = run_metrics(rec_a), run_metrics(rec_b)

    def fmt_t(v: float) -> str:
        return "never" if math.isinf(v) else f"{v:.3f}"

    name_a, name_b = args.preset_a, args.preset_b
    print(f"{'metric':<28} {name_a:>18} {name_b:>18}")
    for channel in ("theta_q", "theta_r"):
        a, b = ma[channel], mb[channel]
        print(f"{channel + ' settling [s]':<28} {fmt_t(a.settling):>18} {fmt_t(b.settling):>18}")
        print(f"{channel + ' peak error [rad]':<28} {a.peak_error:>18.6g} {b.peak_error:>18.6g}")
        print(f"{channel + ' IAE [rad s]':<28} {a.iae:>18.6g} {b.iae:>18.6g}")
    return 0


def cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name:<18} {preset_description(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gimbalsim",
        description="Two-axis gimbal LOS stabilization/tracking simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and write artifacts")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="bundled scenario name (see 'presets')")
    src.add_argument("--config", help="scenario config file (INI sections)")
    p_run.add_argument("--out", help="output directory (default $GIMBAL_OUT_DIR/<name>)")
    p_run.add_argument("--seed", type=int, help="override the noise seed")
    p_run.add_argument("--step-size", type=float, help="override the integrator step [s]")
    p_run.add_argument("--plots", action="store_true", help="also write SVG charts")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument(
        "suite",
        choices=("roundtrip", "lemma1", "decay", "oracle", "all"),
        help="which suite to run ('lemma1' is an alias of 'roundtrip')",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="run two presets and compare tracking metrics")
    p_cmp.add_argument("preset_a")
    p_cmp.add_argument("preset_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_presets = sub.add_parser("presets", help="list bundled scenarios")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
