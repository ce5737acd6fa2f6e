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
import itertools
import math
import mmap
import os
import pickle
import random
import signal
import sys
import threading
import warnings
from dataclasses import replace
from html import escape
from pathlib import Path
from types import SimpleNamespace
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
    INERTIA_ENTRIES,
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
    observe_blocks,
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


# Rows per :func:`_csv_rows` call and per chunk the trace writer gives
# its helper. The formatter's numpy temporaries take about 5.8 kB a row;
# while glibc's malloc thresholds are at their defaults, heap blocks that
# large go back to the system after each call: at 1,024 rows every call
# faulted in about 1,250 pages and took twice as long as in a warm
# process; at 256 rows it faults none after the first, and formats as fast.
CSV_BLOCK_ROWS = 256
# Rows from which a streamed trace write forks its formatting helper.
# In 25 alternating forked and in-process writes per size of fig5-sin
# prefixes, each integrated with the writer observing its blocks as in
# ``run``, on a 2-vCPU VM, in two rounds with the second core free, the
# fork won 5-8 at 2,048 rows (median time ratio 1.03-1.05) and 14-15
# at 3,072 (0.96, quartiles 0.90-1.16), but 21 at 4,096 (0.89-0.91)
# and 18-23 at each size from 5,120 to 8,192 (0.83-0.87). Pinned to
# one CPU it lost at every size (0-2 wins, ratio 1.20-1.42).
CSV_FORK_MIN_ROWS = 16 * CSV_BLOCK_ROWS


def _chunks(data: np.ndarray):
    """Yield the rows of ``data``, ``CSV_BLOCK_ROWS`` at a time."""
    for start in range(0, len(data), CSV_BLOCK_ROWS):
        yield data[start : start + CSV_BLOCK_ROWS]


# The exact float64 -> "%.17g" formatter below follows Grisu (Loitsch,
# "Printing floating-point numbers quickly and accurately with
# integers", PLDI 2010): integer arithmetic with a truncated power of
# ten decides almost every value, and a value it cannot decide is
# detected and formatted by ``"%.17g" % x``.
_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_ASCII_ZEROS = _U(0x3030303030303030)  # "00000000"
# decimal exponents floor(log10|x|) of finite nonzero float64 values,
# with one to spare on each side for the estimate
_E_LO, _E_HI = -325, 309


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """The exact formatter's tables, built on first use (a few ms), not
    at import. Entry ``E - _E_LO`` serves decimal exponent E:

    - ``sig``, ``shift``: 10**(16 - E) ~ sig * 2**shift, with sig in
      [2**63, 2**64) truncated; ``exact`` where no bit was cut
      (0 <= 16 - E <= 27, as 5**27 < 2**64);
    - ``point``: the '.' follows this many digits (18: none of them);
      ``kept``: digits kept even if they are trailing zeros;
    - ``words``: (11, exponents) uint64 layout words, see :func:`_csv_rows`.

    ``digits4`` holds the 4 ASCII digits of 0..9999 as little-endian
    uint32, and column k of ``keep_mask``, (3, 19) uint64, keeps the
    first k of 24 bytes.
    """
    exps = np.arange(_E_LO, _E_HI + 1)
    sig, shift = [], []
    for k in (16 - exps).tolist():
        if k >= 0:
            s = (10**k).bit_length() - 64
            sig.append(10**k >> s if s > 0 else 10**k << -s)
        else:
            s = -63 - (10**-k).bit_length()
            sig.append((1 << -s) // 10**-k)
        shift.append(s)
    digits4 = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    fixed = (exps >= -4) & (exps < 17)  # the range "%.17g" writes without exponent
    point = np.where(fixed, np.where(exps >= 0, exps + 1, 18), 1)
    k = np.arange(19)
    keep_mask = ((np.arange(24) < k[:, None]) * 255).astype(np.uint8).view("<u8")
    dot = np.zeros((19, 24), np.uint8)
    dot[k[:18], k[:18]] = ord(".")
    prefix, suffix = np.zeros((2, len(exps), 8), np.uint8)
    for e in range(-4, 0):
        text = b"0." + b"0" * (-e - 1)
        prefix[e - _E_LO, 1 : 1 + len(text)] = list(text)
    # "e+XX" or "e-XXX": 'e', the sign, then two or three digits
    a = abs(exps)
    three = a >= 100
    suffix[:, 2:7] = np.stack(
        [
            np.full(len(exps), ord("e")),
            np.where(exps < 0, ord("-"), ord("+")),
            np.where(three, a // 100, a // 10 % 10) + ord("0"),
            np.where(three, a // 10 % 10, a % 10) + ord("0"),
            np.where(three, a % 10 + ord("0"), 0),
        ],
        axis=1,
    )
    suffix[fixed] = 0
    words = np.concatenate(
        [
            prefix.view("<u8"),
            keep_mask[point],
            ~keep_mask[np.minimum(point + 1, 18)],
            dot.view("<u8")[point],
            suffix.view("<u8"),
        ],
        axis=1,
    )
    return SimpleNamespace(
        sig=np.array(sig, np.uint64),
        shift=np.array(shift),
        exact=(exps <= 16) & (exps >= -11),
        digits4=digits4.copy().view("<u4").ravel(),
        point=point,
        kept=np.where(fixed & (exps >= 0), exps + 1, 0),
        words=words.T.copy(),
        keep_mask=keep_mask.T.copy(),
    )


def _g17_digits(x: np.ndarray):
    """The 17 significant digits of each float64 in ``x``, rounded half
    to even, as ``(digits, e, ok)``: ``|x|`` rounds to ``digits *
    10**(E - 16)``, with ``digits`` in [10**16, 10**17), zero for zero,
    and ``e = E - _E_LO``. ``ok`` is False where the result is not
    decided: NaN, infinities, and values whose rounding falls within
    the error of a truncated power of ten or whose exponent estimate is
    off by one.

    |x| = m * 2**(b - 64) with m in [2**63, 2**64), and 10**(16 - E) ~
    sig * 2**shift, so |x| * 10**(16 - E) ~ m * sig * 2**(b + shift - 64):
    the high word of the 128-bit product m * sig, shifted right by
    ``r = -(b + shift)`` bits (3 to 14), holds the digits, and its low
    ``r`` bits and the low word hold the fraction to round. A truncated
    ``sig`` makes the product low by less than one unit of the high word.
    """
    t = _g17_tables()
    ax = np.abs(x)
    finite = (ax > 0) & (ax < np.inf)
    ax[~finite] = 1.0  # any normal number, so that frexp and log10 stay quiet
    f, b = np.frexp(ax)
    m = (f * 2.0**64).astype(np.uint64)
    e = np.floor(np.log10(ax)).astype(np.intp) - _E_LO
    sig = t.sig.take(e)
    r = (-(t.shift.take(e) + b)).astype(np.uint64)
    # the 128-bit product m * sig from four 32 x 32-bit products
    m0, m1, s0, s1 = m & _LOW32, m >> _U(32), sig & _LOW32, sig >> _U(32)
    cross1, cross2 = m0 * s1, m1 * s0
    mid = ((m0 * s0) >> _U(32)) + (cross1 & _LOW32) + (cross2 & _LOW32)
    high = m1 * s1 + (cross1 >> _U(32)) + (cross2 >> _U(32)) + (mid >> _U(32))
    low = m * sig  # mod 2**64
    digits = high >> r
    rest = high - (digits << r)
    half = _U(1) << (r - _U(1))
    exact = t.exact.take(e)
    # In units of the high word, the fraction to round is rest + low /
    # 2**64 for an exact sig; a truncated one adds more than 0 and less
    # than m / 2**64 < 1. So rest > half rounds up, and so does rest ==
    # half unless an exact sig leaves a tie (low == 0): then the even
    # digits win. rest < half - 1 rounds down, and so does rest == half
    # - 1 where low + m does not pass 2**64; where it does, the
    # rounding is not decided.
    up = (rest > half) | (rest == half) & (~exact | (low != 0) | (digits & _U(1) == 1))
    ok = finite & (digits >= _U(10**16))
    ok &= exact | (rest != half - _U(1)) | (low <= ~m)
    digits += up
    ok &= digits < _U(10**17)
    zero = x == 0
    ok |= zero
    digits[zero] = 0
    e[zero] = -_E_LO
    return digits, e, ok


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 block as ASCII bytes, each value as
    ``"%.17g" % x`` writes it; the values :func:`_g17_digits` does not
    decide are written so.

    Each value is laid out in a 32-byte record, four uint64 words, with
    NUL bytes between its parts; the text is the records without the
    NULs. Word 0 holds the sign (byte 0) and, for exponents -4 to -1,
    the prefix "0.", "0.0", ... (bytes 1-5). Words 1-3 hold the 17
    digits with the '.' after the first ``point`` of them (bytes 0-17),
    trailing zeros cleared past the first ``kept``, then an exponent
    suffix such as "e-07" (bytes 18-22) and the separator (byte 23).
    The rows of ``words``, per exponent: 0 word 0; 1-3 the mask of the
    digits before the point; 4-6 that of the digits after it, one byte
    on; 7-9 the point; 10 the suffix. Every word, in the tables and in
    the records, is stored little-endian on any host, so byte i of a
    word is its bits 8i to 8i + 7.
    """
    t = _g17_tables()
    rows, cols = block.shape
    x = block.ravel()
    digits, e, ok = _g17_digits(x)
    # digits = lead * 10**16 + a * 10**8 + b; a and b as 8 ASCII bytes
    ab = digits // _U(10**8)
    lead = ab // _U(10**8)
    halves = np.stack([ab - lead * _U(10**8), digits - ab * _U(10**8)], axis=1)
    high4 = halves * _U(3518437209) >> _U(45)  # // 10**4, exact below 2**32
    groups = np.stack([high4, halves - high4 * _U(10**4)], axis=2)
    a, b = t.digits4.take(groups).view("<u8").reshape(-1, 2).T
    # XOR "0" leaves each digit's value in its byte, so the float
    # exponent of a word tells how many of its bytes, up to the last
    # nonzero digit, count
    used_a = (np.frexp((a ^ _ASCII_ZEROS).astype(np.float64))[1] + 7) >> 3
    used_b = (np.frexp((b ^ _ASCII_ZEROS).astype(np.float64))[1] + 7) >> 3
    keep = np.maximum(np.where(used_b > 0, 9 + used_b, 1 + used_a), t.kept.take(e))
    point = t.point.take(e)
    mask = t.keep_mask.take(keep + (keep > point), axis=1)
    w = t.words.take(e, axis=1)
    d0 = (lead + _U(ord("0"))) | (a << _U(8))
    d1 = (a >> _U(56)) | (b << _U(8))
    d2 = b >> _U(56)
    rec = np.empty((len(x), 4), "<u8")
    rec[:, 0] = w[0] | np.signbit(x) * _U(ord("-"))
    rec[:, 1] = ((d0 & w[1]) | (d0 << _U(8) & w[4]) | w[7]) & mask[0]
    rec[:, 2] = ((d1 & w[2]) | ((d1 << _U(8) | d0 >> _U(56)) & w[5]) | w[8]) & mask[1]
    rec[:, 3] = ((d2 & w[3]) | ((d2 << _U(8) | d1 >> _U(56)) & w[6]) | w[9]) & mask[2] | w[10]
    sep = rec.reshape(rows, cols, 4)[..., 3]
    sep |= _U(ord(",") << 56)
    sep[:, -1] ^= _U((ord(",") ^ ord("\n")) << 56)
    text = rec.view(np.uint8)
    odd = np.flatnonzero(~ok)
    if odd.size:
        fallback = b"".join([(b"%.17g" % v).ljust(31, b"\0") for v in x[odd].tolist()])
        text[odd, :31] = np.frombuffer(fallback, np.uint8).reshape(-1, 31)
    return text.tobytes().translate(None, b"\0")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _helper(work: Callable[[], None], what: str, filename: str | None = None):
    """Fork a helper process that calls ``work()`` and exits, and yield
    True; the helper is reaped when the block ends. Yields False,
    forking nothing, if this process has to do the work itself: it
    cannot fork, it may run on one CPU only (the helper would only add
    the fork's cost), or it runs other Python threads, one of which a
    forked child could find holding a lock. Any exception in the block
    or in the wait for the helper, an interrupt too, kills and reaps the
    helper first; a non-zero exit (``work`` raised) raises OSError
    (EIO) naming ``what`` and ``filename``.

    Native threads that Python does not know of, such as numpy's BLAS
    pool, do not stop the fork: ``work`` must call no BLAS routine (the
    CSV formatter calls ufuncs, ``take``, ``stack`` and
    ``bytes.translate``, the roundtrip suite scalar arithmetic), and
    glibc's malloc resets its locks in the child of a ``fork``. A forked
    helper reads its inputs from the copied address space, and what is
    stored after the fork from a shared ``mmap``; a spawned one would
    import numpy again and get them pickled.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1 and _usable_cpus() >= 2:
        try:
            pid = os.fork()
        except OSError:
            pass
    if pid is None:
        yield False
        return
    if pid == 0:
        # The helper leaves only through os._exit: an exception must not
        # run the parent's code (exit handlers, buffered output, a test
        # runner) a second time. ``work`` flushes what it writes.
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    try:
        yield True
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        raise OSError(errno.EIO, f"{what} exited with status {code}", filename)


class _TraceWriter:
    """The state of one trace CSV write; see :func:`_trace_writer`. The
    ``give`` pipe carries one byte per chunk, 39,063 for a record of
    ``sim.MAX_STEPS`` rows, which Linux's default 64 KiB pipe holds: no
    write waits for the helper. Only the helper holds the read end, so a
    write to a helper that died fails instead of waiting."""

    def __init__(self, f, path: str, stack: contextlib.ExitStack):
        self.f, self.path, self.stack = f, path, stack
        self.data = None  # the observed record array
        self.given = None  # chunks given to the helper; None while none runs

    def observe(self, data: np.ndarray, rows: int) -> None:
        """The block observer: rows ``0..rows`` of ``data`` are stored."""
        if self.data is None:
            self.data = data
            if CSV_FORK_MIN_ROWS <= len(data) and rows < len(data):
                r, w = os.pipe()
                self.take = self.stack.enter_context(open(r, "rb", buffering=0))
                self.give = self.stack.enter_context(open(w, "wb", buffering=0))
                if self.stack.enter_context(_helper(self._write, "formatting helper", self.path)):
                    self.take.close()
                    self.given = 0
        if self.given is not None:
            ready = rows // CSV_BLOCK_ROWS if rows < len(data) else -(-rows // CSV_BLOCK_ROWS)
            with contextlib.suppress(BrokenPipeError):  # _helper raises the helper's EIO
                self.give.write(bytes(ready - self.given))
            self.given = ready

    def _write(self) -> None:
        """The helper's part: write each chunk once it is given."""
        self.give.close()  # so that a writer that died reads as EOF
        for chunk in _chunks(self.data):
            if not self.take.read(1):
                raise EOFError("the trace writer stopped before its rows were stored")
            self.f.write(_csv_rows(chunk))
        self.f.flush()

    def finish(self) -> None:
        """When the block ends: give the helper the rest, or write every row here."""
        self.observe(self.data, len(self.data))
        if self.given is None:
            self.f.writelines(map(_csv_rows, _chunks(self.data)))


@contextlib.contextmanager
def _trace_writer(path: Path | str):
    """Write a trace CSV at ``path`` from the rows of a record as they
    are stored; yield the block observer (see ``sim.observe_blocks``)
    that takes them. When the block ends the observed record must be
    stored in full.

    A record of at least ``CSV_FORK_MIN_ROWS`` rows whose first
    observation is partial, one still being integrated, is written by a
    forked helper (see :func:`_helper`) that formats the record's own
    array, so rows stored after the fork must be stored in shared
    memory, as ``sim.integrate`` stores its record: each observation
    gives the helper the chunks its rows complete, the last, partial one
    once the record is stored, and it writes them in file order.
    Otherwise, a finished record included, this process writes every
    row when the block ends. Any exception, an interrupt too, kills and
    reaps the helper and removes the partial file; a failed helper
    raises OSError (EIO) naming ``path``.
    """
    with open(path, "wb") as f:
        try:
            f.write((",".join(COLUMNS) + "\n").encode("ascii"))
            f.flush()  # a forked helper must not inherit buffered bytes
            with contextlib.ExitStack() as stack:
                writer = _TraceWriter(f, str(path), stack)
                yield writer.observe
                writer.finish()
        except BaseException:
            f.close()
            Path(path).unlink(missing_ok=True)
            raise


def write_trace_csv(record: SimRecord, path: Path | str) -> None:
    """Write the trace with a header row, 17 significant digits per
    value (lossless for float64), '.' decimal separator, newline
    terminated: :func:`_trace_writer` fed the finished record, which
    this process formats, forking no helper.
    """
    with _trace_writer(path) as observe:
        observe(record.data, record.n_rows)


def read_trace_csv(path: Path | str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a trace written by :func:`write_trace_csv`; exact inverse.

    Returns the header and a ``(rows, len(header))`` array. A ragged
    row or a non-numeric cell raises ValueError naming ``path`` and the
    1-based line; so does a ``#``, which a trace never holds (no
    comment lines).
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
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
        except ValueError as e:
            raise ValueError(_bad_line(path, len(header)) or f"{path}: {e}") from None
    if data.shape[1] != len(header):
        raise ValueError(_bad_line(path, len(header)))
    return header, data


def _bad_line(path: Path | str, width: int) -> str | None:
    """The message naming ``path`` and the 1-based line of its first row
    after the header that is not ``width`` numbers as ``np.loadtxt``
    reads them, or None; empty lines are skipped, and so are blank ones
    before the first row, as :func:`read_trace_csv` skips them. Called
    only once a read has failed, so a good read costs nothing more."""
    with open(path) as f:
        lines = itertools.dropwhile(lambda nl: nl[0] == 1 or nl[1].isspace(), enumerate(f, 1))
        for n, line in lines:
            cells = line.rstrip("\n").split(",")
            if cells == [""]:
                continue
            if len(cells) != width:
                return f"{path}: line {n}: row has {len(cells)} cells, header has {width}"
            for i, cell in enumerate(cells, 1):
                try:
                    float(cell.replace("_", "x"))  # float() reads "1_0", np.loadtxt not
                except ValueError:
                    return f"{path}: line {n}: cell {i} is not a number: {cell!r}"
    return None


# ---------------------------------------------------------------------------
# Scenario <-> config text (flat INI sections)


# The codec is generated from the field lists of the scenario's record
# types, so the keys written, parsed and accepted have one source.
_SCENARIO_KEYS = ("name", "controller", "duration", "step_size")
_PLATFORMS = {cls.kind: cls for cls in (SinusoidalPlatform, ConstantPlatform, TablePlatform)}
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
        key: _fmt(getattr(sc.model, m)[i, j]) for key, (m, i, j) in INERTIA_ENTRIES.items()
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


def _ini_build(section: str, build: Callable, /, *args, **values):
    try:
        return build(*args, **values)
    except (TypeError, ValueError) as e:  # a required key is missing, or a bad value
        raise ValueError(f"[{section}] {e}") from None


def scenario_from_ini(text: str, source: str = "<string>") -> Scenario:
    """Parse a scenario in the format of :func:`scenario_to_ini`;
    configparser's own errors name ``source`` as the text's origin.

    Absent sections and keys keep the values of
    ``Scenario(controller="open-loop")``; ``[gains]`` needs ``c1`` and
    ``c2``, a ``custom-table`` platform all four of its channels. An
    unknown section or key raises ValueError naming it; the message of
    any other error in a value starts with the value's section.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text, source)
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
            raise ValueError(
                f"[platform] unknown platform kind {kind!r}; valid: {', '.join(_PLATFORMS)}"
            )
        cls = _PLATFORMS[kind]
        values = _ini_record(cp, "platform", {"kind": str, **_hints(cls)})
        values.pop("kind", None)
        changes["platform"] = _ini_build("platform", cls, **values)
    if cp.has_section("inertia"):
        values = _ini_record(cp, "inertia", dict.fromkeys(INERTIA_ENTRIES, float))
        matrices = {m: getattr(base.model, m).copy() for m in ("pitch_gimbal", "yaw_gimbal")}
        for key, v in values.items():
            matrix, i, j = INERTIA_ENTRIES[key]
            matrices[matrix][i, j] = matrices[matrix][j, i] = v
        changes["model"] = _ini_build("inertia", InertiaModel, **matrices)
    for section, (attr, cls) in _RECORDS.items():
        if cp.has_section(section):
            hints = _hints(cls)
            current = getattr(base, attr)
            values = {} if current is None else {k: getattr(current, k) for k in hints}
            values.update(_ini_record(cp, section, hints))
            changes[attr] = _ini_build(section, cls, **values)
    # Scenario checks the initial state and the gains its controller
    # needs beside the [scenario] keys; each is checked here first, under
    # its own section, and the coarse-step warning comes once, at the end
    if "initial_state" in changes:
        base = _ini_build("initial", replace, base, initial_state=changes.pop("initial_state"))
    if changes.get("controller") == "los-track" and "gains" in changes:
        _ini_build("gains", changes["gains"].require_full)
    return _ini_build("scenario", replace, base, **changes)


# ---------------------------------------------------------------------------
# SVG line charts (no plotting dependency)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
_TICKS_PER_AXIS = 6  # about how many ticks _axis places
_BIG = sys.float_info.max


def _axis(lo: float, hi: float, pad: float = 0.0) -> tuple[float, float, list[float]]:
    """Plotted range ``(lo', hi', ticks)`` of an axis over finite values.

    A range no wider than 1e-12 of its magnitude (at least 1) is widened
    by that magnitude on each side. It is then padded by ``pad`` of its
    width on each side, and each widening is clipped to the finite
    floats. The ticks are the multiples of a 1, 2, 2.5 or 5 step in
    the range, 3 to 7 of them. Widths are taken as differences of
    halves, so none overflows.
    """
    mag = max(1.0, abs(lo), abs(hi))
    if hi - lo <= 1e-12 * mag:
        lo, hi = max(lo - mag, -_BIG), min(hi + mag, _BIG)
    margin = pad * (hi / 2 - lo / 2) * 2
    lo, hi = max(lo - margin, -_BIG), min(hi + margin, _BIG)
    raw = (hi / 2 - lo / 2) / (_TICKS_PER_AXIS / 2)
    unit = 10.0 ** math.floor(math.log10(raw))
    step = next(m * unit for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * unit)
    ks = range(math.ceil(lo / step), math.floor(hi / step + 1e-12) + 1)
    return lo, hi, [min(max(k * step, lo), hi) for k in ks]


def write_svg_chart(
    path: Path | str,
    title: str,
    ylabel: str,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
) -> None:
    """Write a time-series line chart as a standalone SVG file.

    ``series`` is a sequence of (label, t, y); labels ending in
    ``" ref"`` (references) render with a dash pattern.
    """
    width, height = 880, 520
    ml, mr, mt, mb = 72, 24, 44, 56
    pw, ph = width - ml - mr, height - mt - mb

    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    x0, x1, xticks = _axis(float(xs.min()), float(xs.max()))
    y0, y1, yticks = _axis(float(ys.min()), float(ys.max()), pad=0.05)

    # plot coordinates of a value or, elementwise, of an array
    def px(x):
        return ml + (x / 2 - x0 / 2) / (x1 / 2 - x0 / 2) * pw

    def py(y):
        return mt + (y1 / 2 - y / 2) / (y1 / 2 - y0 / 2) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">'
        f"{escape(title)}</text>",
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for tx in xticks:
        X = px(tx)
        out.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" y2="{mt + ph + 5}" stroke="#444"/>')
        out.append(f'<line x1="{X:.1f}" y1="{mt}" x2="{X:.1f}" y2="{mt + ph}" stroke="#ddd"/>')
        out.append(
            f'<text x="{X:.1f}" y="{mt + ph + 20}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in yticks:
        Y = py(ty)
        out.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#444"/>')
        out.append(f'<line x1="{ml}" y1="{Y:.1f}" x2="{ml + pw}" y2="{Y:.1f}" stroke="#ddd"/>')
        out.append(
            f'<text x="{ml - 9}" y="{Y + 4:.1f}" text-anchor="end">{ty:g}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 14}" text-anchor="middle">time [s]</text>'
    )
    out.append(
        f'<text x="20" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {mt + ph / 2:.0f})">{escape(ylabel)}</text>'
    )
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        stride = max(1, len(x) // 2000)
        xy = np.stack([px(x[::stride]), py(y[::stride])], axis=1)
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7 5"' if label.endswith(" ref") else ""
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
    angles = [("theta_q", t, record.theta_q), ("theta_r", t, record.theta_r)]
    if sc.controller in ANGLE_TRACKING:
        angles.append(("theta_q ref", ts, sc.ref_q.sample(ts)[0]))
        angles.append(("theta_r ref", ts, sc.ref_r.sample(ts)[0]))
    charts = {
        "platform.svg": ("platform body rates", "rate [rad/s]",
                         [("p", ts, body[0]), ("q", ts, body[1]), ("r", ts, body[2])]),
        "rates.svg": (f"LOS rates ({sc.name})", "rate [rad/s]",
                      [("q_a", t, record.q_a), ("r_a", t, record.r_a)]),
        "los_angles.svg": (f"LOS angles ({sc.name})", "angle [rad]", angles),
        "torques.svg": (f"motor torques ({sc.name})", "torque [N m]",
                        [("u1", t, record.col("u1")), ("u2", t, record.col("u2"))]),
    }
    for name, chart in charts.items():
        write_svg_chart(outdir / name, *chart)
    return [outdir / name for name in charts]


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
        # oracle, or here after them; the helper pickles its result into
        # a shared page.
        with mmap.mmap(-1, mmap.PAGESIZE) as page:

            def roundtrip():  # in the helper
                page.write(pickle.dumps(verify_roundtrip()))

            with _helper(roundtrip, "roundtrip helper") as forked:
                rest = [*verify_decay(), *verify_oracle()]
            return [pickle.loads(page) if forked else verify_roundtrip(), *rest]
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
        sc = scenario_from_ini(Path(args.config).read_text(), args.config)
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
    trace, resolved = outdir / TRACE_FILENAME, outdir / RESOLVED_FILENAME
    try:
        try:
            # trace.csv is formatted while the scenario is integrated
            with _trace_writer(trace) as observe, observe_blocks(observe):
                record = integrate(sc)
                observe(record.data, record.n_rows)
        except SimulationDiverged as e:
            print(f"error: simulation diverged: {e}", file=sys.stderr)
            write_trace_csv(e.record, trace)  # the rows up to the blow-up
            return 2
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
        sc_a, sc_b = preset(args.preset_a), preset(args.preset_b)
        rec_a, rec_b = integrate(sc_a), integrate(sc_b)
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
    # a warning shows as one line, as an error does; the warning filters
    # in force still decide which warnings show
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
