import configparser
import contextlib
import contextvars
import errno
import fcntl
import hashlib
import math
import mmap
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from gimbalsim import cli, sim
from gimbalsim.control import ControlGains, GuardSpec, PidParams
from gimbalsim.plant import GimbalState, NoiseSpec
from gimbalsim.sim import (
    ConstantPlatform,
    ReferenceSpec,
    Scenario,
    SinusoidalPlatform,
    TablePlatform,
    integrate,
)
from test_golden import VERIFY_ALL
from test_plant import models


def small_record():
    sc = replace(sim.preset("fig3-stab"), duration=1.0, step_size=0.01, name="small")
    return integrate(sc)


# Cells the codec must carry bit for bit: signed zero, NaN, infinities,
# the smallest subnormal, the largest finite float and an inexact decimal.
SPECIAL_CELLS = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1)
B = cli.CSV_BLOCK_ROWS
F = cli.CSV_FORK_MIN_ROWS
P = F + 4 * B + 3  # a forked write whose last chunk has 3 rows


def reference_write(data, path):
    """Per-value writer: ``format(v, ".17g")`` on every cell."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(sim.COLUMNS) + "\n")
        for row in data:
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def count_forks(monkeypatch):
    """Wrap ``os.fork``; the returned list gets one entry per call."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def break_in(monkeypatch, name, in_helper):
    """Make ``cli.<name>``, such as the CSV block formatter, raise
    MemoryError in the forked helper only (``in_helper``) or in this
    process only."""
    parent = os.getpid()
    real = getattr(cli, name)

    def broken(*args):
        if (os.getpid() != parent) == in_helper:
            raise MemoryError(f"{name} failed")
        return real(*args)

    monkeypatch.setattr(cli, name, broken)


def stream(data, path, first=256):
    """Write ``data`` as a trace at ``path`` the way ``run`` does: fed
    to the trace writer ``first`` rows first (a partial observation,
    which lets it fork its helper), then the rest."""
    with cli._trace_writer(path) as observe:
        observe(data, min(first, len(data)))
        observe(data, len(data))


def codec_record(n_rows):
    rng = np.random.default_rng(n_rows)
    shape = (n_rows, len(sim.COLUMNS))
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    cells = data.reshape(-1)
    cells[::3] = np.resize(SPECIAL_CELLS, cells[::3].size)
    return sim.SimRecord(data, Scenario(controller="open-loop"))


@pytest.mark.usefixtures("two_cpus")
class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rec = small_record()
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(rec, path)
        header, data = cli.read_trace_csv(path)
        assert header == sim.COLUMNS
        assert np.array_equal(data, rec.data)

    def test_format_details(self, tmp_path):
        rec = small_record()
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(rec, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == ",".join(sim.COLUMNS)
        assert len(lines) == rec.n_rows + 1
        assert "," in lines[1] and "." in lines[1]

    # each size written finished, in this process, and streamed, from F
    # rows on by a forked helper, whose last chunk at P is partial
    @pytest.mark.parametrize(
        "n_rows",
        [1, B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B - 1, 8 * B, 8 * B + 1, 8 * B + 3,
         F - 1, F, F + 1, P],
    )
    def test_block_writer_matches_per_value_reference(self, tmp_path, n_rows):
        rec = codec_record(n_rows)
        cli.write_trace_csv(rec, tmp_path / "block.csv")
        stream(rec.data, tmp_path / "streamed.csv")
        reference_write(rec.data, tmp_path / "reference.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        header, data = cli.read_trace_csv(tmp_path / "block.csv")
        assert header == sim.COLUMNS
        assert data.shape == rec.data.shape
        assert np.array_equal(data.view(np.uint64), rec.data.view(np.uint64))

    @pytest.mark.parametrize("n_rows, forks", [(F - 1, 0), (F, 1), (P, 1)])
    def test_helper_is_forked_from_min_rows_on(self, tmp_path, monkeypatch, n_rows, forks):
        # a streamed write forks when its first observation is partial;
        # a finished record is written in this process at any size
        calls = count_forks(monkeypatch)
        rec = codec_record(n_rows)
        stream(rec.data, tmp_path / "streamed.csv")
        assert len(calls) == forks
        cli.write_trace_csv(rec, tmp_path / "finished.csv")
        assert len(calls) == forks
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "finished.csv").read_bytes()

    @pytest.mark.parametrize("streamed", [False, True], ids=["finished", "streamed"])
    @pytest.mark.parametrize("n_rows", [F, F + 1, P])
    def test_stalled_helper_is_given_two_chunks(self, tmp_path, monkeypatch, n_rows, streamed):
        # The helper stalls in chunk 0 until every row is observed. Fed
        # two chunks and 5 rows, then the rest at once ("finished") or
        # 256 rows at a time, no observation waits for it, and each
        # gives it just the chunks stored in full (two, after the first),
        # the last, partial one with the last row. The helper writes
        # every chunk, in order; this process formats none.
        parent, mine, theirs = os.getpid(), [], tmp_path / "helper-chunks"
        release_r, release_w = os.pipe()
        real_blocks = cli._csv_rows

        def blocks(rows):
            chunk = (int(rows[0, 0]), len(rows))
            if os.getpid() == parent:
                mine.append(chunk)
            else:  # the helper's calls, logged to a file
                if chunk[0] == 0:
                    select.select([release_r], [], [], 10)
                with open(theirs, "a") as log:
                    log.write(f"{chunk}\n")
            return real_blocks(rows)

        monkeypatch.setattr(cli, "_csv_rows", blocks)
        rec = codec_record(n_rows)
        rec.data[:, 0] = np.arange(n_rows)  # each row's index in its first cell
        stored = [2 * B + 5, *(range(2 * B + 256, n_rows, 256) if streamed else ()), n_rows]
        path, began = tmp_path / "trace.csv", time.monotonic()
        try:
            with cli._trace_writer(path) as observe:
                for rows in stored:
                    observe(rec.data, rows)
                    full = rows // B if rows < n_rows else -(-n_rows // B)
                    assert observe.__self__.given == full
                assert time.monotonic() - began < 5
                os.write(release_w, b"\0")
        finally:
            os.close(release_r)
            os.close(release_w)
        chunks = [(a, min(B, n_rows - a)) for a in range(0, n_rows, B)]
        assert theirs.read_text().splitlines() == [str(c) for c in chunks]
        assert mine == []
        reference_write(rec.data, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("given", [0, 1, 3])
    def test_helper_whose_writer_died_writes_only_the_chunks_given(self, tmp_path, given):
        # the helper's part, run here: the pipe ends after ``given``
        # bytes, before the record's last chunk, as when this process dies
        data, path = codec_record(5 * B + 3).data, tmp_path / "trace.csv"
        r, w = os.pipe()
        with open(path, "wb") as f, contextlib.ExitStack() as stack:
            writer = cli._TraceWriter(f, str(path), stack)
            writer.data = data
            writer.take = stack.enter_context(open(r, "rb", buffering=0))
            writer.give = stack.enter_context(open(w, "wb", buffering=0))
            f.write((",".join(sim.COLUMNS) + "\n").encode("ascii"))
            writer.give.write(bytes(given))
            with pytest.raises(EOFError):
                writer._write()
        reference_write(data[: given * B], tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="pipe size is Linux-only")
    def test_pipe_holds_a_byte_for_each_chunk_of_the_longest_record(self):
        # so that no observation waits for the helper to read
        r, w = os.pipe()
        try:
            capacity = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ)
        finally:
            os.close(r)
            os.close(w)
        assert -(-(sim.MAX_STEPS + 1) // cli.CSV_BLOCK_ROWS) < capacity

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe size is Linux-only")
    def test_helper_that_died_does_not_hold_up_a_pipe_it_cannot_hold(self, tmp_path, monkeypatch):
        # a one-page pipe and a record with more chunks than that: the
        # write that overfills it must fail, not wait for a dead reader
        real_pipe = os.pipe

        def small_pipe():
            r, w = real_pipe()
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, mmap.PAGESIZE)
            return r, w

        def timeout(signum, frame):
            raise AssertionError("the write waited for a helper that died")

        monkeypatch.setattr(os, "pipe", small_pipe)
        break_in(monkeypatch, "_csv_rows", in_helper=True)
        data = np.broadcast_to(np.zeros(len(sim.COLUMNS)), ((mmap.PAGESIZE + 2) * B, len(sim.COLUMNS)))
        path = tmp_path / "trace.csv"
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with pytest.raises(OSError, match=re.escape(str(path))) as e:
                with cli._trace_writer(path) as observe:
                    observe(data, B)
                    observe(data, len(data))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert e.value.errno == errno.EIO
        assert not path.exists()

    @pytest.mark.parametrize(
        "in_helper, error", [(True, OSError), (False, MemoryError)], ids=["helper", "parent"]
    )
    def test_failure_on_either_side_leaves_no_child(self, tmp_path, monkeypatch, in_helper, error):
        # the helper fails to format its first chunk, or this process
        # fails between two observations, as a failed integrate would
        if in_helper:
            break_in(monkeypatch, "_csv_rows", in_helper=True)
        calls = count_forks(monkeypatch)
        data, path = codec_record(F).data, tmp_path / "trace.csv"
        with pytest.raises(error, match=re.escape(str(path)) if in_helper else None):
            with cli._trace_writer(path) as observe:
                observe(data, B)
                if not in_helper:
                    raise MemoryError("integrate failed")
                observe(data, F)
        assert len(calls) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not path.exists()

    @pytest.mark.parametrize(
        "sizes, forks", [([0, 1, B - 1, B + 1, F - 1], 0), ([F, F + 1, P], 1)],
        ids=["in-process", "helper"],
    )
    @seed(16)
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        data=st.data(),
        cells=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6),
    )
    def test_read_inverts_write_on_finite_arrays(
        self, tmp_path, monkeypatch, sizes, forks, data, cells, cuts
    ):
        # the rows observed as they are stored, the first time partly
        calls = count_forks(monkeypatch)
        n_rows = data.draw(st.sampled_from(sizes))
        rng = np.random.default_rng(cells)
        shape = (n_rows, len(sim.COLUMNS))
        values = rng.uniform(-1.79, 1.79, shape) * 10.0 ** rng.integers(-323, 308, shape)
        edge = (-0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308)
        values.reshape(-1)[rng.random(values.size) < 0.2] = rng.choice(edge)
        path = tmp_path / "trace.csv"
        with cli._trace_writer(path) as observe:
            for rows in sorted(int(c * n_rows) for c in cuts) + [n_rows]:
                observe(values, rows)
        assert len(calls) == forks
        header, back = cli.read_trace_csv(path)
        assert header == sim.COLUMNS
        assert back.shape == shape
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("trailer", ["", "\n", " \n\n"], ids=["bare", "blank-line", "blank-lines"])
    def test_header_only_reads_as_empty_table(self, tmp_path, trailer):
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(codec_record(0), path)
        assert path.read_text() == ",".join(sim.COLUMNS) + "\n"
        with open(path, "a") as f:
            f.write(trailer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, data = cli.read_trace_csv(path)
        assert header == sim.COLUMNS
        assert data.shape == (0, len(sim.COLUMNS))

    def test_empty_file_raises_value_error(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(ValueError, match="header"):
            cli.read_trace_csv(tmp_path / "empty.csv")

    # the line counts from 1 at the header, blank lines included
    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2,3\n4,5\n", 3),
            ("1,2,3\n4,5,6,7\n", 3),
            ("1,2\n3,4\n", 2),
            ("1,2,3\n4,x,6\n", 3),
            ("1,2,3\n4,,6\n", 3),
            ("\n1,2,3\n\n4,x,6\n", 5),
            ("1,2,3\n4,1_0,6\n", 3),
        ],
        ids=[
            "short-row", "long-row", "narrow-table", "non-numeric", "empty-cell",
            "after-blank-lines", "underscore",
        ],
    )
    def test_malformed_rows_raise_value_error(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: "):
            cli.read_trace_csv(path)

    # numpy's loadtxt would skip both as comments and read two rows
    @pytest.mark.parametrize(
        "body", ["1,2,3\n# a comment line\n4,5,6\n", "1,2,3\n4,5,6#junk\n"],
        ids=["comment-line", "comment-after-row"],
    )
    def test_comment_raises_value_error_naming_its_row(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: "):
            cli.read_trace_csv(path)


def g17_reference(values):
    """``format(v, ".17g")`` for each value of a 2-D array, as CSV rows."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in values).encode()


def g17_edge_values():
    """Values where a fast %.17g formatter can go wrong: signed zeros,
    NaN and infinities, the subnormal/normal boundary, the powers of ten
    and their neighbours (three-digit exponents among them), both sides
    of the switches between fixed and scientific notation, ties (k *
    2**j with a small odd k is exactly halfway between two 17-digit
    decimals for many j) and short decimals, whose digits end in zeros
    to strip."""
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
              2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-310, 309):
        p = float(f"1e{k}")
        values += [p, -p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        below = above = edge
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above, -below]
    values += [math.ldexp(k, j) for k in range(1, 32, 2) for j in range(-1074, 1000)]
    values += [(k + 0.5) * 10.0**-j for k in range(1, 100) for j in range(0, 20)]
    return np.array(values + [0.0] * (-len(values) % 16)).reshape(-1, 16)


def g17_blocks(values):
    return b"".join(map(cli._csv_rows, cli._chunks(values)))


class TestExactFormatter:
    """The trace's CSV formatter must give the bytes of ``format(x, ".17g")``."""

    @seed(19)
    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=96),
        cols=st.integers(1, 16),
    )
    def test_matches_format_on_float64_bit_patterns(self, bits, cols):
        values = np.array(bits + [0] * (-len(bits) % cols), np.uint64).view(np.float64)
        values = values.reshape(-1, cols)
        assert g17_blocks(values) == g17_reference(values)

    def test_matches_format_on_edge_values(self):
        values = g17_edge_values()
        assert g17_blocks(values) == g17_reference(values)

    def test_exponent_estimate_one_too_low_is_caught(self, monkeypatch):
        # a log10 biased low puts every power of ten, and each value just
        # below one whose 17 digits round up to it, one decade too low,
        # where the digits come out as 10**17
        real = np.log10
        monkeypatch.setattr(np, "log10", lambda a: real(a) - 1e-9)
        values = g17_edge_values()
        assert g17_blocks(values) == g17_reference(values)

    def test_fallback_alone_gives_the_same_bytes(self, monkeypatch):
        # every value undecided: each one takes "%.17g" % x
        real = cli._g17_digits
        monkeypatch.setattr(cli, "_g17_digits", lambda x: (*real(x)[:2], np.zeros(x.shape, bool)))
        values = np.concatenate([g17_edge_values()[::50], codec_record(B).data])
        assert g17_blocks(values) == g17_reference(values)

    def test_fast_path_decides_nearly_every_trace_value(self, rec_fig3):
        # the fallback is for values it cannot decide, not a second path
        _, _, ok = cli._g17_digits(rec_fig3.data.ravel())
        assert ok.mean() > 0.999


def write_trace(tmp_path, capsys):
    """One user of the forked helper: a streamed trace long enough for
    it, which must match the per-value writer byte for byte."""
    rec = codec_record(F)
    stream(rec.data, tmp_path / "trace.csv")
    reference_write(rec.data, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def verify_all(tmp_path, capsys):
    """The other user: ``verify all``, whose stdout must not change."""
    assert cli.main(["verify", "all"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL


@pytest.mark.usefixtures("two_cpus")
class TestForkedHelper:
    """The fork gate and the join shared by the streamed trace writer
    and ``verify all``."""

    users = pytest.mark.parametrize("user", [write_trace, verify_all], ids=["trace-csv", "verify-all"])

    def test_verify_all_forks_one_helper(self, tmp_path, capsys, monkeypatch):
        calls = count_forks(monkeypatch)
        verify_all(tmp_path, capsys)
        assert len(calls) == 1

    @users
    def test_no_helper_on_one_cpu(self, tmp_path, capsys, monkeypatch, user):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        calls = count_forks(monkeypatch)
        user(tmp_path, capsys)
        assert not calls

    @users
    def test_no_helper_while_another_thread_runs(self, tmp_path, capsys, monkeypatch, user):
        calls = count_forks(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            user(tmp_path, capsys)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert not calls

    @users
    def test_no_helper_when_fork_fails(self, tmp_path, capsys, monkeypatch, user):
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        user(tmp_path, capsys)

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_failure_during_decay_kills_and_reaps_roundtrip_helper(self, monkeypatch, error):
        # the helper would run for a minute; only the kill ends it
        def decay():
            raise error()

        reaped = []
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            reaped.append(real_waitpid(pid, options))
            return reaped[-1]

        monkeypatch.setattr(cli, "verify_roundtrip", lambda: time.sleep(60))
        monkeypatch.setattr(cli, "verify_decay", decay)
        monkeypatch.setattr(os, "waitpid", waitpid)
        calls = count_forks(monkeypatch)
        with pytest.raises(error):
            cli.run_verify_suite("all")
        assert len(calls) == 1
        [(_, status)] = reaped
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    def test_interrupt_while_formatting_kills_and_reaps_trace_helper(self, tmp_path, monkeypatch):
        # the helper's part would take a minute; the interrupt comes
        # while this process waits for it, and only the kill ends it
        parent = os.getpid()
        real_blocks = cli._csv_rows

        def blocks(rows):
            if os.getpid() != parent:
                time.sleep(60)
            return real_blocks(rows)

        waits, reaped = [], []
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            reaped.append(real_waitpid(pid, options))
            return reaped[-1]

        monkeypatch.setattr(cli, "_csv_rows", blocks)
        monkeypatch.setattr(os, "waitpid", waitpid)
        calls = count_forks(monkeypatch)
        path = tmp_path / "trace.csv"
        with pytest.raises(KeyboardInterrupt):
            stream(codec_record(F).data, path)
        assert len(calls) == 1 and len(waits) == 2
        [(_, status)] = reaped
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert not path.exists()

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_observer_failure_mid_run_leaves_no_child_and_no_trace(self, tmp_path, monkeypatch, error):
        # the trace writer's observer raises at the third block of rows,
        # after it forked its helper
        real_observe_blocks, seen = cli.observe_blocks, []

        def observe_blocks(observe):
            def failing(data, rows):
                observe(data, rows)
                seen.append(rows)
                if len(seen) == 3:
                    raise error()

            return real_observe_blocks(failing)

        monkeypatch.setattr(cli, "observe_blocks", observe_blocks)
        calls = count_forks(monkeypatch)
        out = tmp_path / "out"
        with pytest.raises(error):
            cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.01", "--out", str(out)])
        assert len(calls) == 1 and len(seen) == 3
        assert list(out.iterdir()) == []


finite = st.floats(allow_nan=False, allow_infinity=False)
# positive gains that keep every drawn step_size below the coarse-step warning
gain = st.floats(min_value=1e-3, max_value=10.0)
names = st.text("ab1_-.%#=[]ü ", min_size=1, max_size=8).filter(
    lambda n: n == n.strip() and n not in (".", "..")
)


@st.composite
def tables(draw):
    n = draw(st.integers(2, 5))
    times = sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True)))
    channels = (draw(st.lists(finite, min_size=n, max_size=n)) for _ in "pqr")
    return TablePlatform(tuple(times), *map(tuple, channels))


@st.composite
def references(draw):
    t_on = draw(st.floats(-1e3, 1e3))
    t_off = draw(st.just(math.inf) | st.floats(1e-3, 1e3).map(lambda d: t_on + d))
    kind = draw(st.sampled_from(("zero", "step", "sinusoid")))
    return ReferenceSpec(kind, draw(finite), draw(finite), t_on, t_off)


@st.composite
def scenarios(draw):
    controller = draw(st.sampled_from(sim.CONTROLLERS))
    c34 = gain if controller == "los-track" else st.none() | gain
    gains = st.builds(ControlGains, gain, gain, c34, c34)
    if controller not in sim.LINEARIZING_CONTROLLERS:
        gains = st.none() | gains
    step = draw(st.floats(1e-4, 1e-2))
    return Scenario(
        name=draw(names),
        controller=controller,
        duration=draw(st.integers(1, 10_000)) * step,
        step_size=step,
        initial_state=GimbalState(*(draw(finite) for _ in GimbalState._fields)),
        platform=draw(
            st.builds(SinusoidalPlatform, *[finite] * 6)
            | st.builds(ConstantPlatform, finite, finite, finite)
            | tables()
        ),
        model=draw(models()),
        gains=draw(gains),
        ref_q=draw(references()),
        ref_r=draw(references()),
        noise=draw(st.builds(NoiseSpec, st.booleans(), st.floats(0.0, 1e3), st.floats(0.0, 1e3),
                             st.integers(-(2**63), 2**63))),
        guard=GuardSpec(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
        pid=PidParams(*(draw(finite) for _ in range(6))),
    )


MUTATIONS = ("drop", "duplicate", "x", "nan", "inf", "-inf", "negative", "1e308")


@st.composite
def mutated_presets(draw):
    """A preset's config text with one key dropped, duplicated or given
    a bad value, and the section of that key."""
    text = cli.scenario_to_ini(sim.preset(draw(st.sampled_from(sim.preset_names()))))
    lines = text.splitlines(keepends=True)
    keys, section = [], None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]\n")
        elif " = " in line:
            keys.append((i, section))
    i, section = draw(st.sampled_from(keys))
    key, value = lines[i].rstrip("\n").split(" = ", 1)
    how = draw(st.sampled_from(MUTATIONS))
    if how == "drop":
        lines[i] = ""
    elif how == "duplicate":
        lines[i] *= 2
    else:
        lines[i] = f"{key} = {'-' + value if how == 'negative' else how}\n"
    # an [inertia] value that is not finite, or a moment that is not
    # positive, must be refused
    refused = section == "inertia" and (
        how in ("nan", "inf", "-inf") or (how == "negative" and key[-1] == key[-2])
    )
    return "".join(lines), section, key, refused


class TestScenarioConfig:
    @seed(14)
    @settings(max_examples=50)
    @given(scenarios())
    def test_round_trip_property(self, sc):
        text = cli.scenario_to_ini(sc)
        back = cli.scenario_from_ini(text)
        assert back == sc
        assert cli.scenario_to_ini(back) == text

    def test_round_trip_all_presets(self):
        for name in sim.preset_names():
            sc = sim.preset(name)
            assert cli.scenario_from_ini(cli.scenario_to_ini(sc)) == sc

    def test_round_trip_custom_scenario(self):
        sc = Scenario(
            name="weird",
            controller="los-track",
            duration=3.5,
            step_size=0.0007,
            initial_state=GimbalState(0.01, -0.02, 0.3, 0.004, 0.1, -0.7),
            platform=TablePlatform((0.0, 1.0, 2.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.0), (0.1, 0.1, 0.2)),
            gains=ControlGains(1.5, 2.5, 3.5, 4.5),
            ref_q=ReferenceSpec(kind="sinusoid", amplitude=0.3, omega=0.7),
            ref_r=ReferenceSpec(kind="step", amplitude=0.2, t_on=1.0, t_off=2.0),
            noise=NoiseSpec(enabled=True, sigma_y=0.001, sigma_z=0.003, seed=42),
        )
        assert cli.scenario_from_ini(cli.scenario_to_ini(sc)) == sc

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[scenario]\ncontroler = stabilize\n", ("[scenario]", "'controler'")),
            ("[platform]\nkind = constant\namp_p = 0.1\n", ("[platform]", "'amp_p'")),
            ("[noise]\nenabled = true\nsigma = 0.1\n", ("[noise]", "'sigma'")),
            ("[inertia]\npitch_zx = 0.1\n", ("[inertia]", "'pitch_zx'")),
            ("[gain]\nc1 = 1\nc2 = 2\n", ("[gain]",)),
        ],
        ids=["scenario-key", "platform-key", "noise-key", "inertia-key", "section"],
    )
    def test_unknown_section_or_key_rejected(self, text, named):
        with pytest.raises(ValueError) as info:
            cli.scenario_from_ini(text)
        for part in named:
            assert part in str(info.value)

    @pytest.mark.filterwarnings("ignore:step_size")
    @seed(15)
    @settings(max_examples=100)
    @given(mutated_presets())
    def test_single_key_mutation_loads_or_names_its_section(self, mutated):
        # a rejected [inertia] mutation names its key too
        text, section, key, refused = mutated
        try:
            cli.scenario_from_ini(text)
        except (ValueError, configparser.Error) as e:
            # configparser's own errors name a section as "section 'name'"
            assert f"[{section}]" in str(e) or f"section {section!r}" in str(e), str(e)
            assert section != "inertia" or re.search(rf"\b{key}\b", str(e)), str(e)
            assert not refused or f"[{section}] {key} " in str(e), str(e)
        else:
            assert not refused, f"{key} mutated, yet the config loaded"

    def test_values_are_literal(self):
        sc = Scenario(name="50% a&b", controller="open-loop")
        ini = cli.scenario_to_ini(sc)
        assert "name = 50% a&b\n" in ini
        assert cli.scenario_from_ini(ini) == sc
        assert cli.scenario_from_ini("[scenario]\nname = 50%%\n").name == "50%%"

    def test_name_round_trips_or_is_rejected(self):
        # configparser strips a value's surrounding whitespace, so a name
        # with it could not come back; such a name is refused up front
        for name in ("a b", "tab\there", "two\nlines", "x = y", "#hash", "[x]", "ü"):
            sc = Scenario(name=name, controller="open-loop")
            assert cli.scenario_from_ini(cli.scenario_to_ini(sc)) == sc
        for name in (" a", "a ", "\ta", "a\n"):
            with pytest.raises(ValueError, match="scenario name"):
                Scenario(name=name, controller="open-loop")

    def test_minimal_config_uses_defaults(self):
        text = "[scenario]\nname = tiny\ncontroller = open-loop\nduration = 0.5\n"
        sc = cli.scenario_from_ini(text)
        assert sc.name == "tiny"
        assert sc.step_size == Scenario(controller="open-loop").step_size
        assert sc.model == sim.preset("fig3-stab").model


class TestRunCommand:
    def test_run_preset_writes_artifacts(self, tmp_path):
        out = tmp_path / "runout"
        code = cli.main(
            ["run", "--preset", "fig3-stab", "--step-size", "0.01", "--out", str(out)]
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "scenario.resolved").exists()
        resolved = cli.scenario_from_ini((out / "scenario.resolved").read_text())
        assert resolved.step_size == 0.01
        header, data = cli.read_trace_csv(out / "trace.csv")
        assert data.shape == (6001, len(sim.COLUMNS))
        # stabilization run: LOS rates decay toward zero
        qa = data[:, sim.COLUMNS.index("q_a")]
        assert abs(qa[0]) == pytest.approx(0.2)
        assert abs(qa[-1]) < 1e-3

    def test_step_size_override_doubles_rows(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.02", "--out", str(out_a)]) == 0
        assert cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.01", "--out", str(out_b)]) == 0
        _, da = cli.read_trace_csv(out_a / "trace.csv")
        _, db = cli.read_trace_csv(out_b / "trace.csv")
        assert db.shape[0] - 1 == 2 * (da.shape[0] - 1)

    def test_unknown_preset_fails_listing_names(self, tmp_path, capsys):
        code = cli.main(["run", "--preset", "nope", "--out", str(tmp_path)])
        assert code != 0
        err = capsys.readouterr().err
        assert "fig3-stab" in err and "fig5-sin" in err

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIMBAL_OUT_DIR", str(tmp_path / "envroot"))
        code = cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.02"])
        assert code == 0
        assert (tmp_path / "envroot" / "fig3-stab" / "trace.csv").exists()

    @pytest.mark.filterwarnings("ignore:step_size")
    def test_plots_emitted(self, tmp_path):
        out = tmp_path / "plots"
        code = cli.main(
            ["run", "--preset", "fig4-step", "--step-size", "0.02", "--out", str(out), "--plots"]
        )
        assert code == 0
        for name in ("platform.svg", "rates.svg", "los_angles.svg", "torques.svg"):
            content = (out / name).read_text()
            assert content.startswith("<svg")
            assert "polyline" in content

    def test_run_from_config_file(self, tmp_path):
        sc = replace(sim.preset("fig4-step"), duration=2.0, step_size=0.01, name="cfg")
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(cli.scenario_to_ini(sc))
        out = tmp_path / "cfgout"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = cli.read_trace_csv(out / "trace.csv")
        assert data.shape[0] == 201

    def test_config_name_with_markup_and_percent(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[scenario]\nname = 50% a&b<c\ncontroller = pid\nduration = 0.5\n")
        out = tmp_path / "special"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--plots"]) == 0
        resolved = cli.scenario_from_ini((out / "scenario.resolved").read_text())
        assert resolved.name == "50% a&b<c"
        for name in ("platform.svg", "rates.svg", "los_angles.svg", "torques.svg"):
            title = ElementTree.parse(out / name).find("{http://www.w3.org/2000/svg}text").text
            assert name == "platform.svg" or title.endswith("(50% a&b<c)"), title

    @pytest.mark.parametrize(
        "initial",
        [
            # theta ranges ~1e-10 wide near 1e6: a tick step below the
            # spacing of the floats there, which used to append ticks
            # without end
            "x2 = 6e-8\ntheta_q = 1e6\ntheta_r = 1e6\n",
            # constant thetas of 1e17, where widening by 1 is absorbed:
            # used to crash on log10(0)
            "theta_q = 1e17\ntheta_r = 1e17\n",
        ],
        ids=["ticks-below-float-spacing", "widening-absorbed"],
    )
    def test_plots_of_large_angles_finish(self, tmp_path, initial):
        cfg = tmp_path / "large.ini"
        cfg.write_text(
            "[scenario]\ncontroller = open-loop\nduration = 0.002\n\n"
            f"[platform]\nkind = constant\n\n[initial]\n{initial}"
        )
        out = tmp_path / "large"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--plots"]) == 0
        for name in ("platform.svg", "rates.svg", "los_angles.svg", "torques.svg"):
            assert_complete_chart(out / name)

    @pytest.mark.parametrize("source", ["step-size", "config"])
    def test_warning_is_one_line_on_stderr(self, tmp_path, capsys, source):
        if source == "config":
            cfg = tmp_path / "coarse.ini"
            cfg.write_text(
                "[scenario]\ncontroller = stabilize\nstep_size = 0.5\n\n[gains]\nc1 = 3\nc2 = 4\n"
            )
            argv = ["--config", str(cfg)]
        else:
            argv = ["--preset", "fig3-stab", "--step-size", "0.5"]
        assert cli.main(["run", *argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: step_size 0.5 is coarse for max gain 4; "
            "closed-loop time constant is poorly resolved\n"
        )

    @pytest.mark.filterwarnings("ignore:step_size")
    def test_ignored_warning_is_not_printed(self, tmp_path, capsys):
        argv = ["run", "--preset", "fig3-stab", "--step-size", "0.5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("ignore:step_size")
    def test_seed_override_lands_in_resolved_scenario(self, tmp_path):
        out = tmp_path / "seeded"
        code = cli.main(
            ["run", "--preset", "fig3-stab-noise", "--step-size", "0.02", "--seed", "777",
             "--out", str(out)]
        )
        assert code == 0
        resolved = cli.scenario_from_ini((out / "scenario.resolved").read_text())
        assert resolved.noise.seed == 777

    @pytest.mark.parametrize(
        "section, field",
        [
            ("[noise]\nenabled = true\nsigma_y = nan\n", "sigma_y"),
            ("[noise]\nenabled = true\nsigma_z = nan\n", "sigma_z"),
            ("[reference_q]\nkind = step\namplitude = 0.1\nt_on = 1\nt_off = nan\n", "t_off"),
            ("[reference_r]\nkind = step\namplitude = 0.1\nt_on = 2\nt_off = 1\n", "t_off"),
            ("[platform]\nkind = sinusoidal\namp_q = nan\n", "platform amp_q"),
            ("[platform]\nkind = constant\nr = inf\n", "platform r"),
            (
                "[platform]\nkind = custom-table\ntimes = 0, 1\np = 0, nan\nq = 0, 0\nr = 0, 0\n",
                "platform p",
            ),
            ("[initial]\nx1 = nan\n", "[initial] initial state x1 must be finite"),
            ("[platform]\nkind = abc\n", "[platform] unknown platform kind 'abc'"),
            ("[inertia]\npitch_xy = 0.001\n", "pitch product of inertia xy = 0.001 != 0 (pitch_xy)"),
            ("[inertia]\nyaw_yy = 0.005\n", "yaw y moment must equal yaw x + pitch x moments: "
             "0.005 != 0.003 + 0.003 (yaw_yy, yaw_xx, pitch_xx)"),
            ("[inertia]\npitch_zz = 0.004\n", "pitch x and z moments differ: 0.003 != 0.004 "
             "(pitch_xx, pitch_zz)"),
            # a constructor's own check names the section
            ("[reference_r]\nkind = step\namplitude = nan\n", "[reference_r] reference amplitude"),
            ("[inertia]\npitch_yy = nan\n", "[inertia] pitch_yy must be finite, got nan"),
            ("[inertia]\nyaw_zz = -0.002\n", "[inertia] yaw_zz must be positive, got -0.002"),
        ],
    )
    def test_bad_config_value_exits_2_naming_field(self, tmp_path, capsys, section, field):
        cfg = tmp_path / "bad.ini"
        head = "[scenario]\nname = bad\ncontroller = open-loop\nduration = 0.1\n"
        cfg.write_text(head + section)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "badout")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "badout").exists()

    @pytest.mark.parametrize(
        "values, error",
        [
            ("controller = abc\n", "[scenario] unknown controller 'abc'; valid: "),
            ("duration = -1\n", "[scenario] duration must be positive"),
            ("step_size = 0.0007\n", "[scenario] duration 60 must be a whole number of steps of "
             "step_size 0.0007"),
            ("step_size = 1e308\n", "[scenario] duration 60 must be a whole number of steps of "
             "step_size 1e+308"),
        ],
        ids=["controller", "duration", "step_size", "huge-step_size"],
    )
    def test_bad_scenario_value_exits_2_naming_section(self, tmp_path, capsys, values, error):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nname = bad\n" + values)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "badout")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "badout").exists()

    def test_config_missing_los_gain_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "nogain.ini"
        cfg.write_text(
            "[scenario]\nname = nogain\ncontroller = los-track\nduration = 0.1\n"
            "[gains]\nc1 = 6\nc2 = 8\nc4 = 10\n"
        )
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "nogainout")])
        assert code == 2
        assert "[gains] LOS tracking needs all four gains c1..c4, missing c3" in capsys.readouterr().err
        assert not (tmp_path / "nogainout").exists()

    @pytest.mark.parametrize("name", ["../escaped", "..", ".", "a/b", "", "a\x00b"])
    def test_config_name_outside_output_root_exits_2(self, tmp_path, monkeypatch, capsys, name):
        # the name becomes a directory under $GIMBAL_OUT_DIR; one that
        # would leave it, is empty or holds a NUL is refused before
        # anything is written
        monkeypatch.setenv("GIMBAL_OUT_DIR", str(tmp_path / "root" / "runs"))
        cfg = tmp_path / "escape.ini"
        cfg.write_text(f"[scenario]\nname = {name}\ncontroller = open-loop\nduration = 0.1\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "scenario name" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    def test_step_size_not_dividing_duration_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.0007", "--out", str(out)])
        assert code == 2
        assert "whole number" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_step_count_exits_2_before_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--preset", "fig3-stab", "--step-size", "1e-9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "60,000,000,000 steps, more than MAX_STEPS" in err and "Traceback" not in err
        assert not out.exists()

    def test_duplicate_key_exits_2_naming_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "dup.ini"
        cfg.write_text("[scenario]\nname = dup\nname = again\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "dupout")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: While reading from {str(cfg)!r} [line  3]: "
            "option 'name' in section 'scenario' already exists\n"
        )
        assert not (tmp_path / "dupout").exists()

    def test_config_typo_exits_2_naming_section_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.ini"
        cfg.write_text("[scenario]\nname = typo\ncontroler = stabilize\nduration = 0.1\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "typoout")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[scenario]" in err and "'controler'" in err
        assert not (tmp_path / "typoout").exists()

    def test_python_dash_m_runs_from_source_tree(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("GIMBAL_OUT_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "gimbalsim", "run", "--preset", "fig3-stab",
             "--step-size", "0.02", "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig3-stab: 3001 rows" in proc.stdout
        _, data = cli.read_trace_csv(tmp_path / "out" / "trace.csv")
        assert data.shape == (3001, len(sim.COLUMNS))

    def test_helper_forks_beside_native_threads(self, tmp_path):
        # With no *_NUM_THREADS limit numpy's BLAS library may run a
        # thread pool that threading.active_count() does not see; the
        # helper still forks there and the trace stays exact.
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(src)
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from gimbalsim import cli, sim\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "data = np.random.default_rng(5).standard_normal((cli.CSV_FORK_MIN_ROWS, 16))\n"
            "np.save(sys.argv[1], data)\n"
            "with cli._trace_writer(sys.argv[2]) as observe:\n"
            "    observe(data, 256)\n"
            "    observe(data, len(data))\n"
            "print(len(forks))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data.npy"), str(tmp_path / "trace.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"
        reference_write(np.load(tmp_path / "data.npy"), tmp_path / "reference.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.usefixtures("two_cpus")
    def test_trace_is_the_returned_record_when_no_block_was_observed(self, tmp_path, monkeypatch):
        # an integrate run in another context reports no blocks to the
        # trace writer; run then writes the record it returns
        monkeypatch.setattr(cli, "integrate", lambda sc: contextvars.Context().run(integrate, sc))
        out = tmp_path / "out"
        assert cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.01", "--out", str(out)]) == 0
        _, data = cli.read_trace_csv(out / "trace.csv")
        rec = integrate(replace(sim.preset("fig3-stab"), step_size=0.01))
        assert np.array_equal(data.view(np.uint64), rec.data.view(np.uint64))

    @pytest.mark.parametrize("blocked", ["trace.csv", "scenario.resolved", "rates.svg"])
    def test_unwritable_artifact_exits_2_naming_it(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code = cli.main(
            ["run", "--preset", "fig3-stab", "--step-size", "0.02", "--plots", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / blocked}: ")

    @pytest.mark.usefixtures("two_cpus")
    def test_failed_helper_exits_2_naming_trace(self, tmp_path, capsys, monkeypatch):
        # 6001 rows: long enough for the helper, which fails to format
        break_in(monkeypatch, "_csv_rows", in_helper=True)
        out = tmp_path / "out"
        code = cli.main(["run", "--preset", "fig3-stab", "--step-size", "0.01", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'trace.csv'}: formatting helper exited with status 1\n"

    def test_divergence_returns_nonzero(self, tmp_path, capsys):
        sc = boom(duration=2.0, step_size=0.01, t_on=0.0)
        cfg = tmp_path / "boom.ini"
        cfg.write_text(cli.scenario_to_ini(sc))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "boomout")])
        assert code != 0
        assert "diverged" in capsys.readouterr().err
        assert_trace_is_partial_record(tmp_path / "boomout", sc)

    @pytest.mark.usefixtures("two_cpus")
    def test_divergence_after_the_helper_forked_writes_the_rows_before_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # 5,001 rows, blowing up near row 3,000: the stream has forked
        # its helper and is aborted, then the rows up to the blow-up are
        # written on their own
        sc = boom(duration=5.0, step_size=0.001, t_on=3.0)
        cfg = tmp_path / "boom.ini"
        cfg.write_text(cli.scenario_to_ini(sc))
        calls = count_forks(monkeypatch)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "boomout")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: simulation diverged: state left the finite range in the step from t=3"
        )
        assert len(calls) == 1
        assert_trace_is_partial_record(tmp_path / "boomout", sc)


def assert_complete_chart(path):
    """``path`` is a whole SVG chart whose every coordinate is finite."""
    text = Path(path).read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    coords = []
    for node in ElementTree.fromstring(text).iter():
        coords += [float(node.get(a)) for a in ("x", "y", "x1", "y1", "x2", "y2") if node.get(a)]
        coords += [float(v) for v in re.split("[ ,]", node.get("points", "")) if v]
    assert coords and all(math.isfinite(v) for v in coords)


# Finite bounds for an axis, spread over every magnitude the floats have
axis_bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, 1e6, 1e17, 1e300, -1e300,
                     sys.float_info.max, -sys.float_info.max]),
)


@st.composite
def axis_ranges(draw):
    """(lo, hi), lo <= hi: equal values, a few ulps apart, or any two."""
    lo = draw(axis_bounds)
    kind = draw(st.sampled_from(["equal", "ulps", "any"]))
    hi = draw(axis_bounds) if kind == "any" else lo
    if kind == "ulps":
        for _ in range(draw(st.integers(1, 8))):
            hi = min(math.nextafter(hi, math.inf), sys.float_info.max)
    return min(lo, hi), max(lo, hi)


class TestSvgChart:
    @seed(25)
    @settings(max_examples=400, deadline=None)
    @given(axis_ranges(), st.sampled_from([0.0, 0.05]))
    def test_axis_is_finite_with_a_few_ticks_inside(self, bounds, pad):
        lo, hi = bounds
        lo2, hi2, ticks = cli._axis(lo, hi, pad)
        assert math.isfinite(lo2) and math.isfinite(hi2)
        assert lo2 < hi2 and lo2 <= lo and hi <= hi2
        assert 2 <= len(ticks) <= 13
        assert all(lo2 <= v <= hi2 for v in ticks)
        assert ticks == sorted(set(ticks))

    def test_values_beyond_the_float_range_are_charted(self, tmp_path):
        # the values span 2e308, more than the largest float
        t = np.linspace(0.0, 1.0, 5)
        path = tmp_path / "wide.svg"
        cli.write_svg_chart(path, "x", "y", [("a", t, np.array([-1e308, 0, 0, 0, 1e308]))])
        assert_complete_chart(path)


def boom(t_on, **fields):
    """A PID scenario that diverges once its step reference comes on."""
    return Scenario(
        name="boom",
        controller="pid",
        platform=ConstantPlatform(),
        ref_q=ReferenceSpec(kind="step", amplitude=1.0, t_on=t_on),
        pid=replace(sim.preset("fig4-step-pid").pid, kd_q=1e160, kp_q=1e160),
        **fields,
    )


def assert_trace_is_partial_record(outdir, sc):
    with pytest.raises(sim.SimulationDiverged) as info:
        integrate(sc)
    header, data = cli.read_trace_csv(outdir / "trace.csv")
    assert header == sim.COLUMNS
    assert np.array_equal(data.view(np.uint64), info.value.record.data.view(np.uint64))
    assert not (outdir / "scenario.resolved").exists()


class TestVerifyCommand:
    def test_roundtrip_suite_passes(self, capsys):
        assert cli.main(["verify", "roundtrip"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_lemma1_alias(self, capsys):
        assert cli.main(["verify", "lemma1"]) == 0
        assert "roundtrip" in capsys.readouterr().out

    def test_oracle_suite_passes(self, capsys):
        assert cli.main(["verify", "oracle"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_decay_suite_passes(self, capsys):
        assert cli.main(["verify", "decay"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    @pytest.mark.usefixtures("two_cpus")
    def test_failed_helper_exits_2(self, capsys, monkeypatch):
        break_in(monkeypatch, "verify_roundtrip", in_helper=True)
        assert cli.main(["verify", "all"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 5] roundtrip helper exited with status 1\n"


class TestCompareCommand:
    def test_compare_preset_with_itself_identical_metrics(self):
        rec = small_record()
        ma = cli.run_metrics(rec)
        mb = cli.run_metrics(integrate(rec.scenario))
        assert ma == mb

    @pytest.mark.parametrize("controller", ["stabilize", "open-loop"])
    def test_metrics_of_a_run_that_ignores_its_references_are_against_zero(self, controller):
        # integrate ignores these references, so the metrics must too
        base = replace(sim.preset("fig3-stab"), controller=controller, duration=2.0, name="m0")
        sine = ReferenceSpec(kind="sinusoid", amplitude=0.5, omega=3.0)
        with_refs = replace(base, ref_q=sine, ref_r=sine, name="m1")
        rec = integrate(with_refs)
        assert rec.data.tobytes() == integrate(base).data.tobytes()
        assert cli.run_metrics(rec) == cli.run_metrics(integrate(base))

    def test_metrics_refuse_a_rate_tracking_record(self):
        sc = replace(sim.preset("fig3-stab"), controller="rate-track", duration=0.1, name="rt")
        with pytest.raises(ValueError, match="'rate-track'"):
            cli.run_metrics(integrate(sc))

    def test_compare_command_prints_table(self, capsys):
        # a cheap deterministic pair through the real code path
        code = cli.main(["compare", "fig3-stab", "fig3-stab"])
        assert code == 0
        out = capsys.readouterr().out
        assert "settling" in out and "IAE" in out

    def test_noise_increases_integrated_error(self):
        # expectation over several seeds at a coarse step for speed
        base = replace(sim.preset("fig5-sin"), duration=30.0, step_size=0.005, name="cmp")
        iae_free = cli.run_metrics(integrate(base))["theta_r"].iae
        noisy = []
        for seed in range(5):
            sc = replace(
                base,
                noise=NoiseSpec(enabled=True, seed=seed),
                name=f"cmp{seed}",
            )
            noisy.append(cli.run_metrics(integrate(sc))["theta_r"].iae)
        assert np.mean(noisy) >= iae_free

    def test_unknown_preset_rejected(self, capsys):
        assert cli.main(["compare", "fig3-stab", "what"]) != 0

    def test_unknown_second_preset_exits_2_before_integrating(self, capsys, monkeypatch):
        def integrate(sc):
            raise AssertionError(f"integrated {sc.name} before both presets were found")

        monkeypatch.setattr(cli, "integrate", integrate)
        assert cli.main(["compare", "fig3-stab", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown preset 'nope'")


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in sim.preset_names():
            assert name in out
