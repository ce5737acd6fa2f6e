"""Workload process of the gimbalsim benchmark.

Started by ``run.py``, once per workload run and once per extra set-up
sample; not meant to be run by hand. It imports ``gimbalsim`` from the
checkout's ``src``, builds the workload inputs from the seed, prints
``READY``, runs one untimed warm-up operation and then operations until
their summed time reaches ``--seconds``. Every operation's outputs are
checked right after it, outside its timing. The last line printed is a
JSON object that ``run.py`` turns into the benchmark result.

With ``--trace 1`` each operation runs twice, untraced then traced, so
the tracing overhead is measured on identical work; spans are written to
``--spans`` and the per-layer numbers are computed from that file.

The inputs depend on the seed only through ``seed % RECORDED_SEEDS``, so
that every output of every run is checked against a value recorded in
``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
# Input variants with recorded outputs; seed n runs variant n % 32.
RECORDED_SEEDS = 32


def import_gimbalsim():
    """Import the package from this checkout's ``src``, never from an
    installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gimbalsim
    import gimbalsim.cli

    where = Path(gimbalsim.__file__).resolve().parent
    if where != (src / "gimbalsim").resolve():
        raise ImportError(f"gimbalsim imported from {where}, not from {src}")
    return gimbalsim


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bits_equal(a, b) -> bool:
    """Same shape and the same float64 bit patterns."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def load_expected() -> dict:
    """The recorded outputs. A missing file is an error, not an empty
    record: the output checks must never be silently skipped."""
    return json.loads(EXPECTED.read_text())


class Workload:
    """One benchmark workload: inputs built in ``__init__`` (set-up),
    ``op(i)`` is the timed operation, ``check(i, out)`` lists every
    mismatch in its outputs."""

    name = ""
    # In a traced run, operations 1..replay_ops keep their records for
    # the per-layer replay; all others drop them once checked.
    replay_ops = 0

    def __init__(self, seed: int, tmp: Path, recording: bool = False):
        import gimbalsim.cli as cli
        import gimbalsim.sim as sim

        self.cli, self.sim = cli, sim
        self.tmp = tmp
        self.variant = seed % RECORDED_SEEDS
        # None only while record.py builds expected.json
        self.expected = None if recording else load_expected()[self.name]
        self.captured = []
        # Capture the records cli.main integrates (for output checks and
        # step counts); one extra Python call per integration. Only the
        # newest workload object of a process captures.
        real_integrate = getattr(cli.integrate, "__wrapped__", cli.integrate)

        def capture(scenario):
            rec = real_integrate(scenario)
            self.captured.append(rec)
            return rec

        capture.__wrapped__ = real_integrate
        cli.integrate = capture

    def recorded(self, *keys):
        """The recorded value at ``keys``, or None while recording. A
        value missing from expected.json fails the check."""
        if self.expected is None:
            return None
        value = self.expected
        try:
            for k in keys:
                value = value[k]
        except (KeyError, IndexError):
            raise LookupError(f"expected.json has no value for {self.name} {keys}") from None
        return value

    def _main(self, argv) -> tuple[int, str]:
        """``cli.main(argv)`` with its stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def final_check(self, outs) -> list[str]:
        """Checks made once after the timed loop."""
        return []

    def take_records(self):
        recs, self.captured = self.captured, []
        return recs

    def trace_targets(self):
        from tracing import CLI_BOUNDARIES

        return [(self.cli, CLI_BOUNDARIES), (self, {"_main": "cli.main"})]


def _count_steps(out: dict, records) -> None:
    out["steps"] = sum(r.n_rows - 1 for r in records)
    out["guard_steps"] = int(sum(int(r.guard_active[:-1].sum()) for r in records))


# ---------------------------------------------------------------------------
# run-presets: the user path, `gimbalsim run --preset p --plots`


class RunPresets(Workload):
    name = "run-presets"
    replay_ops = 7  # one operation per preset

    def __init__(self, seed, tmp, recording=False):
        super().__init__(seed, tmp, recording)
        self.presets = self.sim.preset_names()

    def op(self, i):
        p = self.presets[i % len(self.presets)]
        outdir = self.tmp / f"op{i}"
        rc, _ = self._main(
            ["run", "--preset", p, "--plots", "--out", str(outdir), "--seed", str(self.variant)]
        )
        out = {"preset": p, "dir": outdir, "rc": rc, "records": self.take_records()}
        _count_steps(out, out["records"])
        return out

    def check(self, i, out):
        import numpy as np

        cli, sim = self.cli, self.sim
        p, outdir, recs = out["preset"], out["dir"], out["records"]
        errors = []
        if out["rc"] != 0:
            errors.append(f"{p}: exit status {out['rc']}")
        if len(recs) != 1:
            return errors + [f"{p}: {len(recs)} integrations, expected 1"]
        trace = outdir / cli.TRACE_FILENAME
        svgs = sorted(outdir.glob("*.svg"))
        out["trace_bytes"] = trace.stat().st_size
        out["svg_bytes"] = sum(s.stat().st_size for s in svgs)
        with open(trace) as f:
            header = f.readline().strip().split(",")
        if tuple(header) != sim.COLUMNS:
            errors.append(f"{p}: trace header {header}")
        # parsed independently of cli.read_trace_csv, which check measures
        if not bits_equal(np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2), recs[0].data):
            errors.append(f"{p}: trace.csv does not parse back bit-exactly")
        digest = sha256(trace)
        sc = sim.preset(p)
        if sc.noise.enabled:
            want = self.recorded("seeded_trace_sha256", str(self.variant), p)
        else:
            want = self.recorded("trace_sha256", p)
        if want is not None and digest != want:
            errors.append(f"{p}: trace sha256 {digest} != recorded {want}")
        out["sha256"] = digest
        sc = replace(sc, noise=replace(sc.noise, seed=self.variant))
        if cli.scenario_from_ini((outdir / cli.RESOLVED_FILENAME).read_text()) != sc:
            errors.append(f"{p}: scenario.resolved does not parse back to the scenario")
        if len(svgs) != 4 or any(
            not (t.startswith("<svg") and t.endswith("</svg>\n"))
            for t in (s.read_text() for s in svgs)
        ):
            errors.append(f"{p}: expected 4 complete SVG charts, found {len(svgs)}")
        shutil.rmtree(outdir)
        return errors

    def replay_records(self, outs):
        return [r for o in outs if not o["traced"] for r in o["records"]]

    def report(self, outs):
        return {"run_s.p50": ("s", statistics.median(o["wall"] for o in outs))}


# ---------------------------------------------------------------------------
# sweep: an ensemble of short library-only integrations plus analysis

SWEEP_DURATION = 2.0
TABLE_BREAKPOINTS = 1000
_CONTROLLERS = ("stabilize", "rate-track", "los-track", "pid")
# One member in 8 replays a gyro-log table. A table member takes about
# 3.7x as long as a sinusoidal one (linear-scan lookup), so table members
# take about a third of the sweep's time and the shared integrate kernel
# the other two thirds.
_PLATFORMS = ("sinusoidal",) * 7 + ("table",)
# One member in 4 starts within 0.2 rad of +-90 deg pitch, where the
# guard engages; those hold it for about two thirds of their steps.
_PITCH = ("moderate", "moderate", "moderate", "near-90deg")
# Platform kind varies fastest, then controller: any 32 consecutive
# members hold every controller on both platform kinds, so a run's mix
# does not depend on how many members fit in it. Member i is the
# member i % len(SWEEP_COMBOS) of the cycle, whose summary is recorded.
SWEEP_COMBOS = [
    (c, p, noise, pitch)
    for noise in (False, True) for pitch in _PITCH for c in _CONTROLLERS for p in _PLATFORMS
]


def sweep_member(sim, variant: int, i: int):
    """Scenario of sweep member ``i`` (0 <= i < len(SWEEP_COMBOS)) of
    input variant ``variant``."""
    from gimbalsim.control import ControlGains, GuardSpec, PidParams
    from gimbalsim.plant import GimbalState, NoiseSpec

    rng = random.Random(f"sweep/{variant}/{i}")
    u = rng.uniform
    controller, platform_kind, noisy, pitch = SWEEP_COMBOS[i]

    if platform_kind == "table":
        # a gyro log: slow sinusoids plus a random walk, piecewise linear
        n, dt = TABLE_BREAKPOINTS, SWEEP_DURATION / TABLE_BREAKPOINTS
        times = tuple(k * dt for k in range(n + 1))
        channels = []
        for amp in (0.1, 0.1, 0.2):
            a, w, ph, walk, vals = u(0.3, 1.0) * amp, u(0.5, 3.0), u(0, 2 * math.pi), 0.0, []
            for t in times:
                walk += rng.gauss(0.0, 0.002)
                vals.append(a * math.sin(w * t + ph) + walk)
            channels.append(tuple(vals))
        platform = sim.TablePlatform(times, *channels)
    else:
        platform = sim.SinusoidalPlatform(
            u(0.02, 0.15), u(0.3, 3.0), u(0.02, 0.15), u(0.3, 3.0), u(0.05, 0.3), u(0.3, 3.0)
        )

    if pitch == "moderate":
        x1 = u(-0.6, 0.6)
    else:  # within 0.2 rad of +-90 deg: |cos x1| starts below the guard threshold
        x1 = math.copysign(math.pi / 2 - u(0.02, 0.2), rng.choice((1.0, -1.0)))
    x0 = GimbalState(x1, u(-0.3, 0.3), u(-math.pi, math.pi), u(-0.3, 0.3), 0.0, 0.0)

    def angle_ref():
        if rng.random() < 0.5:
            return sim.ReferenceSpec(kind="step", amplitude=u(-0.6, 0.6), t_on=u(0.1, 0.6))
        return sim.ReferenceSpec(kind="sinusoid", amplitude=u(0.1, 0.6), omega=u(0.5, 2.5))

    gains, pid, ref_q, ref_r = None, PidParams(), sim.ReferenceSpec(), sim.ReferenceSpec()
    if controller == "stabilize":
        gains = ControlGains(u(2.0, 20.0), u(2.0, 20.0))
    elif controller == "rate-track":
        gains = ControlGains(u(2.0, 20.0), u(2.0, 20.0))
        ref_q, ref_r = (
            sim.ReferenceSpec(kind="sinusoid", amplitude=u(0.05, 0.3), omega=u(0.5, 3.0))
            for _ in range(2)
        )
    elif controller == "los-track":
        gains = ControlGains(u(4.0, 15.0), u(4.0, 20.0), u(4.0, 15.0), u(4.0, 20.0))
        ref_q, ref_r = angle_ref(), angle_ref()
    else:
        kq, kr = (u(1.0, 4.0), u(0.0, 0.6), u(1.0, 5.0)), (u(1.0, 4.0), u(0.0, 0.6), u(1.0, 5.0))
        pid = PidParams(*kq, *kr)
        ref_q, ref_r = angle_ref(), angle_ref()

    noise = NoiseSpec(enabled=noisy, seed=rng.randrange(2**31))
    return sim.Scenario(
        name=f"sweep-{i}", controller=controller, duration=SWEEP_DURATION, initial_state=x0,
        platform=platform, gains=gains, ref_q=ref_q, ref_r=ref_r, noise=noise,
        guard=GuardSpec(u(0.2, 0.45)), pid=pid,
    )


def _reference_values(ref, t):
    import numpy as np

    if ref.kind == "step":
        return np.where((t >= ref.t_on) & (t < ref.t_off), ref.amplitude, 0.0)
    if ref.kind == "sinusoid":
        return ref.amplitude * np.sin(ref.omega * t)
    return np.zeros_like(t)


def summary_digest(summary) -> str:
    """Short digest of a member's summary floats, bit for bit."""
    return hashlib.sha256(" ".join(v.hex() for v in summary).encode()).hexdigest()[:16]


class Sweep(Workload):
    name = "sweep"
    # records kept for the replay: every combination with noise off
    replay_ops = len(SWEEP_COMBOS) // 2

    def __init__(self, seed, tmp, recording=False):
        super().__init__(seed, tmp, recording)
        sim = self.sim
        self.integrate = sim.integrate
        self.rms, self.settling_time = sim.rms, sim.settling_time
        self.integrated_abs_error = sim.integrated_abs_error
        # The warm-up member and the first timed one; check() builds
        # each next member, outside the timed operation.
        self.members = {}
        for i in (0, 1):
            self.member(i)
        digests = self.recorded("summaries_sha256", str(self.variant))
        self.want = digests.split() if digests is not None else None

    def member(self, i):
        k = i % len(SWEEP_COMBOS)
        if k not in self.members:
            self.members[k] = sweep_member(self.sim, self.variant, k)
        return self.members[k]

    def analyse(self, rec) -> tuple[float, ...]:
        """Tracking error RMS, settling time and IAE per channel: rates
        for the rate laws, LOS angles for the angle laws."""
        import numpy as np

        sc, t = rec.scenario, rec.t
        rate_law = sc.controller in ("stabilize", "rate-track")
        yq, yr = (rec.q_a, rec.r_a) if rate_law else (rec.theta_q, rec.theta_r)
        out = []
        for ref, y in ((sc.ref_q, yq), (sc.ref_r, yr)):
            target = _reference_values(ref, t)
            e = target - y
            peak = float(np.max(np.abs(target)))
            band = 0.02 * peak if peak > 0.0 else 0.01
            out += [self.rms(e), self.settling_time(t, e, 0.0, band),
                    self.integrated_abs_error(t, e)]
        return tuple(out)

    def run_member(self, sc):
        rec = self.integrate(sc)
        return rec, self.analyse(rec)

    def op(self, i):
        sc = self.member(i)
        rec, summary = self.run_member(sc)
        out = {"member": i, "summary": summary, "records": [rec],
               "kind": SWEEP_COMBOS[i % len(SWEEP_COMBOS)][1]}
        _count_steps(out, [rec])
        return out

    def check(self, i, out):
        s = out["summary"]
        errors = []
        if not all(math.isfinite(v) for k, v in enumerate(s) if k % 3 != 1):
            errors.append(f"member {i}: non-finite RMS or IAE {s}")
        if self.want is not None:
            want = self.want[i % len(SWEEP_COMBOS)]
            if summary_digest(s) != want:
                errors.append(f"member {i}: summary {s} does not match recorded digest {want}")
        self.member(i + 1)
        return errors

    def final_check(self, outs):
        """Integrate the first two members again: same summary bits."""
        errors = []
        for o in outs[:2]:
            again = self.run_member(self.member(o["member"]))[1]
            if [v.hex() for v in again] != [v.hex() for v in o["summary"]]:
                errors.append(f"member {o['member']}: not deterministic")
        return errors

    def trace_targets(self):
        return [(self, {"integrate": "sim.integrate", "rms": "sim.analysis",
                        "settling_time": "sim.analysis", "integrated_abs_error": "sim.analysis"})]

    def replay_records(self, outs):
        return [r for o in outs if not o["traced"] for r in o["records"]]

    def report(self, outs):
        walls = sorted(o["wall"] for o in outs)
        q = statistics.quantiles(walls, n=10) if len(walls) >= 2 else walls * 9
        rep = {"member_s.p50": ("s", statistics.median(walls)), "member_s.p90": ("s", q[8])}
        for kind in ("sinusoidal", "table"):
            kw = [o["wall"] for o in outs if o["kind"] == kind]
            rep[f"member_s.p50.{kind}"] = ("s", statistics.median(kw) if kw else 0.0)
        rep["table_time_share"] = (
            "ratio", sum(o["wall"] for o in outs if o["kind"] == "table") / sum(walls))
        steps = sum(o["steps"] for o in outs)
        rep["guard_step_share"] = ("ratio", sum(o["guard_steps"] for o in outs) / steps)
        return rep


# ---------------------------------------------------------------------------
# check: verify, trace metrics, and the CSV / INI read side

CHECK_TRACE_PRESETS = ("fig4-step-noise", "fig5-sin")
CHECK_TRACE_DURATION = 10.0


def metrics_hex(metrics) -> dict[str, list[str]]:
    return {ch: [float(v).hex() for v in m] for ch, m in metrics.items()}


class Check(Workload):
    """One operation is one round of ``gimbalsim verify all``,
    ``cli.run_metrics`` on the two set-up records (what ``compare``
    computes once it has integrated its pair), and ``read_trace_csv``
    plus ``scenario_from_ini`` on the traces written during set-up."""

    name = "check"
    replay_ops = 1

    def __init__(self, seed, tmp, recording=False):
        super().__init__(seed, tmp, recording)
        cli, sim = self.cli, self.sim
        self.inputs = []
        for p in CHECK_TRACE_PRESETS:
            sc = sim.preset(p)
            sc = replace(sc, duration=CHECK_TRACE_DURATION,
                         noise=replace(sc.noise, seed=self.variant))
            rec = sim.integrate(sc)
            d = tmp / p
            d.mkdir(parents=True)
            cli.write_trace_csv(rec, d / cli.TRACE_FILENAME)
            (d / cli.RESOLVED_FILENAME).write_text(cli.scenario_to_ini(sc))
            self.inputs.append((d, rec))
        self.input_sha256 = {d.name: sha256(d / cli.TRACE_FILENAME) for d, _ in self.inputs}
        want = self.recorded("trace_sha256", str(self.variant))
        self.setup_errors = []
        if want is not None and self.input_sha256 != want:
            self.setup_errors.append(f"input traces {self.input_sha256} != recorded {want}")

    def op(self, i):
        cli = self.cli
        t0 = time.perf_counter()
        verify = self._main(["verify", "all"])
        t1 = time.perf_counter()
        metrics = [cli.run_metrics(rec) for _, rec in self.inputs]
        t2 = time.perf_counter()
        parsed = []
        for d, _ in self.inputs:
            header, data = cli.read_trace_csv(d / cli.TRACE_FILENAME)
            sc = cli.scenario_from_ini((d / cli.RESOLVED_FILENAME).read_text())
            parsed.append((header, data, sc))
        t3 = time.perf_counter()
        out = {"verify": verify, "metrics": metrics, "parsed": parsed,
               "verify_s": t1 - t0, "metrics_s": t2 - t1, "read_s": t3 - t2,
               "rows_read": sum(len(p[1]) for p in parsed),
               "bytes_read": sum((d / cli.TRACE_FILENAME).stat().st_size for d, _ in self.inputs)}
        out["records"] = self.take_records()
        _count_steps(out, out["records"])
        return out

    def check(self, i, out):
        errors = []
        rc, text = out["verify"]
        if rc != 0:
            errors.append(f"verify all: exit status {rc}")
        want = self.recorded("verify_all")
        if want is not None and text != want:
            errors.append("verify all: output differs from the recorded output")
        got = {d.name: metrics_hex(m) for (d, _), m in zip(self.inputs, out.pop("metrics"))}
        want = self.recorded("run_metrics", str(self.variant))
        if want is not None and got != want:
            errors.append(f"run_metrics: {got} != recorded {want}")
        for (d, rec), (header, data, sc) in zip(self.inputs, out.pop("parsed")):
            if header != self.sim.COLUMNS or not bits_equal(data, rec.data):
                errors.append(f"{d.name}: read_trace_csv is not the written record")
            if sc != rec.scenario:
                errors.append(f"{d.name}: scenario_from_ini is not the written scenario")
        return errors

    def final_check(self, outs):
        return self.setup_errors

    def replay_records(self, outs):
        kept = [r for o in outs if not o["traced"] for r in o["records"]]
        return [rec for _, rec in self.inputs] + kept

    def report(self, outs):
        read_s = sum(o["read_s"] for o in outs)
        return {
            "verify_s.p50": ("s", statistics.median(o["verify_s"] for o in outs)),
            "metrics_s.p50": ("s", statistics.median(o["metrics_s"] for o in outs)),
            "read_rows_per_s": ("1/s", sum(o["rows_read"] for o in outs) / read_s),
        }


WORKLOADS = {w.name: w for w in (RunPresets, Sweep, Check)}


# ---------------------------------------------------------------------------
# Timed loop


def run_op(wl, i, tracer=None, keep_records=False):
    """Run operation ``i`` (traced if ``tracer``), check it. Returns the
    outcome with its wall time and list of errors; its records are kept
    only if ``keep_records``."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(i)
        else:
            with tracer.operation(i, "op", wl.trace_targets()):
                out = wl.op(i)
        out["wall"] = time.perf_counter() - t0
        out["errors"] = wl.check(i, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        wl.take_records()
        out = {"wall": time.perf_counter() - t0, "errors": ["exception"], "records": [],
               "steps": 0, "guard_steps": 0}
    out["op"], out["traced"] = i, tracer is not None
    if not keep_records:
        out["records"] = []
    for e in out["errors"]:
        print(f"MISMATCH op {i}: {e}", file=sys.stderr)
    return out


def measure(wl, seconds: float, tracer=None):
    """Warm up with operation 0, then run operations 1, 2, ... until
    they have taken ``seconds`` in sum. With a tracer, each operation is
    repeated traced right after its untraced run."""
    warm = run_op(wl, 0)
    outs, spent, i = [], 0.0, 1
    while spent < seconds:
        outs.append(run_op(wl, i, keep_records=tracer is not None and i <= wl.replay_ops))
        spent += outs[-1]["wall"]
        if tracer is not None:
            outs.append(run_op(wl, i, tracer))
            spent += outs[-1]["wall"]
        i += 1
    return warm, outs


def layer_metrics(wl, outs, spans_path: Path):
    """Per-layer metrics of a traced run, from the spans written to
    ``spans_path`` and a replay of the workload's recorded traces."""
    from tracing import load_spans, replay, span_stats

    spans = load_spans(spans_path)
    stats = span_stats(spans)
    traced = [o for o in outs if o["traced"]]
    plain = [o for o in outs if not o["traced"]]
    n = len(traced)

    def busy(name):
        return stats.get(name, {}).get("self_s", 0.0) / n

    def wait(name):
        s = stats.get(name)
        return (s["wall_s"] - s["cpu_s"]) / n if s else 0.0

    def mb_per_s(name, nbytes):
        s = stats.get(name)
        return nbytes / s["wall_s"] / 1e6 if s and s["wall_s"] > 0 else 0.0

    steps = sum(o["steps"] for o in outs)
    guard = sum(o["guard_steps"] for o in outs)
    traced_steps = sum(o["steps"] for o in traced)
    integ = stats.get("sim.integrate", {}).get("wall_s", 0.0)
    m = {
        "sim.integrate.busy_s": ("s", busy("sim.integrate")),
        "sim.integrate.ns_per_step": ("ns", integ / traced_steps * 1e9 if traced_steps else 0.0),
        "sim.analysis.busy_s": ("s", busy("sim.analysis")),
        "sim.steps": ("count", steps),
        "sim.guard_active_steps": ("count", guard),
        "sim.guard_active_share": ("ratio", guard / steps if steps else 0.0),
        "control.roundtrip.busy_s": ("s", busy("control.roundtrip")),
        "cli.csv_write.busy_s": ("s", busy("cli.csv_write")),
        "cli.csv_write.wait_s": ("s", wait("cli.csv_write")),
        "cli.csv_write.mb_per_s": (
            "MB/s", mb_per_s("cli.csv_write", sum(o.get("trace_bytes", 0) for o in traced))),
        "cli.trace_bytes": ("B", statistics.mean(o.get("trace_bytes", 0) for o in outs)),
        "cli.csv_read.busy_s": ("s", busy("cli.csv_read")),
        "cli.csv_read.wait_s": ("s", wait("cli.csv_read")),
        "cli.csv_read.mb_per_s": (
            "MB/s", mb_per_s("cli.csv_read", sum(o.get("bytes_read", 0) for o in traced))),
        "cli.svg.busy_s": ("s", busy("cli.svg")),
        "cli.svg_bytes": ("B", statistics.mean(o.get("svg_bytes", 0) for o in outs)),
        "cli.ini.busy_s": ("s", busy("cli.ini")),
        "cli.verify.decay.busy_s": ("s", busy("cli.verify.decay")),
        "cli.verify.oracle.busy_s": ("s", busy("cli.verify.oracle")),
        "cli.metrics.busy_s": ("s", busy("cli.metrics")),
    }
    # cli.main time not covered by its traced child spans. Taken within
    # the traced run: pairing it with the untraced repeat instead would
    # add that pair's run-to-run noise, larger than the overhead itself.
    m["cli.main.overhead_s"] = ("s", busy("cli.main"))
    # Tracing overhead: median over operations of traced minus untraced
    # time of the same operation, run back to back.
    untraced = {o["op"]: o["wall"] for o in plain}
    untraced_p50 = statistics.median(untraced.values())
    overhead = statistics.median(o["wall"] - untraced[o["op"]] for o in traced)
    m["trace.overhead_s"] = ("s", overhead)
    m["trace.overhead_share"] = ("ratio", overhead / untraced_p50)

    keys = ("sim.platform.ns_per_call.sinusoidal", "sim.platform.ns_per_call.table",
            "plant.rhs.ns_per_call", "kinematics.los_rates.ns_per_call",
            "control.law.ns_per_call.stabilize", "control.law.ns_per_call.rate-track",
            "control.law.ns_per_call.los-track", "control.law.ns_per_call.pid",
            "control.torque_map.ns_per_call")
    recs = wl.replay_records(outs)
    timed = replay(recs, rows_per_record=max(50, 20000 // max(1, len(recs))))
    for k in keys:
        ns, calls = timed.get(k, (0, 0))
        m[k] = ("ns", ns / calls if calls else 0.0)

    # Accounting: the root's child spans (layer spans plus the cli.main
    # overhead) against the untraced time of the same operation.
    roots = {s["id"]: s["op"] for s in spans if s["parent"] < 0}
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] in roots:
            covered[s["op"]] = covered.get(s["op"], 0.0) + (s["t1_ns"] - s["t0_ns"]) * 1e-9
    info = {
        "untraced_op_s.p50": untraced_p50,
        "spans_s.p50": statistics.median(covered.get(o["op"], 0.0) for o in traced),
        "gap_s.p50": statistics.median(untraced[o["op"]] - covered.get(o["op"], 0.0)
                                       for o in traced),
        "trace_overhead_s": overhead,
        "uncovered_traced_s.p50": statistics.median(o["wall"] - covered.get(o["op"], 0.0)
                                                    for o in traced),
    }
    return m, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="trace the run and write spans here")
    args = ap.parse_args(argv)

    import_gimbalsim()
    args.tmp.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
    warm, outs = measure(wl, args.seconds, tracer)
    errors = list(warm["errors"]) + [e for o in outs for e in o["errors"]]
    final = wl.final_check(outs)
    for e in final:
        print(f"MISMATCH: {e}", file=sys.stderr)
    plain = [o for o in outs if not o["traced"]]
    ok = [o for o in plain if "exception" not in o["errors"]]
    wall = sum(o["wall"] for o in plain)
    result = {
        "attempted": 1 + len(outs),
        "failed": int(bool(warm["errors"])) + sum(1 for o in outs if o["errors"]) + len(final),
        "metrics": {
            "steps_per_s": ("1/s", sum(o["steps"] for o in plain) / wall),
            "op_s.p50": ("s", statistics.median(o["wall"] for o in plain)),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        },
        "operations": len(plain),
        "op_walls_s": [o["wall"] for o in plain],
        "report": wl.report(ok) if ok else {},
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"], result["accounting"] = layer_metrics(wl, outs, args.spans)
    result["errors"] = errors + final
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
