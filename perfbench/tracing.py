"""Spans recorded from the benchmark's own files, and per-layer replay.

A :class:`Tracer` keeps spans in memory: name, start, end, thread CPU
time at both ends, the parent span and the id of the operation they
belong to. Layer boundaries inside the ``gimbalsim.cli`` module are
traced by swapping the module attributes that ``cli.main`` looks up for
wrappers while a traced operation runs; the package files are never
changed.

The plant, kinematics and control layers run inside ``sim.integrate``
where no span can reach them from outside. :func:`replay` times each of
their public entry points on the states and platform samples recorded
in the workload's own traces, calling them the way ``integrate`` does.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module attribute of gimbalsim.cli, span name). cli.main resolves these
# through its module globals, so swapping the attribute traces the call.
CLI_BOUNDARIES = {
    "integrate": "sim.integrate",
    "write_trace_csv": "cli.csv_write",
    "read_trace_csv": "cli.csv_read",
    "emit_plots": "cli.svg",
    "scenario_to_ini": "cli.ini",
    "scenario_from_ini": "cli.ini",
    "verify_roundtrip": "control.roundtrip",
    "verify_decay": "cli.verify.decay",
    "verify_oracle": "cli.verify.oracle",
    "run_metrics": "cli.metrics",
    "fit_decay_slope": "sim.analysis",
    "integrated_abs_error": "sim.analysis",
    "peak_abs_error": "sim.analysis",
}

_FIELDS = ("op", "id", "parent", "name", "t0_ns", "t1_ns", "cpu0_ns", "cpu1_ns")


class Tracer:
    """In-memory span store. One instance per process; not thread-safe."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [self.op, len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[6] = time.thread_time_ns()
        rec[4] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[5] = time.perf_counter_ns()
            rec[7] = time.thread_time_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str, targets):
        """Trace one operation: a root span, and for each ``(obj,
        patches)`` in ``targets`` the attributes of ``obj`` named in
        ``patches`` (attribute -> span name) wrapped until it ends."""
        self.op = op_id
        saved = [(obj, attr, getattr(obj, attr)) for obj, patches in targets for attr in patches]
        for (obj, attr, fn), span_name in zip(saved, (n for _, p in targets for n in p.values())):
            setattr(obj, attr, self.wrap(span_name, fn))
        try:
            with self.span(name):
                yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)
            self.op = -1

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(_FIELDS, rec))) + "\n")


def load_spans(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: count, wall, self wall (minus child spans) and CPU
    time, all in seconds, summed over every span of that name."""
    child_wall: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_wall[s["parent"]] += s["t1_ns"] - s["t0_ns"]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
    )
    for s in spans:
        wall = s["t1_ns"] - s["t0_ns"]
        agg = out[s["name"]]
        agg["count"] += 1
        agg["wall_s"] += wall * 1e-9
        agg["self_s"] += (wall - child_wall[s["id"]]) * 1e-9
        agg["cpu_s"] += (s["cpu1_ns"] - s["cpu0_ns"]) * 1e-9
    return dict(out)


# ---------------------------------------------------------------------------
# Replay of the layers that run inside sim.integrate


def _timed_ns(fn, arglist) -> int:
    t0 = time.perf_counter_ns()
    for args in arglist:
        fn(*args)
    return time.perf_counter_ns() - t0


def replay(records, rows_per_record: int = 2000) -> dict[str, tuple[int, int]]:
    """Time the inner layers on states sampled from ``records``.

    Returns, per metric key, ``(total_ns, calls)``. Every call is made
    the way ``sim.integrate`` makes it: the platform is sampled at t,
    t+h/2 (used twice) and t+h, the plant RHS is called four times per
    step with those samples, and the control law and torque map see the
    recorded state and body rates. The timing includes the Python call
    overhead that ``integrate`` pays too.
    """
    from gimbalsim import control, kinematics, plant, sim

    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    def add(key, ns, calls):
        out[key][0] += ns
        out[key][1] += calls

    for rec in records:
        sc = rec.scenario
        data = rec.data[:-1]
        stride = max(1, len(data) // rows_per_record)
        rows = data[::stride].tolist()
        h = sc.step_size
        half = 0.5 * h
        rates = sc.platform.rates
        kind = "table" if isinstance(sc.platform, sim.TablePlatform) else "sinusoidal"

        ts = [(t,) for row in rows for t in (row[0], row[0] + half, row[0] + h)]
        add(f"sim.platform.ns_per_call.{kind}", _timed_ns(rates, ts), len(ts))

        model = sc.model
        j_ay, j_k = model.j_ay, model.j_k
        j_ratio = j_ay / j_k
        states, bodies, rhs_args = [], [], []
        for row in rows:
            t, x1, x2, x3, x4 = row[:5]
            b0, bm, be = rates(t), rates(t + half), rates(t + h)
            u1e, u2e = row[11] + row[14], row[12] + row[15]
            for b in (b0, bm, bm, be):
                rhs_args.append((x1, x2, x3, x4, u1e, u2e, *b, j_ay, j_k, j_ratio))
            states.append(plant.GimbalState(*row[1:7]))
            bodies.append(b0)
        add("plant.rhs.ns_per_call", _timed_ns(plant._rhs, rhs_args), len(rhs_args))

        pairs = list(zip(states, bodies))
        add("kinematics.los_rates.ns_per_call", _timed_ns(kinematics.los_rates, pairs), len(pairs))

        torque_args = [
            (control.VirtualControl(row[9], row[10]), row[0], st, b, model)
            for row, st, b in zip(rows, states, bodies)
        ]
        add(
            "control.torque_map.ns_per_call",
            _timed_ns(control.torques_from_virtual, torque_args),
            len(torque_args),
        )

        law_key = f"control.law.ns_per_call.{sc.controller}"
        tq, tr = sc.ref_q.trajectory(), sc.ref_r.trajectory()
        if sc.controller == "stabilize":
            zero = control.ZERO_TRAJECTORY
            args = [(row[0], st, b, sc.gains, zero, zero, sc.guard)
                    for row, st, b in zip(rows, states, bodies)]
            add(law_key, _timed_ns(control.rate_tracking_control, args), len(args))
        elif sc.controller == "rate-track":
            args = [(row[0], st, b, sc.gains, tq, tr, sc.guard)
                    for row, st, b in zip(rows, states, bodies)]
            add(law_key, _timed_ns(control.rate_tracking_control, args), len(args))
        elif sc.controller == "los-track":
            args = [(row[0], st, b, sc.gains, tq, tr, st.theta_q, st.theta_r, sc.guard)
                    for row, st, b in zip(rows, states, bodies)]
            add(law_key, _timed_ns(control.los_tracking_control, args), len(args))
        elif sc.controller == "pid":
            # the PID memory threads through the calls, as in integrate
            errors = [(row[0], tq.value(row[0]) - row[5], tr.value(row[0]) - row[6])
                      for row in rows]
            pid, params = control.PidState(), sc.pid
            baseline = control.pid_baseline
            t0 = time.perf_counter_ns()
            for t, e_q, e_r in errors:
                _, pid = baseline(t, e_q, e_r, params, pid)
            add(law_key, time.perf_counter_ns() - t0, len(errors))
    return {k: (v[0], v[1]) for k, v in out.items()}
