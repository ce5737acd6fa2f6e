"""The package names the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps ``gimbalsim.cli`` attributes by name and
replays ``plant._rhs``, ``kinematics.los_rates``, the torque map and the
control laws on recorded states; ``perfbench/workloads.py`` counts the
integrated steps through a wrapper on ``cli.integrate``. A rename or a
signature change in the package then fails here rather than in a traced
benchmark run. The ``verify all`` text is pinned twice, in
``perfbench/expected.json`` and in ``test_golden.VERIFY_ALL``; a change
that re-records one copy and not the other fails here too.
"""

import hashlib
import json
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gimbalsim import cli, sim
from gimbalsim.control import ControlGains
from test_golden import VERIFY_ALL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source text, so no bytecode cache lands beside it
    mod = types.ModuleType("tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_both_pinned_verify_all_texts_agree():
    text = json.loads((PERFBENCH / "expected.json").read_text())["check"]["verify_all"]
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL


def test_every_traced_boundary_is_a_cli_attribute(tracing):
    missing = [name for name in tracing.CLI_BOUNDARIES if not callable(getattr(cli, name, None))]
    assert not missing


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize(
    "argv, integrations, duration",
    [
        # 5,001 rows: enough for run to stream the trace through its helper
        (["run", "--preset", "fig4-step-pid", "--plots", "--seed", "3"], 1, 5.0),
        (["verify", "decay"], 1, 1.0),
        (["verify", "all"], 1, 1.0),
        (["compare", "fig3-stab", "fig4-step"], 2, 1.0),
    ],
    ids=["run", "verify-decay", "verify-all", "compare"],
)
def test_commands_integrate_through_the_cli_global(
    monkeypatch, tmp_path, capsys, argv, integrations, duration
):
    # every integration enters through cli.integrate with the scenario
    # as its one positional argument; the RK4 kernel samples its inputs
    # once per integration, so counting those calls counts integrations
    real_integrate, real_samples = cli.integrate, sim._time_samples
    wrapped, kernel, records = [], [], []

    def integrate(*args, **kwargs):
        wrapped.append((args, kwargs))
        records.append(real_integrate(replace(args[0], duration=duration)))  # shortened
        return records[-1]

    def time_samples(*args):
        kernel.append(args[0])
        return real_samples(*args)

    monkeypatch.setattr(cli, "integrate", integrate)
    monkeypatch.setattr(sim, "_time_samples", time_samples)
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "out")]
    rc = cli.main(argv)
    capsys.readouterr()
    assert len(wrapped) == len(kernel) == integrations
    for args, kwargs in wrapped:
        assert len(args) == 1 and not kwargs and isinstance(args[0], sim.Scenario)
    if argv[0] == "run":
        # the trace streamed while integrated is the captured record
        assert rc == 0
        header, data = cli.read_trace_csv(tmp_path / "out" / cli.TRACE_FILENAME)
        assert header == sim.COLUMNS and len(data) > cli.CSV_FORK_MIN_ROWS
        assert np.array_equal(data.view(np.uint64), records[0].data.view(np.uint64))


def _records():
    table = sim.TablePlatform((0.0, 0.2, 0.5), (0.0, 0.3, -0.1), (0.1, -0.2, 0.0), (0.2, 0.0, 0.1))
    sinusoid = sim.ReferenceSpec(kind="sinusoid", amplitude=0.5, omega=3.0)
    step = sim.ReferenceSpec(kind="step", amplitude=0.3, t_on=0.1)
    laws = [
        dict(controller="stabilize", gains=ControlGains(3.0, 4.0)),
        dict(controller="rate-track", gains=ControlGains(3.0, 4.0), ref_q=sinusoid, ref_r=sinusoid),
        dict(controller="los-track", gains=ControlGains(6.0, 8.0, 9.0, 10.0), ref_q=step, ref_r=step),
        dict(controller="pid", ref_q=step, ref_r=step),
    ]
    return [
        sim.integrate(sim.Scenario(duration=0.5, platform=platform, **law))
        for platform in (sim.SinusoidalPlatform(), table)
        for law in laws
    ]


def test_replay_runs_on_every_law_and_platform_kind(tracing):
    timed = tracing.replay(_records(), rows_per_record=50)
    keys = {
        "sim.platform.ns_per_call.sinusoidal",
        "sim.platform.ns_per_call.table",
        "plant.rhs.ns_per_call",
        "kinematics.los_rates.ns_per_call",
        "control.torque_map.ns_per_call",
        *(f"control.law.ns_per_call.{law}" for law in ("stabilize", "rate-track", "los-track", "pid")),
    }
    assert set(timed) == keys
    assert all(calls > 0 for _, calls in timed.values())
    assert timed["plant.rhs.ns_per_call"][1] == 4 * timed["kinematics.los_rates.ns_per_call"][1]
