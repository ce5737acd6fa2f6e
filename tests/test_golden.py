"""Golden-trace contract: the bytes of ``trace.csv`` for fixed scenarios.

A refactor of the integrator, the control laws or the platform profiles
must leave these SHA-256 digests unchanged. They pin every value of the
trace to the last bit, so they depend on the libm and numpy build that
produced them (recorded with Python 3.11 / numpy 2.4 / glibc on x86-64).
On another platform a mismatch can be a libm difference rather than a
code change; regenerate the digests there from a known-good commit
before trusting a failure. A change that sets out to alter the traces
updates the digests and says so.
"""

import hashlib
import math
import os
from dataclasses import replace

import pytest

from gimbalsim import cli, sim
from gimbalsim.control import ControlGains
from gimbalsim.plant import GimbalState, NoiseSpec
from gimbalsim.sim import (
    ConstantPlatform,
    ReferenceSpec,
    Scenario,
    SinusoidalPlatform,
    TablePlatform,
)

DURATION = 2.0


def _table_platform(n: int = 1000) -> TablePlatform:
    # breakpoints every 2 ms up to 1.998 s: the 1 ms run samples at
    # breakpoints, between them, and past the end of the table
    times = tuple(i * 0.002 for i in range(n))
    p = tuple(0.1 * math.sin(0.7 * t) + 0.01 * math.sin(53.0 * t) for t in times)
    q = tuple(0.1 * math.cos(1.1 * t) for t in times)
    r = tuple(0.2 * math.sin(0.9 * t + 0.3) for t in times)
    return TablePlatform(times, p, q, r)


def _extra_scenarios() -> dict[str, Scenario]:
    sin_ref = ReferenceSpec(kind="sinusoid", amplitude=0.3, omega=1.5)
    return {
        "table-rate-track": Scenario(
            name="table-rate-track",
            controller="rate-track",
            duration=DURATION,
            gains=ControlGains(5.0, 7.0),
            initial_state=GimbalState(0.2, 0.1, -0.3, 0.05),
            platform=_table_platform(),
            ref_q=sin_ref,
            ref_r=ReferenceSpec(kind="step", amplitude=0.2, t_on=0.5, t_off=1.5),
        ),
        "near-lock-los-track": Scenario(
            name="near-lock-los-track",
            controller="los-track",
            duration=DURATION,
            gains=ControlGains(8.0, 10.0, 6.0, 8.0),
            initial_state=GimbalState(math.pi / 2 - 0.05, 0.0, 0.1, 0.0),
            ref_q=ReferenceSpec(kind="sinusoid", amplitude=0.2, omega=2.0),
            ref_r=sin_ref,
        ),
        "open-loop": Scenario(
            name="open-loop",
            controller="open-loop",
            duration=DURATION,
            initial_state=GimbalState(0.1, 0.4, -0.2, 0.3),
            platform=SinusoidalPlatform(),
        ),
        "constant-stabilize-noise": Scenario(
            name="constant-stabilize-noise",
            controller="stabilize",
            duration=DURATION,
            gains=ControlGains(3.0, 4.0),
            initial_state=GimbalState(0.3, 0.2, -0.1, 0.2),
            platform=ConstantPlatform(p=0.05, q=-0.1, r=0.2),
            noise=NoiseSpec(enabled=True, seed=3),
        ),
        # 6,001 rows: long enough that the streamed trace writer forks
        # its helper (test_trace_digest lets it see two CPUs)
        "fig5-sin-noise-6s": replace(sim.preset("fig5-sin-noise"), duration=6.0),
        "pid-sinusoid": Scenario(
            name="pid-sinusoid",
            controller="pid",
            duration=DURATION,
            initial_state=GimbalState(0.1, 0.0, -0.2, 0.0),
            ref_q=ReferenceSpec(kind="sinusoid", amplitude=0.4, omega=2.5),
            ref_r=ReferenceSpec(kind="sinusoid", amplitude=0.3, omega=1.5),
        ),
    }


def _scenario(name: str) -> Scenario:
    extra = _extra_scenarios()
    if name in extra:
        return extra[name]
    return replace(sim.preset(name), duration=DURATION)


GOLDEN = {
    "fig3-stab": "8602c37252177903bb53c5fc2adec38bb6cf58aa3832fdb7e49bffb4ca5d4715",
    "fig3-stab-noise": "b51a3884c59d2af47a69247aec29fd81d39d479d74c86dc545022380334bbb75",
    "fig4-step": "cbe38b27d08b8bda751fe461106e03e8e96ad5b5d4edfc8b8f1f9caef217268f",
    "fig4-step-noise": "e752ccf4bf7d494de699d44a75809eff1335751dfbb9c5b71edd707b36a10ca4",
    "fig4-step-pid": "aebc4fda99835682465d75aca577406f4a24e0d9000b4130c01fa569b0447ebc",
    "fig5-sin": "899574bef090d92d9521a9646f4360bcedae91888658ed2b8614ff8c3a3c41fa",
    "fig5-sin-noise": "772a8ed572d5225d022682e451b18dfb0a032e8057342cb95ded3bb62d902e13",
    "table-rate-track": "46750277b6a4deb1d2d545608d9c349c63c6044246b309295c457cd7a15eff2d",
    "near-lock-los-track": "12d40141fd6bb365a91cf15ed34709e1c53cd6f209df578474f9953cd3d7baef",
    "open-loop": "0ef7f458f8254c90f1a73afeb215fefa2109a2d3da7b50e8008bbeb34f6bd60b",
    "constant-stabilize-noise": "1ef41b3820ccf63945ed336fe69a2f20ab6481ae7411601935e3587cf9f4725e",
    "pid-sinusoid": "232e05d988665c8e4fb920ecba9d6e012cb3da8da9b26e12f34fcb5666b836da",
    "fig5-sin-noise-6s": "0f84e7833d448e97a0759b3fd1909b1f6cc2e96f60427defbe19a1073c38863d",
}


def test_golden_covers_every_preset():
    assert set(sim.preset_names()) <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.usefixtures("two_cpus")
def test_trace_digest(name, tmp_path, monkeypatch):
    # written as ``run`` writes it: formatted while it is integrated, by
    # a forked helper from CSV_FORK_MIN_ROWS rows on
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    path = tmp_path / "trace.csv"
    with cli._trace_writer(path) as observe, sim.observe_blocks(observe):
        rec = sim.integrate(_scenario(name))
        observe(rec.data, rec.n_rows)
    assert len(forks) == (rec.n_rows >= cli.CSV_FORK_MIN_ROWS)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


# SVG charts that plot time-only inputs sampled at the trace times: the
# platform rates and the reference angles (zero before the step of
# fig4-step, a sinusoid in fig5-sin).
GOLDEN_SVG = {
    ("fig4-step", "platform.svg"): "1c6f3490e13cad4601bbfc1510a8e2c0e7fe17059a2a9aaf70a837ab9c768f7d",
    ("fig4-step", "los_angles.svg"): "53fd9b8ece138e6df84b8030fc819b7ccd81cb313d3ba49b3a6cbfca49e0e094",
    ("fig5-sin", "los_angles.svg"): "7724f4e3919a1c9486295d875395270cbb72145795c98df14ca42d07854f3d18",
}


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_SVG}))
def test_svg_digest(name, tmp_path):
    written = {p.name: p for p in cli.emit_plots(sim.integrate(_scenario(name)), tmp_path)}
    for (preset_name, chart), digest in GOLDEN_SVG.items():
        if preset_name == name:
            assert hashlib.sha256(written[chart].read_bytes()).hexdigest() == digest, chart


# SHA-256 of the stdout of ``gimbalsim verify all``: the text the
# benchmark's check workload compares every round against.
VERIFY_ALL = "90ec3b6354ff03dbc1f5fc7fc33f58765c3042b6cecf471a02f74d2d5330882b"


def test_verify_all_output_digest(capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL, out


# SHA-256 of each preset's INI form and of the ``gimbalsim presets``
# listing. The trace digests cannot see fields that never reach the
# trace: the PID gains of the non-PID presets, a guard threshold the run
# never reaches, the x moments of inertia (only j_ay and j_k enter the
# dynamics) and the description text.
GOLDEN_PRESET_INI = {
    "fig3-stab": "5e51d1442e822a0657d9c06d55cd60492aa1aaaac414ec12369162750090a03c",
    "fig3-stab-noise": "ad5f6d4056d74c39feb88561991306916e98178d19925ddc8d5377f640e8bf5f",
    "fig4-step": "14a770162271f1f31b7f26ff34eb0f589cf2cc3bc96bd2d0d36f284f0e3320bf",
    "fig4-step-noise": "1c5a7eca15f327f1a61773db21d0ae872c687200ab3f1a708e1ae5a3ef206c1c",
    "fig4-step-pid": "4357e3a885020248dad2494fdcf3ad51baf8c52adf4d72d508e74ee46bd6d74e",
    "fig5-sin": "c026ec99634fe926681087fda3a1475234efba638fb8c57fe49128490391eabe",
    "fig5-sin-noise": "724266c12d47da71f692abb6d264a13d95f477476b66a91fa7e3a7d7e9f2e739",
}
PRESETS_LISTING = "4531c19f0baab1e19c5183980127c56a8c20cc02bdd288bc9d411679f6a4ab82"


def test_preset_ini_digests():
    assert tuple(GOLDEN_PRESET_INI) == sim.preset_names()
    for name, digest in GOLDEN_PRESET_INI.items():
        ini = cli.scenario_to_ini(sim.preset(name))
        assert hashlib.sha256(ini.encode()).hexdigest() == digest, name


def test_presets_listing_digest(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PRESETS_LISTING, out


def test_near_lock_scenario_engages_guard():
    rec = sim.integrate(_scenario("near-lock-los-track"))
    assert rec.guard_active.any()


def _linear_scan_rates(tab: TablePlatform, t: float) -> tuple[float, ...]:
    # reference lookup: first breakpoint at or after t by linear scan
    ts = tab.times
    if t <= ts[0]:
        return (tab.p[0], tab.q[0], tab.r[0], 0.0, 0.0, 0.0)
    if t >= ts[-1]:
        return (tab.p[-1], tab.q[-1], tab.r[-1], 0.0, 0.0, 0.0)
    i = 1
    while ts[i] < t:
        i += 1
    dt = ts[i] - ts[i - 1]
    w = (t - ts[i - 1]) / dt
    chans = (tab.p, tab.q, tab.r)
    return tuple(ch[i - 1] + w * (ch[i] - ch[i - 1]) for ch in chans) + tuple(
        (ch[i] - ch[i - 1]) / dt for ch in chans
    )


def test_table_lookup_matches_linear_scan_bit_for_bit():
    tab = _table_platform()
    ts = tab.times
    probes = [ts[0] - 1.0, ts[0], ts[-1], ts[-1] + 1.0]
    probes += list(ts)
    probes += [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
    probes += [math.nextafter(a, d) for a in ts for d in (math.inf, -math.inf)]
    probes += [k * 1e-3 for k in range(2001)]
    for t in probes:
        want = [v.hex() for v in _linear_scan_rates(tab, t)]
        got = [v.hex() for v in tab.rates(t)]
        assert got == want, f"t={t!r}"
