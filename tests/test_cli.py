import math
from dataclasses import replace

import numpy as np
import pytest

from gimbalsim import cli, sim
from gimbalsim.control import ControlGains
from gimbalsim.plant import GimbalState, NoiseSpec
from gimbalsim.sim import ConstantPlatform, ReferenceSpec, Scenario, TablePlatform, integrate


def small_record():
    sc = replace(sim.preset("fig3-stab"), duration=1.0, step_size=0.01, name="small")
    return integrate(sc)


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


class TestScenarioConfig:
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

    def test_divergence_returns_nonzero(self, tmp_path, capsys):
        sc = Scenario(
            name="boom",
            controller="pid",
            duration=2.0,
            step_size=0.01,
            platform=ConstantPlatform(),
            ref_q=ReferenceSpec(kind="step", amplitude=1.0, t_on=0.0),
            pid=replace(sim.preset("fig4-step-pid").pid, kd_q=1e160, kp_q=1e160),
        )
        cfg = tmp_path / "boom.ini"
        cfg.write_text(cli.scenario_to_ini(sc))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "boomout")])
        assert code != 0
        assert "diverged" in capsys.readouterr().err


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


class TestCompareCommand:
    def test_compare_preset_with_itself_identical_metrics(self):
        rec = small_record()
        ma = cli.run_metrics(rec)
        mb = cli.run_metrics(integrate(rec.scenario))
        assert ma == mb

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


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in sim.preset_names():
            assert name in out
