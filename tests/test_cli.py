"""Command-line interface tests.

Every test drives cli.main in process so exit codes, emitted files, and
monkeypatched failures are all observable without spawning subprocesses.
"""

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from tweezergate import cli, crystal, drive


def fig2_doc(**overrides):
    doc = {
        "n_ions": 2,
        "ion_mass_amu": 171.0,
        "axial_frequency_hz": 1.0e6,
        "pair": [1, 2],
        "tweezer_frequency_hz": 2.5e5,
        "field_amplitude_v_per_m": 2.69e-4,
        "detuning_hz": -1000.0,
        "mode_cutoffs": [20],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    """Rows of a CSV emitted by the CLI, plus its config-hash comment."""
    with open(path) as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    assert first.startswith("# config_hash=")
    return first.strip().split("=", 1)[1], rows


class TestLoadDocument:
    def test_preset_by_name(self):
        doc = cli.load_document("fig2")
        assert doc["n_ions"] == 2
        assert doc["tweezer_frequency_hz"] == 2.5e5

    def test_path_beats_preset_lookup(self, tmp_path):
        path = write_doc(tmp_path, fig2_doc(detuning_hz=-2000.0))
        assert cli.load_document(path)["detuning_hz"] == -2000.0

    def test_unknown_source_rejected(self):
        with pytest.raises(cli.ConfigError, match="presets"):
            cli.load_document("fig99")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cli.ConfigError, match="invalid JSON"):
            cli.load_document(str(path))

    def test_directory_is_not_a_config_file(self, tmp_path, monkeypatch):
        # a folder named like a preset (an output folder, say) falls
        # through to the preset; any other folder is neither
        preset = cli.load_document("fig2")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig2").mkdir()
        (tmp_path / "results").mkdir()
        assert cli.load_document("fig2") == preset
        with pytest.raises(cli.ConfigError, match="neither a file"):
            cli.load_document("results")

    def test_unreadable_file_exits_2(self, tmp_path, monkeypatch, capsys):
        path = write_doc(tmp_path, fig2_doc())

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        out = tmp_path / "never"
        rc = cli.main(["gate", "--config", path, "--out-dir", str(out)])
        assert rc == 2
        assert (f"config error: config {path}: [Errno 13] Permission "
                f"denied" in capsys.readouterr().err)
        assert not out.exists()

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(cli.ConfigError, match="JSON object"):
            cli.load_document(str(path))


class TestResolveDocument:
    def test_defaults_filled(self):
        out = cli.resolve_document(fig2_doc())
        assert out["pulse_count"] == 4
        assert out["field_on_mask"] == [True, False, False, True]
        assert out["backend"] == "gaussian"
        assert out["nbar_com"] == 0.0

    def test_sequence_defaults_are_gate_config_defaults(self):
        # a document without sequence keys runs the library's default gate
        out = cli.resolve_document(fig2_doc())
        for f in dataclasses.fields(drive.GateConfig):
            if f.name in ("pulse_count", "field_on_mask", "echo_schedule",
                          "ramp_fraction"):
                assert json.dumps(out[f.name]) == json.dumps(f.default)
        cfg = cli.build_inputs(fig2_doc()).gate_config()
        assert cfg == drive.GateConfig(
            trap=cfg.trap, pair=cfg.pair,
            tweezer_frequency=cfg.tweezer_frequency,
            field_amplitude=cfg.field_amplitude, detuning=cfg.detuning)

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.resolve_document(fig2_doc(coupling_hz=5.0))

    def test_missing_keys_listed(self):
        doc = fig2_doc()
        del doc["pair"]
        del doc["mode_cutoffs"]
        with pytest.raises(cli.ConfigError,
                           match="mode_cutoffs, pair"):
            cli.resolve_document(doc)


class TestBuildInputs:
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_presets_build(self, preset):
        inputs = cli.build_inputs(cli.load_document(preset))
        h = inputs.config_hash()
        assert len(h) == 64 and int(h, 16) >= 0

    def test_single_ion_has_no_pair(self):
        inputs = cli.build_inputs(fig2_doc(n_ions=1, mode_cutoffs=[4]))
        assert inputs.pair0 is None
        with pytest.raises(cli.ConfigError, match="at least two ions"):
            inputs.gate_config()

    def test_heavy_tail_rejected(self):
        with pytest.raises(cli.ConfigError, match="mode_cutoffs"):
            cli.build_inputs(fig2_doc(nbar_com=1.0, mode_cutoffs=[3],
                                      backend="fock"))

    def test_heavy_tail_allowed_for_gaussian(self):
        # no cutoff enters the gaussian backend's thermal average
        inputs = cli.build_inputs(fig2_doc(nbar_com=1.0, mode_cutoffs=[3]))
        assert inputs.thermal.tail_weight() > 1e-4

    def test_more_cutoffs_than_modes_rejected(self):
        with pytest.raises(cli.ConfigError, match="the 2-ion crystal has 2"):
            cli.build_inputs(fig2_doc(mode_cutoffs=[4, 4, 4]))

    def test_few_samples_per_pulse_rejected(self):
        # evolve's own check, run before any command
        with pytest.raises(cli.ConfigError,
                           match="samples_per_pulse must be >= 200"):
            cli.build_inputs(fig2_doc(samples_per_pulse=199))

    def test_fractional_samples_per_pulse_exits_2(self, tmp_path, capsys):
        # a fractional count would bend phasespace's time grid
        path = write_doc(tmp_path, fig2_doc(samples_per_pulse=250.5))
        out = tmp_path / "never"
        rc = cli.main(["phasespace", "--config", path, "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: samples_per_pulse must be a whole number"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_backend_rejected(self):
        with pytest.raises(cli.ConfigError, match="backend"):
            cli.build_inputs(fig2_doc(backend="magic"))

    def test_bad_pair_rejected(self):
        with pytest.raises(cli.ConfigError, match="pair"):
            cli.build_inputs(fig2_doc(pair=[1, 1]))
        with pytest.raises(cli.ConfigError, match="pair"):
            cli.build_inputs(fig2_doc(pair=[1, 3]))


class TestModes:
    def test_two_ion_ratio_is_sqrt3(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["modes", "--config", "fig2",
                       "--out-dir", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "modes.csv")
        assert rows[0] == ["mode", "frequency_hz", "freq_ratio_to_com",
                           "b1", "b2"]
        ratios = [float(r[2]) for r in rows[1:]]
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)
        assert ratios[1] == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_two_ion_positions(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["modes", "--config", "fig2",
                         "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "positions.csv")
        z = [float(r[1]) for r in rows[1:]]
        assert len(z) == 2
        assert z[0] == pytest.approx(-z[1], rel=1e-12)
        # half spacing (1/2)^(2/3) Coulomb lengths, in meters
        inputs = cli.build_inputs(cli.load_document("fig2"))
        half = 0.5 ** (2.0 / 3.0) * crystal.coulomb_length(inputs.trap)
        assert z[1] == pytest.approx(half, rel=1e-10)
        assert 1e-6 < z[1] < 3e-6

    def test_single_ion_single_mode(self, tmp_path):
        path = write_doc(tmp_path, fig2_doc(n_ions=1, mode_cutoffs=[4]))
        out = tmp_path / "out"
        rc = cli.main(["modes", "--config", path, "--out-dir", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "modes.csv")
        assert len(rows) == 2  # header + one mode
        assert float(rows[1][1]) == pytest.approx(1.0e6, rel=1e-12)

    def test_hash_matches_between_files(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["modes", "--config", "fig2",
                         "--out-dir", str(out)]) == 0
        h1, _ = read_csv(out / "positions.csv")
        h2, _ = read_csv(out / "modes.csv")
        assert h1 == h2


class TestConfigErrors:
    def test_malformed_config_no_partial_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        out = tmp_path / "never"
        rc = cli.main(["modes", "--config", str(path),
                       "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, fig2_doc(bogus_key=1))
        out = tmp_path / "never"
        rc = cli.main(["gate", "--config", path, "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gate", "phasespace", "sweep",
                                         "table4"])
    def test_ramp_fraction_checked_by_gate_config(self, tmp_path, capsys,
                                                  command):
        # drive.GateConfig's range check, before any file; modes reads no
        # ramp and ignores the key, as it ignores the other gate keys
        doc = dict(cli.load_document("table1"), ramp_fraction=0.3,
                   backend="gaussian", sweep_axis="nbar", sweep_grid=[0.0])
        path = write_doc(tmp_path, doc)
        out = tmp_path / "never"
        rc = cli.main([command, "--config", path, "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: ramp_fraction must lie in [0, 0.25]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gate", "phasespace"])
    def test_open_echo_exits_2(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, fig2_doc(echo_schedule=[[0], [0], [0]]))
        out = tmp_path / "never"
        rc = cli.main([command, "--config", path, "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: echo does not close: pi-pulse counts per "
                "qubit (3, 0)" in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_physics_exits_2_for_gate(self, tmp_path, capsys):
        path = write_doc(tmp_path, fig2_doc(detuning_hz=0.0))
        rc = cli.main(["gate", "--config", path,
                       "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "detuning" in capsys.readouterr().err

    def test_sweep_without_axis_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, fig2_doc())
        rc = cli.main(["sweep", "--config", path,
                       "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "sweep_axis" in capsys.readouterr().err

    def test_empty_sweep_grid_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, fig2_doc(
            sweep_axis="tweezer_frequency_hz", sweep_grid=[]))
        rc = cli.main(["sweep", "--config", path,
                       "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_jobs_and_tol_exit_2(self, tmp_path, capsys):
        assert cli.main(["gate", "--config", "fig2", "--jobs", "0",
                         "--out-dir", str(tmp_path)]) == 2
        assert ("config error: --jobs must be >= 1"
                in capsys.readouterr().err)
        assert cli.main(["gate", "--config", "fig2", "--tol", "1e-3",
                         "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, preset", [
        ("modes", "fig2"), ("sweep", "fig3_twomode"), ("table4", "table1")])
    def test_tol_rejected_where_ignored(self, tmp_path, capsys, command,
                                        preset):
        out = tmp_path / "never"
        rc = cli.main([command, "--config", preset, "--tol", "1e-9",
                       "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: --tol applies only to gate and phasespace"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("gate", "fig2"), ("phasespace", "fig2"),
        ("gate", fig2_doc(backend="fock"))])
    def test_tol_rejected_without_ode_backend(self, tmp_path, capsys,
                                              command, doc):
        config = doc if isinstance(doc, str) else write_doc(tmp_path, doc)
        out = tmp_path / "never"
        rc = cli.main([command, "--config", config, "--tol", "1e-9",
                       "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: --tol applies only to the ode backend"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tol_reaches_ode_backend(self, tmp_path, monkeypatch):
        seen = []

        def report(*args, tol, **kw):
            seen.append(tol)
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(cli.metric, "fidelity_report", report)
        path = write_doc(tmp_path, fig2_doc(backend="ode"))
        rc = cli.main(["gate", "--config", path, "--tol", "1e-9",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 3 and seen == [1e-9]

    @pytest.mark.parametrize("backend", ["fock", "column"])
    def test_phasespace_rejects_truncated_backends(self, tmp_path, capsys,
                                                   backend):
        # phasespace has a gaussian and an ode trajectory only; a fock or
        # column config must not run the gaussian one under its name
        path = write_doc(tmp_path, fig2_doc(backend=backend))
        out = tmp_path / "never"
        rc = cli.main(["phasespace", "--config", path,
                       "--out-dir", str(out)])
        assert rc == 2
        assert (f"config error: phasespace has no {backend} trajectory"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gate", "phasespace", "modes"])
    def test_jobs_rejected_where_ignored(self, tmp_path, capsys, command):
        out = tmp_path / "never"
        rc = cli.main([command, "--config", "fig2", "--jobs", "2",
                       "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: --jobs applies only to sweep and table4"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_jobs_defaults_to_one_worker(self, tmp_path, monkeypatch):
        seen = []

        def sweep(spec, jobs):
            seen.append(jobs)
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(cli.calibrate, "run_sweep", sweep)
        rc = cli.main(["sweep", "--config", "fig3_twomode",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 3 and seen == [1]


class TestSharedParser:
    """main parses every call with one parser built once per process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_tol_does_not_leak_into_next_call(self, tmp_path, monkeypatch):
        seen = []

        def report(*args, tol, **kw):
            seen.append(tol)
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(cli.metric, "fidelity_report", report)
        path = write_doc(tmp_path, fig2_doc(backend="ode"))
        for extra in (["--tol", "1e-10"], []):
            rc = cli.main(["gate", "--config", path,
                           "--out-dir", str(tmp_path / "out")] + extra)
            assert rc == 3
        assert seen == [1e-10, None]

    def test_parse_error_then_valid_call(self, tmp_path, capsys):
        assert cli.main(["gate", "--jobs", "two"]) == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["gate", "--config", "fig2",
                         "--out-dir", str(out)]) == 0
        payload = json.loads((out / "gate_report.json").read_text())
        assert payload["report"]["fidelity"] == pytest.approx(
            0.9998231207075691, rel=1e-12)

    def test_missing_config_returns_2(self, capsys):
        assert cli.main(["gate"]) == 2
        assert "the following arguments are required: --config" \
            in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestGate:
    def test_report_values_and_hash(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["gate", "--config", "fig2",
                       "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "gate_report.json").read_text())
        assert len(payload["config_hash"]) == 64
        rep = payload["report"]
        assert rep["fidelity"] == pytest.approx(0.9998231207075691,
                                                rel=1e-12)
        assert rep["conditional_phase_rad"] == pytest.approx(
            -math.pi / 4.0, abs=2e-3)
        assert payload["config"]["tweezer_frequency_hz"] == 2.5e5

    def test_rerun_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert cli.main(["gate", "--config", "fig2",
                             "--out-dir", str(d)]) == 0
        assert (d1 / "gate_report.json").read_bytes() == \
               (d2 / "gate_report.json").read_bytes()

    def test_default_tol_is_the_library_default(self, tmp_path):
        # on an ode config (the tests' fast gate) no --tol and --tol 1e-9
        # write the same bytes
        path = write_doc(tmp_path, fig2_doc(
            backend="ode", detuning_hz=-2.0e4,
            field_amplitude_v_per_m=20 * 2.69e-4, mode_cutoffs=[4]))
        outs = [tmp_path / "default", tmp_path / "given"]
        for out, extra in zip(outs, ([], ["--tol", "1e-9"])):
            assert cli.main(["gate", "--config", path,
                             "--out-dir", str(out)] + extra) == 0
        assert (outs[0] / "gate_report.json").read_bytes() == \
               (outs[1] / "gate_report.json").read_bytes()

    def test_out_dir_from_document(self, tmp_path, capsys):
        target = tmp_path / "from_doc"
        path = write_doc(tmp_path, fig2_doc(out_dir=str(target)))
        assert cli.main(["gate", "--config", path]) == 0
        assert (target / "gate_report.json").exists()
        assert "wrote" in capsys.readouterr().out


class TestPhasespace:
    def test_fig2_suppression_ratio(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["phasespace", "--config", "fig2",
                       "--out-dir", str(out)])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        for label in ("00", "01", "10", "11"):
            assert (out / f"phasespace_{label}.csv").exists()
        assert man["max_abs_alpha"]["01"] >= \
            10.0 * man["max_abs_alpha"]["11"]
        assert man["suppression_ratio_01_over_11"] >= 10.0

    def test_zero_field_trajectories_vanish(self, tmp_path):
        path = write_doc(tmp_path, fig2_doc(
            field_amplitude_v_per_m=0.0))
        out = tmp_path / "out"
        assert cli.main(["phasespace", "--config", path,
                         "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        for label in ("00", "01", "10", "11"):
            assert man["max_abs_alpha"][label] < 1e-12

    def test_trajectory_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["phasespace", "--config", "fig2",
                         "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "phasespace_01.csv")
        assert rows[0][0] == "time_s"
        times = np.array([float(r[0]) for r in rows[1:]])
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0


class TestSweep:
    def sweep_doc(self, **overrides):
        doc = fig2_doc(sweep_axis="tweezer_frequency_hz",
                       sweep_grid=[1.2e5, 2.2e5, 3.0e5])
        doc.update(overrides)
        return doc

    def test_rows_and_crossings(self, tmp_path):
        path = write_doc(tmp_path, self.sweep_doc())
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", path, "--out-dir", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["tweezer_frequency_hz", "fidelity",
                           "conditional_phase_rad", "infidelity_x1e4",
                           "error"]
        assert len(rows) == 4
        fids = [float(r[1]) for r in rows[1:]]
        assert all(f > 0.99 for f in fids)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_points"] == 3
        assert summary["n_errors"] == 0
        assert summary["crossings"]["0.99"] == 1.2e5

    def test_point_errors_recorded(self, tmp_path):
        path = write_doc(tmp_path, self.sweep_doc(
            sweep_axis="detuning_hz",
            sweep_grid=[-1000.0, 0.0, 1000.0]))
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", path, "--out-dir", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert rows[2][1] == "" and "detuning" in rows[2][4]
        assert rows[1][4] == "" and rows[3][4] == ""
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_errors"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, self.sweep_doc())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert cli.main(["sweep", "--config", path,
                             "--out-dir", str(d)]) == 0
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        path = write_doc(tmp_path, self.sweep_doc())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", path, "--out-dir", str(d1),
                         "--jobs", "1"]) == 0
        assert cli.main(["sweep", "--config", path, "--out-dir", str(d2),
                         "--jobs", "2"]) == 0
        assert (d1 / "sweep.csv").read_bytes() == \
               (d2 / "sweep.csv").read_bytes()


class TestTable4:
    def test_table1_preset(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["table4", "--config", "table1",
                       "--out-dir", str(out), "--jobs", "2"])
        assert rc == 0
        _, rows = read_csv(out / "table4.csv")
        assert [r[0] for r in rows[1:]] == ["(1,2)", "(1,3)", "(1,4)",
                                            "(2,3)"]
        infid = [float(r[1]) for r in rows[1:]]
        assert all(0.0 < x < 10.0 for x in infid)
        offsets = [float(r[2]) for r in rows[1:]]
        published = [1.212, 1.325, 1.488, 1.162]
        for got, ref in zip(offsets, published):
            assert got == pytest.approx(ref, rel=0.10)
        payload = json.loads((out / "table4.json").read_text())
        assert len(payload["rows"]) == 4
        assert "conventions" in payload
        assert "offset_definition" in payload["conventions"]

    @staticmethod
    def assert_rows_are_gate_reports(tmp_path, doc, out):
        # each row is the report gate writes with the row's pair set
        rows = json.loads((out / "table4.json").read_text())["rows"]
        for row in rows:
            path = write_doc(tmp_path, dict(doc, pair=row["pair"]),
                             name="gate.json")
            gate_out = tmp_path / "gate"
            assert cli.main(["gate", "--config", path,
                             "--out-dir", str(gate_out)]) == 0
            rep = json.loads((gate_out / "gate_report.json").read_text())
            assert row["fidelity"] == rep["report"]["fidelity"]
            assert row["drive_frequency_rad_s"] == \
                   rep["report"]["drive_frequency_rad_s"]
        return rows

    @pytest.mark.parametrize("preset, cutoffs, n_rows", [
        ("fig2", [20], 1), ("table1", [8, 4, 4], 4)])
    def test_any_crystal_and_retained_modes(self, tmp_path, preset, cutoffs,
                                            n_rows):
        doc = dict(cli.load_document(preset), mode_cutoffs=cutoffs)
        out = tmp_path / "out"
        rc = cli.main(["table4", "--config", write_doc(tmp_path, doc),
                       "--out-dir", str(out)])
        assert rc == 0
        rows = self.assert_rows_are_gate_reports(tmp_path, doc, out)
        assert len(rows) == n_rows
        if preset == "fig2":
            # mu over the one retained mode sits 1 kHz below its branch
            assert rows[0]["omega_com_minus_mu_khz"] == pytest.approx(
                1.000, abs=5e-4)

    @pytest.mark.parametrize("setting", [
        dict(ramp_fraction=0.0), dict(ramp_fraction=0.1),
        dict(pulse_count=2, field_on_mask=[True, True], echo_schedule=[[]]),
        dict(drive_frequency_hz=999000.0)])
    def test_sequence_settings_apply(self, tmp_path, setting):
        # the table runs the document's sequence and drive frequency rule
        doc = dict(cli.load_document("table1"), **setting)
        out = tmp_path / "out"
        rc = cli.main(["table4", "--config", write_doc(tmp_path, doc),
                       "--out-dir", str(out)])
        assert rc == 0
        rows = self.assert_rows_are_gate_reports(tmp_path, doc, out)
        assert len(rows) == 4
        if "drive_frequency_hz" in setting:
            assert all(r["drive_frequency_rad_s"]
                       == 2 * math.pi * 999000.0 for r in rows)

    def test_five_ions_parallel_matches_serial(self, tmp_path):
        doc = dict(cli.load_document("table1"), n_ions=5,
                   mode_cutoffs=[8, 3, 3, 3, 3])
        path = write_doc(tmp_path, doc)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d, jobs in ((d1, "1"), (d2, "2")):
            assert cli.main(["table4", "--config", path, "--out-dir", str(d),
                             "--jobs", jobs]) == 0
        _, rows = read_csv(d1 / "table4.csv")
        assert [r[0] for r in rows[1:]] == [
            "(1,2)", "(1,3)", "(1,4)", "(1,5)", "(2,3)", "(2,4)"]
        for name in ("table4.csv", "table4.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_boundary_listing_order_does_not_matter(self, tmp_path):
        # a boundary flips a set of qubits: [1, 0] is the default [0, 1]
        path = write_doc(tmp_path, dict(cli.load_document("table1"),
                                        echo_schedule=[[1, 0], [0], [1]]))
        rows = []
        for config in ("table1", path):
            out = tmp_path / f"out{len(rows)}"
            assert cli.main(["table4", "--config", config,
                             "--out-dir", str(out)]) == 0
            rows.append(read_csv(out / "table4.csv")[1])
        assert rows[1] == rows[0]


class TestNumericalFailure:
    def test_gate_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic numerical failure")

        monkeypatch.setattr(cli.metric, "fidelity_report", boom)
        out = tmp_path / "out"
        rc = cli.main(["gate", "--config", "fig2",
                       "--out-dir", str(out)])
        assert rc == 3
        assert "synthetic numerical failure" in capsys.readouterr().err
        assert not (out / "gate_report.json").exists()

    def test_phasespace_failure_names_state(self, tmp_path, capsys,
                                            monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("stepper exploded")

        monkeypatch.setattr(cli.evolve, "run_gate", boom)
        rc = cli.main(["phasespace", "--config", "fig2",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "|00>" in err and "stepper exploded" in err
