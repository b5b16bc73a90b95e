import ast
import gc
import json
import os
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from crossarray import cli, fileio
from crossarray.cli import main
from crossarray.detector import DetectorConfig
from crossarray.fileio import (CONFIG_KEYS, READS, RunConfig, read_csv_columns,
                               read_track_csv, write_csv)
from crossarray.generators import KIND_FIELDS
from crossarray.observables import EPS_RATE

SWAY_CFG = """\
kind = sway3d
duration_s = 4.0
sample_rate_hz = 100
amplitude_m = 0.05,0.03,0.04
frequency_hz = 0.5,0.7,0.3
phase_rad = 0,1.0,2.0
object_m = 2,0,0
"""
# a key that a subcommand does not read is an error, so only analyze's
# config carries the tolerance
ANALYZE_SWAY_CFG = SWAY_CFG + "tolerance_rel = 0.05\n"

RECT_CFG = """\
kind = rectilinear
duration_s = 2.0
sample_rate_hz = 100
direction = 1,0,0
speed_mps = 1.0
object_m = 6,8,0
"""


# a body at EPS_SPEED to within an ulp: row_norm gives 1.0000000000000002e-06
# for its velocity, the square root of its dot product 1e-06
CREEPING_CFG = """\
kind = rectilinear
direction = 0.254,1.225,-0.298
speed_mps = 1e-6
object_m = 3e-6,4e-6,0
"""


def strict_json(path: Path):
    """The JSON at ``path``; NaN and Infinity, which are not JSON, raise."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def sway_cfg(tmp_path):
    path = tmp_path / "sway.cfg"
    path.write_text(SWAY_CFG)
    return path


@pytest.fixture
def sway_analyze_cfg(tmp_path):
    path = tmp_path / "sway_analyze.cfg"
    path.write_text(ANALYZE_SWAY_CFG)
    return path


@pytest.fixture
def rect_cfg_file(tmp_path):
    path = tmp_path / "rect.cfg"
    path.write_text(RECT_CFG)
    return path


class TestGenerate:
    def test_writes_expected_header_and_rows(self, tmp_path, rect_cfg_file):
        out = tmp_path / "track.csv"
        assert main(["generate", "--config", str(rect_cfg_file),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,ax,ay,az"
        assert len(lines) == 1 + 201  # header + duration * rate + 1 samples

    def test_identical_bytes_on_repeat(self, tmp_path, sway_cfg):
        outs = []
        for i in range(2):
            out = tmp_path / f"track{i}.csv"
            main(["generate", "--config", str(sway_cfg), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_custom_samples_reproduces_the_track_it_reads(self, tmp_path, sway_cfg):
        first = tmp_path / "first.csv"
        assert main(["generate", "--config", str(sway_cfg), "--out", str(first)]) == 0
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("kind = custom_samples\nsamples_csv = first.csv\n")
        again = tmp_path / "again.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(again)]) == 0
        a, b = read_track_csv(first), read_track_csv(again)
        assert np.array_equal(a.position, b.position)
        assert b.grid.n_samples == a.grid.n_samples

    def test_unknown_key_names_the_offender(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = sway3d\nspeeed_mps = 1\n")
        assert main(["generate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "speeed_mps" in err and ":2" in err

    def test_object_label_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SWAY_CFG + "object_label = cup\n")
        assert main(["generate", "--config", str(cfg)]) == 1
        assert "unknown key 'object_label'" in capsys.readouterr().err

    def test_missing_file_is_a_config_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 1


class TestAnalyze:
    def test_sway_accuracy_json(self, tmp_path, sway_analyze_cfg):
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(sway_analyze_cfg),
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "accuracy.json").read_text())
        assert payload["tolerance"] == 0.05
        assert payload["estimators"]["d_3d"]["accurate_fraction"] == 1.0
        assert payload["estimators"]["d_1d"]["accurate_fraction"] < 0.2
        assert payload["estimators"]["d_2d"] is None
        assert (out / "timeline.csv").exists()

    def test_rectilinear_all_models_collapse(self, tmp_path, rect_cfg_file):
        out = tmp_path / "out"
        main(["analyze", "--config", str(rect_cfg_file), "--out-dir", str(out)])
        payload = json.loads((out / "accuracy.json").read_text())
        for name in ("d_1d", "d_2d", "d_3d"):
            assert payload["estimators"][name]["accurate_fraction"] == 1.0

    def test_speed_within_an_ulp_of_the_threshold(self, tmp_path):
        """Optics and inertia read one speed, so no valid sample lacks its
        alpha: every d_3d flagged valid is a number, and accuracy.json
        holds no NaN."""
        cfg = tmp_path / "creeping.cfg"
        cfg.write_text(CREEPING_CFG)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out-dir", str(out)]) == 0
        payload = strict_json(out / "accuracy.json")
        columns = read_csv_columns(out / "timeline.csv")
        valid = columns["valid_3d"] == 1
        assert valid.all()
        assert np.all(np.isfinite(columns["d_3d"][valid]))
        assert np.all(np.isfinite(columns["alpha"][valid]))
        assert payload["estimators"]["d_3d"]["accurate_fraction"] == 1.0

    def test_track_round_trip_matches_in_memory_pipeline(
            self, tmp_path, sway_cfg):
        from dataclasses import replace
        from crossarray import ScenarioConfig, generate, project_and_estimate
        track_path = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track_path)])
        cfg = ScenarioConfig(
            kind="sway3d", duration=4.0, sample_rate=100.0,
            amplitude=(0.05, 0.03, 0.04), frequency=(0.5, 0.7, 0.3),
            phase=(0.0, 1.0, 2.0), object_position=(2.0, 0.0, 0.0))
        in_memory = replace(generate(cfg), analytic=False)
        loaded = read_track_csv(track_path)
        assert loaded.grid.matches(in_memory.grid)
        _, _, est_mem = project_and_estimate(in_memory, cfg.scene_object)
        _, _, est_csv = project_and_estimate(loaded, cfg.scene_object)
        for a, b in ((est_mem.d_1d, est_csv.d_1d), (est_mem.d_3d, est_csv.d_3d),
                     (est_mem.d_tan, est_csv.d_tan),
                     (est_mem.d_true, est_csv.d_true)):
            assert np.array_equal(a, b, equal_nan=True)
        # the 3d model still hits truth through the finite-difference path
        m = est_csv.valid_3d
        rel = np.abs(est_csv.d_3d[m] - est_csv.d_true[m]) / est_csv.d_true[m]
        assert np.max(rel) < 0.05

    def test_round_trip_track_positions_identical(self, tmp_path, sway_cfg):
        track_path = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track_path)])
        from crossarray import ScenarioConfig, generate
        loaded = read_track_csv(track_path)
        regenerated = generate(ScenarioConfig(
            kind="sway3d", duration=4.0, sample_rate=100.0,
            amplitude=(0.05, 0.03, 0.04), frequency=(0.5, 0.7, 0.3),
            phase=(0.0, 1.0, 2.0), object_position=(2.0, 0.0, 0.0)))
        assert np.array_equal(loaded.position, regenerated.position)
        assert loaded.grid.matches(regenerated.grid)

    def test_tolerance_zero_vs_default_is_monotone(self, tmp_path, sway_analyze_cfg):
        fractions = {}
        for tol, name in ((1e-12, "tiny"), (0.05, "default")):
            out = tmp_path / name
            main(["analyze", "--config", str(sway_analyze_cfg),
                  "--tolerance", str(tol), "--out-dir", str(out)])
            payload = json.loads((out / "accuracy.json").read_text())
            fractions[name] = payload["estimators"]["d_1d"]["accurate_fraction"]
        assert fractions["tiny"] <= fractions["default"]

    @pytest.mark.parametrize("row, column, code, message", [
        (5, 3, 2, "error: position must be finite; sample 4 "),
        (5, 0, 1, "config error: "),
        (-1, 0, 1, "config error: "),
    ], ids=["pz", "t", "last-t"])
    def test_nan_cell_is_a_clean_error(self, tmp_path, sway_cfg, capsys,
                                       row, column, code, message):
        track_path = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track_path)])
        lines = track_path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = "nan"
        lines[row] = ",".join(cells)
        track_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--track", str(track_path), "--object", "2,0,0",
                     "--out-dir", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    def test_bad_tolerance_writes_nothing(self, tmp_path, sway_analyze_cfg):
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(sway_analyze_cfg), "--tolerance", "0",
                     "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_duplicate_column_is_a_config_error(self, tmp_path, sway_cfg, capsys):
        track_path = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track_path)])
        lines = track_path.read_text().splitlines()
        lines = [f"{line},{line.split(',')[1]}" for line in lines]
        track_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--track", str(track_path), "--object", "2,0,0",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{track_path}:1: duplicate column 'px'" in err

    @pytest.mark.parametrize("obj", ["nan,0,0", "2,0", "2,0,x"])
    def test_bad_object_is_a_config_error(self, tmp_path, sway_cfg, capsys, obj):
        track_path = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track_path)])
        capsys.readouterr()
        assert main(["analyze", "--track", str(track_path), "--object", obj,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: bad value for '--object'")
        assert not (tmp_path / "out").exists()


class TestDetect:
    def test_live_and_playback_verdicts(self, tmp_path, sway_cfg):
        live_out = tmp_path / "live.json"
        assert main(["detect", "--config", str(sway_cfg),
                     "--out", str(live_out)]) == 0
        assert json.loads(live_out.read_text())["verdict"] == "live"
        pb_out = tmp_path / "pb.json"
        assert main(["detect", "--config", str(sway_cfg), "--playback",
                     "--out", str(pb_out)]) == 0
        payload = json.loads(pb_out.read_text())
        assert payload["verdict"] == "simulated"
        assert payload["rule_fired"] == "flow-without-motion"

    def test_mismatched_sources_are_simulated(self, tmp_path, sway_cfg):
        cfg2 = tmp_path / "sway2.cfg"
        cfg2.write_text(SWAY_CFG.replace("0.5,0.7,0.3", "0.8,0.4,1.1"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(a)])
        main(["generate", "--config", str(cfg2), "--out", str(b)])
        out = tmp_path / "mm.json"
        assert main(["detect", "--optics-from", str(a), "--inertial-from",
                     str(b), "--object", "2,0,0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "simulated"

    def test_one_recording_against_itself_is_read_once(self, tmp_path, sway_cfg,
                                                       monkeypatch):
        a = tmp_path / "a.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(a)])
        copy = tmp_path / "copy" / "a.csv"
        copy.parent.mkdir()
        copy.write_bytes(a.read_bytes())
        reads = []

        def counted(path):
            reads.append(path)
            return read_csv_columns(path)

        monkeypatch.setattr(fileio, "read_csv_columns", counted)
        outs = {}
        for name, inertial in (("same", a), ("alias", tmp_path / "copy" / ".." / "a.csv"),
                               ("copy", copy)):
            reads.clear()
            outs[name] = tmp_path / f"{name}.json"
            assert main(["detect", "--optics-from", str(a), "--inertial-from",
                         str(inertial), "--object", "2,0,0",
                         "--out", str(outs[name])]) == 0
            assert len(reads) == (2 if name == "copy" else 1), name
        # read twice from two paths, the same recording writes the same bytes
        assert outs["same"].read_bytes() == outs["copy"].read_bytes()
        assert outs["alias"].read_bytes() == outs["copy"].read_bytes()
        assert json.loads(outs["same"].read_text())["verdict"] == "live"

    def test_missing_inertial_file_is_an_io_error(self, tmp_path, sway_cfg, capsys):
        a = tmp_path / "a.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(a)])
        capsys.readouterr()
        assert main(["detect", "--optics-from", str(a), "--inertial-from",
                     str(tmp_path / "nope.csv"), "--object", "2,0,0",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("io error: ")

    def test_recorded_flow_on_a_still_body(self, tmp_path, sway_cfg):
        """An ingested track whose positions move while vx, vy, vz are 0:
        its bearing rotates with no speed to pair it with."""
        moving = tmp_path / "moving.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(moving)])
        cols = read_csv_columns(moving)
        for axis in "xyz":
            cols[f"v{axis}"] = np.zeros_like(cols[f"v{axis}"])
        still = tmp_path / "still.csv"
        write_csv(still, cols)
        out = tmp_path / "out"
        assert main(["analyze", "--track", str(still), "--object", "2,0,0",
                     "--out-dir", str(out)]) == 0
        timeline = read_csv_columns(out / "timeline.csv")
        still_flow = (timeline["v"] == 0.0) & (timeline["q"] >= EPS_RATE)
        assert np.count_nonzero(still_flow) > 0.9 * len(still_flow)
        assert np.all(timeline["d_3d"][still_flow] == 0.0)
        assert not np.any(timeline["valid_3d"])
        report = tmp_path / "detect.json"
        assert main(["detect", "--optics-from", str(still), "--inertial-from",
                     str(still), "--object", "2,0,0", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "simulated"
        assert payload["rule_fired"] == "flow-without-motion"

    def test_grid_mismatch_is_a_runtime_error(self, tmp_path, sway_cfg,
                                              rect_cfg_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(a)])
        main(["generate", "--config", str(rect_cfg_file), "--out", str(b)])
        code = main(["detect", "--optics-from", str(a), "--inertial-from",
                     str(b), "--object", "2,0,0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestSlope:
    def test_level_static(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("accel_mps2 = 0,0,0\nduration_s = 0.5\n")
        out = tmp_path / "slope.csv"
        assert main(["slope", "--config", str(cfg), "--out", str(out)]) == 0
        cols = read_csv_columns(out)
        assert np.max(np.abs(cols["slope_rad"])) < 1e-12

    def test_ramp_reports_tilt(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("support_tilt_rad = 0.17453\naccel_mps2 = 0,0,0\n")
        out = tmp_path / "slope.csv"
        main(["slope", "--config", str(cfg), "--out", str(out)])
        cols = read_csv_columns(out)
        assert np.max(np.abs(cols["slope_rad"] - 0.17453)) < 1e-9

    def test_acceleration_tilts_balance(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("accel_mps2 = 2,0,0\n")
        out = tmp_path / "slope.csv"
        main(["slope", "--config", str(cfg), "--out", str(out)])
        cols = read_csv_columns(out)
        assert np.max(np.abs(cols["slope_rad"] - np.arctan2(2.0, 9.81))) < 1e-6


class TestConfigValues:
    def test_every_config_field_is_set_by_a_key(self):
        def fills(destination):  # the config a destination's values go to
            return destination if destination in ("scenario", "detector") else "run"

        def keyed(target):
            return {attribute for _, destinations, attribute in CONFIG_KEYS.values()
                    if any(fills(d) == target for d in destinations)}

        assert not {f.name for f in fields(DetectorConfig)} - keyed("detector")
        assert not ({f.name for f in fields(RunConfig)} - {"scenario", "detector"}
                    - keyed("run"))
        assert set().union(*KIND_FIELDS.values()) == keyed("scenario")

    @pytest.mark.parametrize("command, config, line", [
        ("slope", "duration_s = nan\n", 1),
        ("slope", "sample_rate_hz = inf\n", 1),
        ("detect", SWAY_CFG + "window_s = nan\n", 8),
        ("detect --playback", SWAY_CFG + "fire_fraction = nan\n", 8),
        ("slope", "support_normal = nan,0,1\n", 1),
    ], ids=["duration", "sample-rate", "window", "fire-fraction", "support-normal"])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys,
                                                command, config, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        key = config.splitlines()[line - 1].split("=")[0].strip()
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}:{line}: bad value for '{key}'")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, keys", [
        ("slope", "kind = planar_sway\naccel_mps2 = 2,0,0\n", ("kind", "accel_mps2")),
        ("generate", SWAY_CFG + "accel_mps2 = 2,0,0\n", ("kind", "accel_mps2")),
        ("slope", "support_normal = 1,0,0\nsupport_tilt_rad = 0.1\n",
         ("support_normal", "support_tilt_rad")),
        ("generate", SWAY_CFG + "samples_csv = nothere.csv\n", ("samples_csv", "kind")),
        ("slope", "amplitude_m = 1,1,1\naccel_mps2 = 1,0,0\n", ("amplitude_m", "kind")),
        ("generate", RECT_CFG + "amplitude_m = 1,1,1\n", ("amplitude_m", "kind")),
        ("generate", "kind = custom_samples\nsamples_csv = nothere.csv\n"
         "noise_sigma_m = 0.01\n", ("noise_sigma_m", "kind")),
    ], ids=["accel-with-kind", "accel-with-kind-generate", "normal-with-tilt",
            "samples-with-other-kind", "scenario-key-without-kind",
            "key-the-kind-does-not-read", "noise-on-custom-samples"])
    def test_contradictory_keys_are_a_config_error(self, tmp_path, capsys,
                                                   command, config, keys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(f"'{key}'" in err for key in keys)
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        ("generate", SWAY_CFG + "tolerance_rel = 0.05\n"),
        ("generate", SWAY_CFG + "window_s = 0.5\n"),
        ("analyze", SWAY_CFG + "fire_fraction = 0.5\n"),
        ("analyze", SWAY_CFG + "support_tilt_rad = 0.1\n"),
        ("detect", SWAY_CFG + "tolerance_rel = 0.05\n"),
        ("detect --playback", SWAY_CFG + "gravity_mps2 = 0,0,-9.81\n"),
        ("slope", SWAY_CFG + "flow_q_max_radps = 0.01\n"),
        ("slope", "accel_mps2 = 1,0,0\ntolerance_rel = 0.05\n"),
    ], ids=["generate-tolerance", "generate-window", "analyze-detector",
            "analyze-support", "detect-tolerance", "playback-gravity",
            "slope-detector", "slope-without-kind-tolerance"])
    def test_key_the_subcommand_does_not_read_is_a_config_error(
            self, tmp_path, capsys, command, config):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(config)
        key = config.splitlines()[-1].split("=")[0].strip()
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: '{key}' not read by '{command.split()[0]}'\n")
        assert not out.exists()

    def test_every_key_is_read_by_some_subcommand(self):
        subcommands = {mode: read for mode, read in READS.items() if " " not in mode}
        readers = {key: {c for c, read in subcommands.items()
                         if any(d in read for d in destinations)}
                   for key, (_, destinations, _) in CONFIG_KEYS.items()}
        assert all(readers.values())
        assert readers["tolerance_rel"] == {"analyze"}
        assert readers["window_s"] == {"detect"}
        assert readers["gravity_mps2"] == readers["accel_mps2"] == {"slope"}
        assert readers["kind"] == readers["out_dir"] == {
            "generate", "analyze", "detect", "slope"}

    @staticmethod
    def _track_mode(tmp_path, sway_cfg, mode, config):
        """``mode`` on a generated sway track with --object and a config
        holding ``config``; its exit code."""
        track = tmp_path / "track.csv"
        assert main(["generate", "--config", str(sway_cfg), "--out", str(track)]) == 0
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(config)
        sources = {"analyze --track": ["--track", str(track)],
                   "detect --optics-from": ["--optics-from", str(track),
                                            "--inertial-from", str(track)]}[mode]
        return main([mode.split()[0], *sources, "--object", "9,9,9",
                     "--config", str(cfg)])

    @pytest.mark.parametrize("mode", ["analyze --track", "detect --optics-from"])
    def test_track_mode_reads_no_scenario_key(self, tmp_path, capsys, sway_cfg, mode):
        # the track and --object stand in for the scenario, so its keys
        # would be accepted and never read
        out = tmp_path / "out"
        assert self._track_mode(tmp_path, sway_cfg, mode, "kind = sway3d\n"
                                f"object_m = 2,0,0\nout_dir = {out}\n") == 1
        assert capsys.readouterr().err == (
            f"config error: 'kind', 'object_m' not read by '{mode}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, key, artifact, path", [
        ("analyze --track", "tolerance_rel", "accuracy.json", ["tolerance"]),
        ("detect --optics-from", "window_s", "detect.json", ["thresholds", "window_s"]),
    ], ids=["analyze-tolerance", "detect-window"])
    def test_track_mode_reads_its_own_keys(self, tmp_path, sway_cfg, mode, key,
                                           artifact, path):
        out = tmp_path / "out"
        assert self._track_mode(tmp_path, sway_cfg, mode,
                                f"{key} = 0.25\nout_dir = {out}\n") == 0
        value = json.loads((out / artifact).read_text())
        for name in path:
            value = value[name]
        assert value == 0.25

    def test_track_needs_object_even_with_a_config(self, tmp_path, sway_cfg, capsys):
        track = tmp_path / "track.csv"
        main(["generate", "--config", str(sway_cfg), "--out", str(track)])
        cfg = tmp_path / "tolerance.cfg"
        cfg.write_text("tolerance_rel = 0.05\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["analyze", "--track", str(track), "--config", str(cfg),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: --track also needs --object x,y,z\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, name", [
        ("detect", SWAY_CFG + "fire_fraction = 0\n", "fire_fraction"),
        ("detect", SWAY_CFG + "fire_fraction = 2\n", "fire_fraction"),
        ("detect", SWAY_CFG + "scale_rel_std_max = -1\n", "scale_rel_std_max"),
        ("detect --playback", SWAY_CFG + "flow_q_max_radps = -1e-3\n", "flow_q_max"),
        ("detect", SWAY_CFG + "window_s = 0\n", "window_s"),
        ("slope", "duration_s = -1\n", "duration"),
        ("slope", "sample_rate_hz = 0\n", "sample_rate"),
        ("generate", SWAY_CFG + "noise_sigma_m = 0.001\nrng_seed = -1\n", "rng_seed"),
        ("generate", RECT_CFG.replace("1,0,0", "1e200,1e200,0"), "direction"),
        ("generate", RECT_CFG.replace("1,0,0", "1e-320,0,0"), "direction"),
        ("generate", RECT_CFG.replace("1,0,0", "0,0,0"), "direction"),
        ("slope", "support_normal = 1e200,1e200,0\n", "support_normal"),
        ("slope", "support_normal = 1e-320,0,0\n", "support_normal"),
        ("slope", "support_normal = 0,0,0\n", "support_normal"),
    ], ids=["no-fire-fraction", "fire-fraction-above-1", "negative-spread",
            "negative-flow", "zero-window", "negative-duration", "zero-rate",
            "negative-seed", "direction-overflows", "direction-underflows",
            "zero-direction", "normal-overflows", "normal-underflows", "zero-normal"])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys,
                                                  command, config, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {name} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, message", [
        ("generate", "kind sway3d\n",
         "{cfg}:1: expected 'key = value', got 'kind sway3d'"),
        ("generate", "kind = sway3d\nkind = sway3d\n", "{cfg}:2: duplicate key 'kind'"),
        ("generate", "kind = warp\n", "bad value for 'kind': 'warp' (expected one of "
         "rectilinear, planar_sway, sway3d, tangential_orbit, custom_samples)"),
        ("generate", "kind = custom_samples\n",
         "custom_samples scenario needs 'samples_csv'"),
        ("generate", "kind = custom_samples\nsamples_csv = track.csv\nduration_s = 1\n",
         "samples shape (401, 3) does not match grid (101, 3)"),
        ("generate", "duration_s = 1\n", "config is missing required key 'kind'"),
        ("analyze", "duration_s = 1\n", "config is missing required key 'kind'"),
        ("detect", "duration_s = 1\n", "config is missing required key 'kind'"),
    ], ids=["no-equals", "duplicate-key", "unknown-kind", "custom-without-samples",
            "samples-off-the-grid", "generate-without-kind", "analyze-without-kind",
            "detect-without-kind"])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, sway_cfg,
                                                command, config, message):
        # a 401-sample track for the samples_csv case
        assert main(["generate", "--config", str(sway_cfg),
                     "--out", str(tmp_path / "track.csv")]) == 0
        capsys.readouterr()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "analyze", "detect",
                                         "detect --playback", "slope"])
    def test_scenario_grid_under_three_samples_is_a_config_error(
            self, tmp_path, capsys, command):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SWAY_CFG.replace("duration_s = 4.0", "duration_s = 0.01"))
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: duration 0.01 s at sample_rate 100.0 Hz gives 2 samples; "
            "a track needs at least 3")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, samples", [
        ("generate", "1e300", "inf"),
        ("generate", "1e200", "1e+300"),
        ("slope", "1e300", "inf"),
    ], ids=["generate-inf", "generate-beyond-intp", "slope-without-kind"])
    def test_grid_larger_than_an_array_is_a_config_error(self, tmp_path, capsys,
                                                         command, config, samples):
        duration, rate = config, "1e300" if config == "1e300" else "1e100"
        text = f"duration_s = {duration}\nsample_rate_hz = {rate}\n"
        if command == "generate":
            text = SWAY_CFG.replace("duration_s = 4.0\nsample_rate_hz = 100\n", text)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: duration {float(duration)} s at sample_rate {float(rate)} Hz "
            f"gives {samples} samples; an array holds at most {np.iinfo(np.intp).max}")
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["0.001", "0.004"])
    def test_one_sample_run_grid_is_a_config_error(self, tmp_path, capsys, duration):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"duration_s = {duration}\n")
        out = tmp_path / "slope.csv"
        assert main(["slope", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: duration {duration} s at sample_rate 100.0 Hz gives 1 "
            "samples; a run needs at least 2")
        assert not out.exists()

    def test_slope_without_a_scenario_runs_on_two_samples(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("duration_s = 0.01\n")  # differentiates nothing
        out = tmp_path / "slope.csv"
        assert main(["slope", "--config", str(cfg), "--out", str(out)]) == 0
        assert np.array_equal(read_csv_columns(out)["slope_rad"], [0.0, 0.0])

    def test_window_wider_than_the_stream_spans_all_of_it(self, tmp_path):
        reports = []
        for window_s in ("1e300", "8"):
            cfg = tmp_path / f"w{window_s}.cfg"
            cfg.write_text(SWAY_CFG + f"window_s = {window_s}\n")
            out = tmp_path / f"w{window_s}.json"
            assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        huge, whole = reports
        assert huge["residual_scale"] == whole["residual_scale"]
        assert len(set(huge["residual_scale"])) == 1  # one window, seen from anywhere

    def test_normal_with_zero_tilt_is_accepted(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("support_normal = 1,0,1\nsupport_tilt_rad = 0\n")
        out = tmp_path / "slope.csv"
        assert main(["slope", "--config", str(cfg), "--out", str(out)]) == 0
        # balance points straight up; the normal leans 45 degrees from it
        assert np.max(np.abs(read_csv_columns(out)["slope_rad"] - np.pi / 4)) < 1e-12


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_artifacts_honour_the_umask(self, tmp_path, sway_cfg, umask, mode):
        out = tmp_path / "track.csv"
        previous = os.umask(umask)
        try:
            assert main(["generate", "--config", str(sway_cfg), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode


class TestOutDir:
    """An artifact goes under ``--out-dir``, else the config's ``out_dir``,
    else ``CROSSARRAY_OUT_DIR``, else ``./crossarray_out``."""

    @pytest.mark.parametrize("flag, key, env, want", [
        (True, True, "from_env", "from_flag"),
        (False, True, "from_env", "from_config"),
        (False, False, "from_env", "from_env"),
        (False, False, "  ", "crossarray_out"),
        (False, False, None, "crossarray_out"),
    ], ids=["flag", "config", "environment", "blank-environment", "default"])
    def test_each_source_yields_to_the_ones_before_it(
            self, tmp_path, monkeypatch, capsys, flag, key, env, want):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_OUT_DIR, env)
        cfg = tmp_path / "slope.cfg"
        cfg.write_text("accel_mps2 = 2,0,0\n"
                       + ("out_dir = from_config\n" if key else ""))
        flags = ["--out-dir", "from_flag"] if flag else []
        assert main(["slope", "--config", str(cfg), *flags]) == 0
        assert capsys.readouterr().out == str(Path(want) / "slope.csv") + "\n"
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [want]
        assert (tmp_path / want / "slope.csv").is_file()


class TestUnreadFlags:
    """A flag that the chosen mode never reads is a usage error, as an
    unread config key is a config error."""

    def test_playback_with_recorded_sources(self, tmp_path, sway_cfg, capsys):
        track = tmp_path / "track.csv"
        assert main(["generate", "--config", str(sway_cfg), "--out", str(track)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["detect", "--optics-from", str(track), "--inertial-from", str(track),
                     "--object", "2,0,0", "--playback", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: '--playback' not read by 'detect --optics-from': "
            "only 'detect --config' reads it\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, reader", [
        ("analyze", "analyze --track"), ("detect", "detect --optics-from")])
    def test_object_with_a_config(self, tmp_path, sway_cfg, sway_analyze_cfg, capsys,
                                  command, reader):
        cfg = sway_analyze_cfg if command == "analyze" else sway_cfg
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--object", "9,9,9",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: '--object' not read by '{command}': only '{reader}' reads it\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "detect", "slope"])
    def test_out_with_out_dir(self, tmp_path, sway_cfg, capsys, command):
        """``--out`` names the file, so an ``--out-dir`` beside it would go
        unread."""
        cfg = sway_cfg
        if command == "slope":
            cfg = tmp_path / "slope.cfg"
            cfg.write_text("accel_mps2 = 2,0,0\nduration_s = 1\n")
        out, out_dir = tmp_path / "file.out", tmp_path / "d"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --out-dir: not allowed with argument --out\n")
        assert not out.exists() and not out_dir.exists()


class TestUsage:
    def test_missing_sources_is_usage_error(self):
        assert main(["analyze"]) == 1

    @pytest.mark.parametrize("sources, message", [
        ([], "detect needs --config or --optics-from/--inertial-from"),
        (["--optics-from", "track.csv", "--object", "2,0,0"],
         "mismatched-source detection needs --optics-from, --inertial-from and --object"),
    ], ids=["no-source", "optics-without-inertial"])
    def test_detect_without_its_sources(self, tmp_path, capsys, sources, message):
        out = tmp_path / "out"
        assert main(["detect", *sources, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unknown_flag(self):
        assert main(["generate", "--nope"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1


class TestDemo:
    def test_demo_passes_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("[PASS]") == 8
        assert "[FAIL]" not in stdout
        assert (out / "summary.json").exists()
        assert (out / "sway3d" / "timeline.csv").exists()
        assert (out / "slope.csv").exists()

    def test_every_json_is_strict(self, tmp_path):
        """Every JSON file the demo writes parses without NaN or Infinity."""
        out = tmp_path / "demo"
        assert main(["demo", "--out-dir", str(out)]) == 0
        paths = sorted(out.rglob("*.json"))
        assert len(paths) > 1
        for path in paths:
            strict_json(path)

    def test_cli_writes_the_demo_scenario_bytes(self, tmp_path, sway_cfg,
                                                sway_analyze_cfg):
        """The subcommands write the demo's sway3d files, and ``slope`` its
        ``slope.csv`` (the accelerating case), byte for byte."""
        demo = tmp_path / "demo"
        assert main(["demo", "--out-dir", str(demo)]) == 0
        out = tmp_path / "cli"
        cfg = ["--config", str(sway_cfg)]
        assert main(["generate", *cfg, "--out", str(out / "track.csv")]) == 0
        assert main(["analyze", "--config", str(sway_analyze_cfg),
                     "--scenario-id", "sway3d",
                     "--out-dir", str(out)]) == 0
        assert main(["detect", *cfg, "--out", str(out / "detect_live.json")]) == 0
        assert main(["detect", *cfg, "--playback",
                     "--out", str(out / "detect_playback.json")]) == 0
        names = ("track.csv", "timeline.csv", "accuracy.json",
                 "detect_live.json", "detect_playback.json")
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).read_bytes() == (demo / "sway3d" / name).read_bytes(), name
        slope_cfg = tmp_path / "slope.cfg"
        slope_cfg.write_text("accel_mps2 = 2,0,0\nduration_s = 1\n")
        assert main(["slope", "--config", str(slope_cfg),
                     "--out", str(tmp_path / "slope.csv")]) == 0
        assert (tmp_path / "slope.csv").read_bytes() == (demo / "slope.csv").read_bytes()


class TestProcessEntry:
    """A CLI process freezes its imported heap before the command runs;
    ``main`` called in a process of its own leaves the collector alone."""

    # runs crossarray.cli as ``python -m`` does, then reports the freeze
    # count from an exit hook, which runs after the entry's sys.exit
    PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
sys.argv = ["crossarray", *sys.argv[1:]]
runpy.run_module("crossarray.cli", run_name="__main__")
"""

    def test_a_cli_process_freezes_the_imported_heap(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("accel_mps2 = 2,0,0\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, "slope", "--config", str(cfg),
             "--out", str(tmp_path / "slope.csv")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0
        assert (tmp_path / "slope.csv").exists()

    def test_main_in_process_freezes_nothing(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("accel_mps2 = 2,0,0\n")
        before = gc.get_freeze_count()
        assert main(["slope", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_the_installed_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            script = tomllib.load(handle)["project"]["scripts"]["crossarray"]
        tree = ast.parse(Path(cli.__file__).read_text())
        guard = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        [statement] = guard.body
        assert script == f"crossarray.cli:{ast.unparse(statement.value.func)}"
        assert callable(getattr(cli, script.split(":")[1]))


class TestImportFootprint:
    """numpy.random costs a process about 6 MB and 19 modules, so only a
    command that draws noise may load it; ``crossarray.demo`` serves only
    the ``demo`` subcommand, so no other command loads it."""

    @staticmethod
    def loads(module, *args) -> bool:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "crossarray.cli", *map(str, args)],
            capture_output=True, text=True)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 0, lines[-5:]
        # -X importtime logs each module as it is first imported
        return any(line.rsplit("|", 1)[-1].strip() == module for line in lines)

    @staticmethod
    def command_args(tmp_path, command):
        cfg = tmp_path / "sway.cfg"
        cfg.write_text(ANALYZE_SWAY_CFG if command == "analyze" else SWAY_CFG)
        config = [] if command == "demo" else ["--config", cfg]
        return [*command.split(), *config, "--out-dir", tmp_path / "out"]

    @pytest.mark.parametrize("command", [
        "generate", "analyze", "detect --playback", "slope", "demo"])
    def test_noise_free_commands_do_not_load_it(self, tmp_path, command):
        assert not self.loads("numpy.random", *self.command_args(tmp_path, command))

    def test_a_noisy_generate_loads_it(self, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(SWAY_CFG + "noise_sigma_m = 0.001\n")
        assert self.loads("numpy.random", "generate", "--config", cfg,
                          "--out-dir", tmp_path / "out")

    @pytest.mark.parametrize("command", [
        "generate", "analyze", "detect", "detect --playback", "slope", "demo"])
    def test_only_demo_loads_the_demo_module(self, tmp_path, command):
        loaded = self.loads("crossarray.demo", *self.command_args(tmp_path, command))
        assert loaded == (command == "demo")
