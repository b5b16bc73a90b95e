from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossarray import (ConfigError, ScenarioConfig, accuracy,
                        exploration_summary, generate, project_and_estimate,
                        reach_judgment, timeline_table)
from crossarray.fileio import (CSV_BLOCK_ROWS, csv_text, read_csv_columns,
                               write_csv)


def evaluate(cfg):
    track = generate(cfg)
    optics, inertial, est = project_and_estimate(track, cfg.scene_object)
    return track, optics, inertial, est


class TestAccuracy:
    def test_sway3d_3d_model_is_always_accurate(self, sway3d_cfg):
        _, _, _, est = evaluate(sway3d_cfg)
        report = accuracy(est, 0.05, scenario_id="sway3d")
        acc = report.estimators["d_3d"]
        assert acc.accurate_fraction == 1.0
        assert acc.valid_fraction > 0.9

    def test_sway3d_1d_model_fails_most_of_the_time(self, sway3d_cfg):
        _, _, _, est = evaluate(sway3d_cfg)
        acc = accuracy(est, 0.05).estimators["d_1d"]
        assert acc.accurate_fraction < 0.2

    def test_rectilinear_collapses_all_models_to_accurate(self):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0,
                             object_position=(6.0, 8.0, 0.0))
        _, _, _, est = evaluate(cfg)
        report = accuracy(est, 0.05)
        for name in ("d_1d", "d_2d", "d_3d"):
            assert report.estimators[name].accurate_fraction == 1.0, name

    def test_zero_valid_samples_reports_absent_not_zero(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=0.0, duration=1.0,
                             object_position=(0.0, 3.0, 0.0))
        _, _, _, est = evaluate(cfg)
        report = accuracy(est, 0.05)
        assert report.estimators["d_3d"] is None
        assert report.to_json_dict()["estimators"]["d_3d"] is None

    def test_rejects_nonpositive_tolerance(self, rect_cfg):
        _, _, _, est = evaluate(rect_cfg)
        with pytest.raises(ConfigError):
            accuracy(est, 0.0)

    @settings(deadline=None, max_examples=20)
    @given(tols=st.tuples(st.floats(1e-4, 0.5), st.floats(1e-4, 0.5)))
    def test_monotone_in_tolerance(self, tols):
        from crossarray.demo import demo_scenarios
        _, _, _, est = evaluate(demo_scenarios()["sway3d"])
        low, high = sorted(tols)
        frac_low = accuracy(est, low).estimators["d_1d"].accurate_fraction
        frac_high = accuracy(est, high).estimators["d_1d"].accurate_fraction
        assert frac_low <= frac_high


class TestReachJudgment:
    def test_far_threshold_makes_everything_reachable(self, orbit_cfg):
        _, _, _, est = evaluate(orbit_cfg)  # truth distance is 2 m throughout
        reach = reach_judgment(est, 3.0)
        assert reach["truth_within_reach_fraction"] == 1.0
        assert reach["agreement_with_truth"]["d_3d"] == 1.0

    def test_tie_counts_as_within_reach(self, orbit_cfg):
        _, _, _, est = evaluate(orbit_cfg)
        reach = reach_judgment(est, 2.0)
        assert reach["truth_within_reach_fraction"] == 1.0

    def test_3d_model_verdicts_match_truth_on_analytic_sway(self):
        cfg = ScenarioConfig(kind="sway3d", duration=4.0,
                             amplitude=(0.02, 0.015, 0.02),
                             frequency=(0.5, 0.7, 0.3), phase=(0.0, 1.0, 2.0),
                             object_position=(0.5, 0.0, 0.0))
        _, _, _, est = evaluate(cfg)
        reach = reach_judgment(est, 0.6)
        assert reach["threshold_m"] == 0.6
        assert reach["agreement_with_truth"]["d_3d"] == 1.0

    def test_rejects_nonpositive_threshold(self, orbit_cfg):
        _, _, _, est = evaluate(orbit_cfg)
        with pytest.raises(ConfigError):
            reach_judgment(est, 0.0)


class TestTimelineTable:
    def test_one_row_per_sample(self, sway3d_cfg):
        track, optics, inertial, est = evaluate(sway3d_cfg)
        table = timeline_table(est, optics, inertial, track)
        assert tuple(table) == ("t", "px", "py", "pz", "v", "alpha", "q",
                                "d_true", "d_1d", "d_3d", "d_tan",
                                "valid_1d", "valid_3d", "valid_tan")  # the CSV header
        for col in table.values():
            assert len(col) == track.grid.n_samples

    def test_3d_column_overlaps_truth(self, sway3d_cfg):
        track, optics, inertial, est = evaluate(sway3d_cfg)
        table = timeline_table(est, optics, inertial, track)
        m = table["valid_3d"].astype(bool)
        rel = np.abs(table["d_3d"][m] - table["d_true"][m]) / table["d_true"][m]
        assert np.max(rel) < 1e-6

    def test_csv_round_trip_is_bit_identical_and_report_stable(
            self, tmp_path, sway3d_cfg):
        track, optics, inertial, est = evaluate(sway3d_cfg)
        table = timeline_table(est, optics, inertial, track)
        path = tmp_path / "timeline.csv"
        write_csv(path, table)
        loaded = read_csv_columns(path)
        for name in ("valid_1d", "valid_3d", "valid_tan"):
            loaded[name] = loaded[name].astype(bool)
        write_csv(tmp_path / "again.csv", loaded)
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()
        reloaded = replace(est, **{name: loaded[name] for name in (
            "d_true", "d_1d", "d_3d", "d_tan", "valid_1d", "valid_3d", "valid_tan")})
        assert accuracy(reloaded, 0.05) == accuracy(est, 0.05)

    def test_csv_rows_match_a_row_by_row_rendering_across_blocks(self):
        x = np.random.default_rng(0).normal(size=2 * CSV_BLOCK_ROWS + 1)
        lines = csv_text({"x": x, "positive": x > 0}).split("\n")
        assert lines[0] == "x,positive" and lines[-1] == ""
        assert lines[1:-1] == [f"{v!r},{int(v > 0)}" for v in x.tolist()]


class TestExplorationSummary:
    def test_rectilinear_travel(self):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0, speed=1.0)
        summary = exploration_summary(generate(cfg))
        assert abs(summary["mean_speed_mps"] - 1.0) < 1e-12
        assert abs(summary["amplitude_m"][0] - 2.0) < 1e-12

    def test_sway_peak_to_peak_amplitudes(self):
        # frequencies chosen so extrema land exactly on grid samples
        cfg = ScenarioConfig(kind="planar_sway", duration=4.0, sample_rate=100.0,
                             amplitude=(0.05, 0.03, 0.0),
                             frequency=(0.5, 0.25, 0.0), phase=(0.0, 0.0, 0.0))
        summary = exploration_summary(generate(cfg))
        assert abs(summary["amplitude_m"][0] - 0.10) < 1e-6
        assert abs(summary["amplitude_m"][1] - 0.06) < 1e-6

    def test_zero_motion_gives_zero_everything(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=0.0, duration=1.0,
                             object_position=(0.0, 3.0, 0.0))
        summary = exploration_summary(generate(cfg))
        assert summary["mean_speed_mps"] == 0.0
        assert summary["max_accel_mps2"] == 0.0
        assert summary["amplitude_m"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(kind="sway3d", duration=5.0, noise_sigma=1e-3, rng_seed=3),
        ScenarioConfig(kind="rectilinear", direction=(-1.0, 0.5, 0.0), speed=2.0),
        ScenarioConfig(kind="tangential_orbit", phase=(2.0, 0.0, 0.0)),
        ScenarioConfig(kind="custom_samples", duration=0.05, samples=[
            [0.0, -0.0, 1e100], [-0.0, 0.0, -1e100], [-0.0, -0.0, 5e-324],
            [0.0, 0.0, -5e-324], [-0.0, 0.0, 0.0], [0.0, -0.0, 2.0]]),
    ], ids=["noisy-sway3d", "rectilinear", "orbit", "signed-zeros"])
    def test_amplitude_has_the_bits_of_the_axis_0_reduction(self, cfg):
        track = generate(cfg)
        want = track.position.max(axis=0) - track.position.min(axis=0)
        got = np.array(exploration_summary(track)["amplitude_m"])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
