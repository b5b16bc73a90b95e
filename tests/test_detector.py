import numpy as np
import pytest

from crossarray import (DetectorConfig, GridAlignmentError, ScenarioConfig,
                        detect, generate, make_playback, project_inertial,
                        project_optics, replay_optics)
from crossarray.detector import DetectionReport, report_to_json_dict
from crossarray.observables import EPS_RATE


def live_streams(cfg):
    track = generate(cfg)
    return (project_optics(track, cfg.scene_object), project_inertial(track))


class TestLiveStreams:
    def test_every_matched_scenario_is_live(self, canonical):
        for name, cfg in canonical.items():
            report = detect(*live_streams(cfg))
            assert report.verdict == "live", name
            assert report.rule_fired == ""

    def test_live_residuals_are_negligible(self, sway3d_cfg):
        report = detect(*live_streams(sway3d_cfg))
        assert np.max(report.residual_flow) == 0.0
        finite = report.residual_scale[np.isfinite(report.residual_scale)]
        assert np.max(finite) < 0.05


class TestPlayback:
    def test_every_playback_pair_is_simulated(self, canonical):
        for name, cfg in canonical.items():
            pair = make_playback(generate(cfg), (0.0, 0.0, 0.0))
            optics, inertial = replay_optics(pair, cfg.scene_object)
            report = detect(optics, inertial)
            assert report.verdict == "simulated", name
            assert report.rule_fired == "flow-without-motion"

    def test_flow_residual_equals_rotation_where_still(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        report = detect(optics, inertial)
        flowing = optics.q_norm >= EPS_RATE
        assert np.array_equal(report.residual_flow[flowing],
                              optics.q_norm[flowing])


class TestMismatchedStreams:
    def test_foreign_optics_fire_the_scale_rule(self, sway3d_cfg, planar_cfg):
        optics = project_optics(generate(sway3d_cfg), sway3d_cfg.scene_object)
        inertial = project_inertial(generate(planar_cfg))
        report = detect(optics, inertial)
        assert report.verdict == "simulated"
        assert report.rule_fired == "scale-inconsistency"


class TestIndeterminate:
    def test_too_few_samples(self):
        cfg = ScenarioConfig(kind="sway3d", duration=0.05, sample_rate=100.0)
        report = detect(*live_streams(cfg))
        assert report.verdict == "indeterminate"

    @pytest.mark.parametrize("speed, verdict", [(1e-6, "indeterminate"),
                                                (1.01e-6, "live")])
    def test_speed_at_the_threshold_counts_as_still(self, speed, verdict):
        cfg = ScenarioConfig(kind="rectilinear", speed=speed,
                             object_position=(0.0, 0.5, 0.0))
        optics, inertial = live_streams(cfg)
        report = detect(optics, inertial)
        assert report.verdict == verdict
        still = verdict == "indeterminate"
        assert np.all(optics.q_norm >= EPS_RATE)
        assert np.array_equal(report.residual_flow, optics.q_norm * still)
        assert np.all(np.isnan(report.residual_scale)) == still

    def test_motionless_scene_cannot_be_classified(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=0.0, duration=1.0,
                             object_position=(0.0, 3.0, 0.0))
        report = detect(*live_streams(cfg))
        assert report.verdict == "indeterminate"


class TestScaleCovariance:
    def test_residuals_survive_scene_rescaling(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        base = detect(optics, inertial)

        scaled_cfg = sway3d_cfg.scaled(2.0)
        pair2 = make_playback(generate(scaled_cfg), (0.0, 0.0, 0.0))
        optics2, inertial2 = replay_optics(pair2, scaled_cfg.scene_object)
        rescaled = detect(optics2, inertial2)
        assert np.array_equal(base.residual_flow, rescaled.residual_flow)
        assert base.verdict == rescaled.verdict

    def test_scale_rule_is_normalized(self, sway3d_cfg, planar_cfg):
        optics = project_optics(generate(sway3d_cfg), sway3d_cfg.scene_object)
        inertial = project_inertial(generate(planar_cfg))
        base = detect(optics, inertial)
        optics2 = project_optics(generate(sway3d_cfg.scaled(2.0)),
                                 sway3d_cfg.scaled(2.0).scene_object)
        inertial2 = project_inertial(generate(planar_cfg.scaled(2.0)))
        rescaled = detect(optics2, inertial2)
        finite = np.isfinite(base.residual_scale)
        assert np.allclose(base.residual_scale[finite],
                           rescaled.residual_scale[finite], rtol=1e-9)


class TestConfigurationAndReport:
    def test_grid_mismatch_raises(self, sway3d_cfg):
        optics = project_optics(generate(sway3d_cfg), sway3d_cfg.scene_object)
        short = ScenarioConfig(kind="rectilinear", duration=1.0)
        inertial = project_inertial(generate(short))
        with pytest.raises(GridAlignmentError):
            detect(optics, inertial)

    def test_thresholds_are_honored(self, sway3d_cfg):
        # an absurdly large flow threshold blinds the playback rule
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        report = detect(optics, inertial, DetectorConfig(flow_q_max=1e9))
        assert report.verdict != "simulated"

    def test_json_payload_is_nan_free(self, sway3d_cfg):
        import json
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        payload = report_to_json_dict(detect(optics, inertial))
        text = json.dumps(payload, allow_nan=False)
        assert "simulated" in text

    def test_residual_series_match_a_per_scalar_conversion(self):
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                           2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                           0.1, 1.0 / 3.0])
        report = DetectionReport("live", "", values, values[::-1], 0.0, None,
                                 DetectorConfig())
        payload = report_to_json_dict(report)
        for key, x in (("residual_flow", values), ("residual_scale", values[::-1])):
            # the conversion the whole-array one replaced
            expected = [None if not np.isfinite(v) else float(v) for v in x]
            assert [(type(v), repr(v)) for v in payload[key]] == \
                [(type(v), repr(v)) for v in expected]
