"""Properties checked over generated inputs: scale covariance of the
pipeline on every motion kind, and bit-exact JSON round trips."""

import json
import struct
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crossarray import (AccuracyReport, DetectionReport, DetectorConfig,
                        EstimatorAccuracy, ScenarioConfig, generate,
                        project_and_estimate)
from crossarray.demo import demo_scenarios
from crossarray.detector import report_to_json_dict
from crossarray.fileio import json_text, write_json
from crossarray.generators import CUSTOM_SAMPLES, KINDS, SWAY3D


def scenario(kind: str, sigma: float, seed: int) -> ScenarioConfig:
    """A demo scenario of ``kind`` (401 samples at most) with position
    noise ``sigma``; custom samples are a noisy sway3d recording."""
    if kind == CUSTOM_SAMPLES:
        sway = demo_scenarios()[SWAY3D]
        recorded = generate(replace(sway, noise_sigma=sigma, rng_seed=seed))
        return ScenarioConfig(kind=kind, duration=sway.duration,
                              sample_rate=sway.sample_rate,
                              object_position=sway.object_position,
                              samples=recorded.position)
    return replace(demo_scenarios()[kind], noise_sigma=sigma, rng_seed=seed)


class TestScaleCovariance:
    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(KINDS), sigma=st.sampled_from([0.0, 1e-4, 1e-3]),
           seed=st.integers(0, 2**32 - 1), k=st.floats(0.1, 10.0))
    def test_optics_stay_and_distances_scale(self, kind, sigma, seed, k):
        cfg = scenario(kind, sigma, seed)
        optics, _, est = project_and_estimate(generate(cfg), cfg.scene_object)
        scaled = cfg.scaled(k)
        optics_k, _, est_k = project_and_estimate(generate(scaled), scaled.scene_object)
        # the largest misses in 100,000 examples over 100 hypothesis seeds:
        # 5.6e-16 for the bearing, 4.8e-13 for alpha and 7.7e-14 for q_norm
        assert np.max(np.abs(optics_k.bearing - optics.bearing)) <= 5e-15
        assert np.array_equal(np.isnan(optics_k.alpha), np.isnan(optics.alpha))
        assert np.nanmax(np.abs(optics_k.alpha - optics.alpha), initial=0.0) <= 1e-12
        assert np.max(np.abs(optics_k.q_norm - optics.q_norm)) <= 5e-13
        # bounds: about 10x the largest miss seen in 92,000 examples over
        # 100 hypothesis seeds, 6.6e-16 for d_true and 1.1e-10 for d_3d
        assert np.max(np.abs(est_k.d_true - k * est.d_true) / (k * est.d_true)) <= 1e-14
        both = est.valid_3d & est_k.valid_3d
        rel = np.abs(est_k.d_3d[both] - k * est.d_3d[both]) / (k * est.d_3d[both])
        assert np.max(rel, initial=0.0) <= 1e-9


def same_bits(a, b) -> bool:
    """Equal JSON values, with floats compared bit for bit."""
    if isinstance(a, float) or isinstance(b, float):
        return (type(a) is type(b) is float
                and struct.pack("<d", a) == struct.pack("<d", b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return type(a) is type(b) and a == b


fraction = st.floats(0.0, 1.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
residuals = arrays(np.float64, st.integers(0, 40), elements=st.floats())


class TestJsonRoundTrip:
    @settings(deadline=None, max_examples=60)
    @given(flow=residuals, scale=residuals,
           flow_fire=fraction, scale_fire=st.none() | fraction,
           config=st.builds(DetectorConfig,
                            flow_q_max=st.floats(0.0, 1e300),
                            scale_rel_std_max=st.floats(0.0, 1e300),
                            window_s=positive,
                            fire_fraction=st.floats(0.0, 1.0, exclude_min=True)))
    def test_detection_report(self, tmp_path_factory, flow, scale, flow_fire,
                              scale_fire, config):
        report = DetectionReport("live", "", flow, scale, flow_fire, scale_fire,
                                 config)
        payload = report_to_json_dict(report)
        text = json_text(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        back = json.loads(text)
        assert same_bits(back, payload)
        path = tmp_path_factory.mktemp("json") / "detect.json"
        write_json(path, payload)
        assert path.read_bytes() == text.encode()
        for name, series in (("residual_flow", flow), ("residual_scale", scale)):
            assert [v is None for v in back[name]] == (~np.isfinite(series)).tolist()

    @settings(deadline=None, max_examples=60)
    @given(scenario_id=st.text(), tolerance=positive,
           estimators=st.dictionaries(
               st.sampled_from(["d_1d", "d_2d", "d_3d", "d_tan"]),
               st.none() | st.builds(EstimatorAccuracy, fraction, fraction,
                                     st.floats(0.0, allow_infinity=False))))
    def test_accuracy_report(self, tmp_path_factory, scenario_id, tolerance, estimators):
        payload = AccuracyReport(scenario_id, tolerance, estimators).to_json_dict()
        text = json_text(payload)
        assert same_bits(json.loads(text), payload)
        path = tmp_path_factory.mktemp("json") / "accuracy.json"
        write_json(path, payload)
        assert path.read_bytes() == text.encode()
