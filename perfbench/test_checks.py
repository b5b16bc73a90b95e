"""Tests of the benchmark's own checks, oracles and tracer.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import math
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from crossarray import cli  # noqa: E402

SWAY = {"amplitude": (0.05, 0.03, 0.04), "frequency": (0.5, 0.7, 0.3),
        "phase": (0.0, 1.0, 2.0), "object": (2.0, 0.0, 0.15)}
N = 401


def sway_motion(n=N, rate=100.0):
    t = np.arange(n) / rate
    return (t, *oracles.lissajous(t, np.zeros(3), SWAY["amplitude"],
                                  SWAY["frequency"], SWAY["phase"]))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small generate / analyze / detect --playback run of the CLI."""
    out = tmp_path_factory.mktemp("cli")
    config = out / "sway.cfg"
    config.write_text(
        "kind = sway3d\nduration_s = 4.0\nsample_rate_hz = 100\n"
        + "".join(f"{key} = {workloads.vec(SWAY[name])}\n" for key, name in
                  (("amplitude_m", "amplitude"), ("frequency_hz", "frequency"),
                   ("phase_rad", "phase"), ("object_m", "object"))))
    for args in (["generate"], ["analyze"], ["detect", "--playback"]):
        assert cli.main(args + ["--config", str(config), "--out-dir", str(out)]) == 0
    return out


def corrupt(path, old, new, count=1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


# ---------------------------------------------------------------------------
# each check passes on the real artifact and rejects a corrupted copy
# ---------------------------------------------------------------------------

def test_track_csv_check_rejects_truncation(artifacts, tmp_path):
    t, pos, vel, acc = sway_motion()
    checks.check_track_csv(artifacts / "track.csv", t, pos, vel, acc)
    text = (artifacts / "track.csv").read_text()
    for cut in (len(text) - 7, text.rindex("\n", 0, len(text) - 1) + 1):
        truncated = tmp_path / "track.csv"
        truncated.write_text(text[:cut])
        with pytest.raises(CheckFailed):
            checks.check_track_csv(truncated, t, pos, vel, acc)


def test_track_csv_check_rejects_a_moved_sample(artifacts, tmp_path):
    t, pos, vel, acc = sway_motion()
    lines = (artifacts / "track.csv").read_text().splitlines()
    cells = lines[100].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[100] = ",".join(cells)
    (tmp_path / "track.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="pxyz"):
        checks.check_track_csv(tmp_path / "track.csv", t, pos, vel, acc)


def _timeline_with(artifacts, tmp_path, column, row, factor):
    path = tmp_path / "timeline.csv"
    lines = (artifacts / "timeline.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_timeline_check_rejects_one_perturbed_d3d_cell(artifacts, tmp_path):
    t, pos, _, _ = sway_motion()
    obj = np.array(SWAY["object"])
    checks.check_timeline(artifacts / "timeline.csv", t, pos, obj)
    bad = _timeline_with(artifacts, tmp_path, "d_3d", 200, 1.0 + 1e-5)
    with pytest.raises(CheckFailed, match="d_3d"):
        checks.check_timeline(bad, t, pos, obj)


def test_timeline_check_rejects_wrong_truth(artifacts, tmp_path):
    t, pos, _, _ = sway_motion()
    bad = _timeline_with(artifacts, tmp_path, "d_true", 5, 1.0 + 1e-7)
    with pytest.raises(CheckFailed, match="d_true"):
        checks.check_timeline(bad, t, pos, np.array(SWAY["object"]))


def test_accuracy_check_rejects_a_changed_fraction(artifacts, tmp_path):
    t, pos, _, _ = sway_motion()
    cols = checks.check_timeline(artifacts / "timeline.csv", t, pos, np.array(SWAY["object"]))
    checks.check_accuracy_json(artifacts / "accuracy.json", cols, 0.05, planar=False)
    report = json.loads((artifacts / "accuracy.json").read_text())
    report["estimators"]["d_1d"]["accurate_fraction"] += 1.0 / N
    (tmp_path / "accuracy.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="d_1d.accurate_fraction"):
        checks.check_accuracy_json(tmp_path / "accuracy.json", cols, 0.05, planar=False)


def _playback_oracles():
    _, pos, vel, _ = sway_motion()
    q = oracles.rotation_rate(pos, vel, SWAY["object"])
    return np.full(N, np.nan), np.where(q >= oracles.EPS_RATE, q, 0.0)


def test_detect_check_rejects_a_flipped_verdict(artifacts, tmp_path):
    scale, flow = _playback_oracles()
    checks.check_detect_json(artifacts / "detect.json", "simulated", scale, flow)
    flipped = tmp_path / "detect.json"
    flipped.write_text((artifacts / "detect.json").read_text())
    corrupt(flipped, '"verdict": "simulated"', '"verdict": "live"')
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_detect_json(flipped, "simulated", scale, flow)


def test_detect_check_rejects_a_changed_residual(artifacts, tmp_path):
    scale, flow = _playback_oracles()
    report = json.loads((artifacts / "detect.json").read_text())
    report["residual_flow"][50] *= 1.0 + 1e-6
    (tmp_path / "flow.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="residual_flow"):
        checks.check_detect_json(tmp_path / "flow.json", "simulated", scale, flow)
    report = json.loads((artifacts / "detect.json").read_text())
    report["residual_scale"][50] = 0.0
    (tmp_path / "scale.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="residual_scale"):
        checks.check_detect_json(tmp_path / "scale.json", "simulated", scale, flow)


def test_slope_check_rejects_a_wrong_angle(tmp_path):
    accel, tilt = 1.5, 0.2
    config = tmp_path / "slope.cfg"
    config.write_text(f"accel_mps2 = {accel!r},0,0\nsupport_tilt_rad = {tilt!r}\n")
    out = tmp_path / "slope.csv"
    assert cli.main(["slope", "--config", str(config), "--out", str(out)]) == 0
    expected = oracles.slope(np.tile([accel, 0.0, 0.0], (201, 1)), oracles.tilted_normal(tilt))
    checks.check_slope_csv(out, expected)
    with pytest.raises(CheckFailed, match="slope_rad"):
        checks.check_slope_csv(out, expected + 1e-8)


def test_demo_checks_reject_a_failed_check_and_a_changed_byte(tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"checks": [{"name": "a", "passed": True}]}))
    checks.check_demo_summary(summary)
    summary.write_text(json.dumps({"checks": [{"name": "a", "passed": True},
                                              {"name": "b", "passed": False}]}))
    with pytest.raises(CheckFailed, match="b"):
        checks.check_demo_summary(summary)
    before = checks.tree_digest(tmp_path)
    summary.write_text(summary.read_text() + " ")
    assert checks.tree_digest(tmp_path) != before


def test_write_large_checks_in_full_any_tree_not_yet_verified(artifacts, tmp_path,
                                                               monkeypatch):
    monkeypatch.setattr(workloads, "sway_params", lambda rng, planar=False: {
        key: np.array(value) for key, value in SWAY.items()})
    w = workloads.CliWriteLarge(tmp_path, tmp_path, 0, 0)
    w.n_samples = N
    w.prepare()
    out = tmp_path / "out"
    shutil.copytree(artifacts, out)
    problems = []
    w._check_tree(out, problems)
    assert problems == [] and len(w.verified) == 1
    w._check_tree(out, problems)
    assert problems == []
    corrupt(out / "detect.json", '"verdict": "simulated"', '"verdict": "live"')
    w._check_tree(out, problems)
    assert len(problems) == 1 and "verdict" in problems[0]
    assert len(w.verified) == 1


class _Child:
    def __init__(self, code, stderr=""):
        self.code, self.stderr = code, stderr


def test_nan_operation_passes_only_a_clean_outcome(tmp_path):
    w = workloads.CliIngestDetect(tmp_path, tmp_path, 0, 1)
    timeline = tmp_path / "timeline.csv"
    problems = []
    assert not w._nan_row_handled(_Child(1, "Traceback (most recent call last):"),
                                  timeline, problems)
    assert not w._nan_row_handled(_Child(2, "Traceback ...\nerror: x"), timeline, problems)
    assert w._nan_row_handled(_Child(2, "error: SVD did not converge"), timeline, problems)
    assert problems == []
    flags = np.ones(w.n_samples)
    rows = "\n".join(f"{v},{v},{v}" for v in flags)
    timeline.write_text("valid_1d,valid_3d,valid_tan\n" + rows + "\n")
    assert w._nan_row_handled(_Child(0), timeline, problems)
    assert problems and "not flagged invalid" in problems[0]
    flags[w.NAN_ROW] = 0.0
    timeline.write_text("valid_1d,valid_3d,valid_tan\n"
                        + "\n".join(f"{v},{v},{v}" for v in flags) + "\n")
    problems = []
    assert w._nan_row_handled(_Child(0), timeline, problems) and problems == []


# ---------------------------------------------------------------------------
# the oracles agree with direct evaluation
# ---------------------------------------------------------------------------

def test_lissajous_matches_scalar_formula_and_its_derivatives():
    t, pos, vel, acc = sway_motion(n=50)
    for k in (0, 17, 49):
        for j in range(3):
            w = 2 * math.pi * SWAY["frequency"][j]
            arg = w * t[k] + SWAY["phase"][j]
            amp = SWAY["amplitude"][j]
            assert pos[k, j] == pytest.approx(amp * math.sin(arg), abs=1e-15)
            assert vel[k, j] == pytest.approx(amp * w * math.cos(arg), abs=1e-15)
            assert acc[k, j] == pytest.approx(-amp * w * w * math.sin(arg), abs=1e-14)
    h = 1e-5
    p_plus = oracles.lissajous(t + h, np.zeros(3), SWAY["amplitude"],
                               SWAY["frequency"], SWAY["phase"])[0]
    p_minus = oracles.lissajous(t - h, np.zeros(3), SWAY["amplitude"],
                                SWAY["frequency"], SWAY["phase"])[0]
    np.testing.assert_allclose((p_plus - p_minus) / (2 * h), vel, atol=1e-8)


def test_orbit_is_a_circle_at_constant_speed():
    t = np.linspace(0.0, 7.0, 71)
    center, radius, speed = np.array([1.0, -2.0, 0.5]), 1.7, 0.9
    pos, vel, acc = oracles.orbit(t, center, radius, speed, 0.3)
    np.testing.assert_allclose(np.linalg.norm(pos - center, axis=1), radius, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(vel, axis=1), speed, rtol=1e-14)
    np.testing.assert_allclose(np.sum((pos - center) * vel, axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(acc, -(speed**2 / radius**2) * (pos - center), atol=1e-14)
    np.testing.assert_allclose(pos[:, 2], center[2])


def test_rectilinear_and_rotation_rate_match_a_differenced_bearing():
    t = np.linspace(0.0, 3.0, 31)
    pos, vel, acc = oracles.rectilinear(t, (0.0, 1.0, 0.0), (3.0, 4.0, 0.0), 2.0)
    np.testing.assert_allclose(pos[-1], [0.0 + 2.0 * 3.0 * 0.6, 1.0 + 2.0 * 3.0 * 0.8, 0.0])
    assert not acc.any()
    obj = np.array([2.0, 0.5, 0.3])
    h = 1e-6
    bearing = lambda p: (p - obj) / np.linalg.norm(p - obj, axis=1)[:, None]  # noqa: E731
    i = bearing(pos)
    didt = (bearing(pos + h * vel) - bearing(pos - h * vel)) / (2 * h)
    np.testing.assert_allclose(oracles.rotation_rate(pos, vel, obj),
                               np.linalg.norm(np.cross(i, didt), axis=1), rtol=1e-7)


def test_windowed_rel_std_matches_a_python_loop():
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, 40)
    valid = rng.random(40) > 0.3
    valid[20:27] = False        # a window with too few valid samples
    x[30:40], valid[30:40] = 0.0, True   # an all-zero window
    h, min_count = 3, 4
    got = oracles.windowed_rel_std(x, valid, h, min_count)
    for k in range(40):
        window = [x[j] for j in range(max(k - h, 0), min(k + h + 1, 40)) if valid[j]]
        if len(window) < min_count:
            assert math.isnan(got[k])
        elif statistics.fmean(window) == 0.0:
            assert got[k] == 0.0
        else:
            want = statistics.pstdev(window) / abs(statistics.fmean(window))
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_sampled_d3d_recovers_distance_and_mismatch_scales_it():
    t, pos, vel, _ = sway_motion(n=4001, rate=1000.0)
    d3d, speed, _ = oracles.sampled_d3d(pos, vel, vel, SWAY["object"], 1e-3)
    truth = oracles.distance(pos, SWAY["object"])
    np.testing.assert_allclose(d3d[1:-1], truth[1:-1], rtol=1e-4)
    doubled, _, _ = oracles.sampled_d3d(pos, vel, 2.0 * vel, SWAY["object"], 1e-3)
    np.testing.assert_allclose(doubled, 2.0 * d3d, rtol=1e-15)


def test_accuracy_and_slope_oracles_on_hand_computed_cases():
    values = np.array([1.0, 1.04, 1.2, np.nan])
    valid = np.array([True, True, True, False])
    truth = np.ones(4)
    acc = oracles.accuracy(values, valid, truth, 0.05)
    assert acc["valid_fraction"] == 0.75
    assert acc["accurate_fraction"] == pytest.approx(2 / 3)
    assert acc["mean_abs_relative_error"] == pytest.approx(0.08)
    assert oracles.accuracy(values, np.zeros(4, bool), truth, 0.05) is None
    level = oracles.slope(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), (0.0, 0.0, 1.0))
    np.testing.assert_allclose(level, [math.atan2(2.0, 9.81), 0.0], atol=1e-15)
    tilted = oracles.slope(np.zeros((1, 3)), oracles.tilted_normal(0.3))
    assert tilted[0] == pytest.approx(0.3, abs=1e-15)


def test_track_csv_text_round_trips_exactly(tmp_path):
    t, pos, vel, acc = sway_motion(n=20)
    path = tmp_path / "t.csv"
    path.write_text(oracles.track_csv_text(t, pos, vel, acc))
    cols = checks.read_csv(path, 20)
    assert tuple(cols) == oracles.TRACK_HEADER
    assert np.array_equal(np.column_stack([cols[c] for c in oracles.TRACK_HEADER[1:4]]), pos)


# ---------------------------------------------------------------------------
# the tracer wraps every namespace, counts calls and undoes itself
# ---------------------------------------------------------------------------

def test_tracer_wraps_each_namespace_and_restores_it():
    from crossarray import detector, generators, observables
    from crossarray.demo import demo_scenarios
    original = generators.generate
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.generate is not original and generators.generate is not original
        cfg = demo_scenarios()["sway3d"]
        track = cli.generate(cfg)
        optics = observables.project_optics(track, cfg.scene_object)
        detector.detect(optics, observables.project_inertial(track))
    finally:
        uninstall()
    assert generators.generate is original and cli.generate is original
    metrics = tracing.per_layer(tracer, 0.25, 0.0)
    assert metrics["detector.estimate_distance_3d_calls"] == (1, "count")
    assert metrics["invariants.estimator_validity_calls"] == (0, "count")
    assert metrics["generators.generate_s"][0] > 0.0
    assert metrics["kernels.bytes_moved"][0] > 0


def test_self_time_excludes_nested_spans():
    import time
    tracer = tracing.Tracer()
    inner = lambda: time.sleep(0.03)  # noqa: E731

    def outer():
        time.sleep(0.02)
        tracer.run("inner", inner, (), {})

    tracer.run("outer", outer, (), {})
    assert 0.02 <= tracer.self_s["outer"] < 0.03
    assert 0.03 <= tracer.self_s["inner"] < 0.04
