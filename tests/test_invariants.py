import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossarray import (ScenarioConfig, constant_support, estimate_all,
                        estimate_distance_3d, generate, make_playback,
                        optics_only_ratio, project_and_estimate,
                        project_inertial, project_optics, replay_optics,
                        slope_invariant, tilted_support)
from crossarray.analysis import accuracy
from crossarray.fileio import json_text
from crossarray.invariants import EPS_FORCE
from crossarray.kinematics import KinematicTrack, TimeGrid, as_differentiated
from crossarray.observables import DEFAULT_GRAVITY, EPS_RATE, EPS_SPEED


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def pipeline(cfg):
    track = generate(cfg)
    return (track,) + project_and_estimate(track, cfg.scene_object)


class TestModel1D:
    def test_rectilinear_initial_distance_is_five_meters(self, rect_cfg):
        # closed form: D = V sin(alpha) / alpha_dot = 0.8 / 0.16 = 5.0
        _, _, _, est = pipeline(rect_cfg)
        assert est.valid_1d[0]
        assert abs(est.d_1d[0] - 5.0) < 1e-3

    def test_motionless_body_has_no_valid_samples(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=0.0, duration=1.0,
                             object_position=(0.0, 3.0, 0.0))
        _, _, _, est = pipeline(cfg)
        assert not est.valid_1d.any()
        assert np.all(np.isnan(est.d_1d))


class TestModel2D:
    def test_planar_sway_matches_3d_model(self, planar_cfg):
        _, _, _, est = pipeline(planar_cfg)
        shared = est.valid_2d & est.valid_3d
        assert shared.any()
        rel = np.abs(est.d_2d[shared] - est.d_3d[shared]) / est.d_3d[shared]
        assert np.max(rel) < 1e-9

    def test_rectilinear_matches_1d_model(self):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0,
                             object_position=(6.0, 8.0, 0.0))
        _, _, _, est = pipeline(cfg)
        shared = est.valid_1d & est.valid_2d
        rel = np.abs(est.d_2d[shared] - est.d_1d[shared]) / est.d_1d[shared]
        assert np.max(rel) < 1e-6

    def test_slow_bearing_rotation_is_invalid(self):
        # moving straight at the object: bearing never rotates
        cfg = ScenarioConfig(kind="rectilinear", duration=1.0,
                             direction=(1.0, 0.0, 0.0),
                             object_position=(5.0, 0.0, 0.0))
        _, _, _, est = pipeline(cfg)
        assert not est.valid_2d.any()
        assert not est.valid_3d.any()


class TestModel3D:
    def test_exact_on_every_analytic_scenario(self, canonical):
        for name, cfg in canonical.items():
            _, _, _, est = pipeline(cfg)
            assert est.valid_3d.any(), name
            rel = (np.abs(est.d_3d[est.valid_3d] - est.d_true[est.valid_3d])
                   / est.d_true[est.valid_3d])
            assert np.max(rel) < 1e-6, name

    @pytest.mark.parametrize("start", [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)],
                             ids=["alpha-near-0", "alpha-near-pi"])
    def test_exact_when_heading_passes_20_microns_from_the_object(self, start):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0, sample_rate=100.0,
                             start=start, object_position=(3.0, 0.0, 2e-5))
        _, _, _, est = pipeline(cfg)
        assert est.valid_3d.all()
        assert np.max(np.abs(est.d_3d - est.d_true) / est.d_true) < 1e-6

    def test_orbit_distance_is_the_radius(self, orbit_cfg):
        _, _, _, est = pipeline(orbit_cfg)
        assert np.max(np.abs(est.d_3d[est.valid_3d] - 2.0)) < 1e-9

    def test_replay_reports_zero_distance_wherever_flow_exists(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        d = estimate_distance_3d(optics, inertial)
        flowing = optics.q_norm >= EPS_RATE
        assert flowing.any()
        assert np.all(d[flowing] == 0.0)
        valid = (inertial.speed > EPS_SPEED) & flowing
        assert not valid.any()


class TestTangentialModel:
    def test_orbit_recovers_truth(self, orbit_cfg):
        _, _, _, est = pipeline(orbit_cfg)
        rel = np.abs(est.d_tan[est.valid_tan] - est.d_true[est.valid_tan]) / 2.0
        assert np.max(rel) < 1e-6

    def test_off_tangent_motion_overestimates_by_inverse_sin_alpha(self, rect_cfg):
        # substituting q = V sin(alpha)/D gives V/q = D / sin(alpha) >= D
        _, optics, _, est = pipeline(rect_cfg)
        m = est.valid_tan & est.valid_3d
        expected = est.d_true[m] / np.abs(np.sin(optics.alpha[m]))
        rel = np.abs(est.d_tan[m] - expected) / expected
        assert np.max(rel) < 1e-9
        assert np.all(est.d_tan[m] >= est.d_3d[m] - 1e-9)

    def test_never_below_the_3d_model(self, canonical):
        for name, cfg in canonical.items():
            _, _, _, est = pipeline(cfg)
            m = est.valid_tan & est.valid_3d
            assert np.all(est.d_tan[m] >= est.d_3d[m] - 1e-9), name


class TestOpticsOnlyRatio:
    def test_rectilinear_ratio_is_time_to_object_scale(self, rect_cfg):
        # D/V = 5 m over 1 m/s = 5 s at the first sample
        _, optics, _, _ = pipeline(rect_cfg)
        ratio = optics_only_ratio(optics)
        assert abs(ratio[0] - 5.0) < 1e-9

    def test_orbit_ratio_is_radius_over_speed(self, orbit_cfg):
        _, optics, _, _ = pipeline(orbit_cfg)
        ratio = optics_only_ratio(optics)
        finite = np.isfinite(ratio)
        assert np.max(np.abs(ratio[finite] - 2.0)) < 1e-9

    def test_ratio_ignores_scene_scale_while_truth_rescales(self, sway3d_cfg):
        _, optics0, _, est0 = pipeline(sway3d_cfg)
        scaled = sway3d_cfg.scaled(10.0)
        _, optics1, _, est1 = pipeline(scaled)
        r0, r1 = optics_only_ratio(optics0), optics_only_ratio(optics1)
        assert np.nanmax(np.abs(r1 - r0)) < 1e-12
        assert np.allclose(est1.d_true, 10.0 * est0.d_true, rtol=1e-12)


class TestEmbodimentDependence:
    def test_3d_distance_rescales_with_the_scene(self, sway3d_cfg):
        _, _, _, est0 = pipeline(sway3d_cfg)
        for k in (0.5, 2.0, 10.0):
            _, _, _, est_k = pipeline(sway3d_cfg.scaled(k))
            m = est0.valid_3d & est_k.valid_3d
            assert np.allclose(est_k.d_3d[m], k * est0.d_3d[m], rtol=1e-12,
                               atol=0.0)


def still_inertial(grid, accel=np.zeros(3), gravity=DEFAULT_GRAVITY):
    t = grid.times()
    track = KinematicTrack(grid=grid, position=0.5 * np.outer(t * t, accel),
                           velocity=np.outer(t, accel),
                           acceleration=np.tile(accel, (grid.n_samples, 1)))
    return project_inertial(track, gravity=gravity)


class TestSlopeInvariant:
    def test_level_ground_at_rest_is_flat(self):
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        slope = slope_invariant(still_inertial(grid), constant_support(grid))
        assert np.max(np.abs(slope.slope_angle)) < 1e-12
        assert np.allclose(slope.direction_of_balance, [0.0, 0.0, 1.0])

    def test_tilted_ground_reports_the_tilt(self):
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        slope = slope_invariant(still_inertial(grid),
                                tilted_support(grid, 0.17453))
        assert np.max(np.abs(slope.slope_angle - 0.17453)) < 1e-9

    def test_horizontal_acceleration_tilts_balance_not_ground(self):
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        slope = slope_invariant(still_inertial(grid, np.array([2.0, 0.0, 0.0])),
                                constant_support(grid))
        oracle = np.arctan2(2.0, 9.81)  # independent two-argument arctangent
        assert np.max(np.abs(slope.slope_angle - oracle)) < 1e-6

    def test_free_fall_is_degenerate(self):
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        falling = still_inertial(grid, accel=np.array(DEFAULT_GRAVITY))
        slope = slope_invariant(falling, constant_support(grid))
        assert slope.degenerate.all()
        assert np.all(np.isnan(slope.slope_angle))

    def test_force_below_threshold_has_no_direction(self):
        # |specific force| = 3e-7 < EPS_FORCE: nonzero, so -force/|force| is finite
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        nearly = still_inertial(grid, accel=DEFAULT_GRAVITY + np.array([3e-7, 0.0, 0.0]))
        slope = slope_invariant(nearly, constant_support(grid))
        assert slope.degenerate.all()
        assert np.all(np.isnan(slope.direction_of_balance))
        assert np.all(np.isnan(slope.slope_angle))

    @settings(deadline=None, max_examples=25)
    @given(axis=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
           angle=st.floats(0.0, np.pi))
    def test_invariant_under_common_rotation(self, axis, angle):
        k = np.asarray(axis)
        if np.linalg.norm(k) < 1e-3:
            return
        k = k / np.linalg.norm(k)

        def rotate(v):
            c, s = np.cos(angle), np.sin(angle)
            return v * c + np.cross(k, v) * s + k * np.dot(k, v) * (1 - c)

        grid = TimeGrid(sample_rate=100.0, n_samples=5)
        accel = np.array([1.0, -0.5, 0.3])
        base = slope_invariant(still_inertial(grid, accel),
                               constant_support(grid, (0.1, 0.2, 1.0)))
        spun = slope_invariant(
            still_inertial(grid, rotate(accel), gravity=rotate(DEFAULT_GRAVITY)),
            constant_support(grid, rotate(np.array([0.1, 0.2, 1.0]))))
        assert np.max(np.abs(spun.slope_angle - base.slope_angle)) < 1e-12


def numpy_slope(inertial, support):
    """``slope_invariant`` written with ``np.cross`` and ``np.linalg.norm``,
    on C-ordered copies: on Fortran rows ``einsum`` sums in another order."""
    force = np.ascontiguousarray(inertial.specific_force)
    normal = np.ascontiguousarray(support.normal)
    magnitude = np.linalg.norm(force, axis=1)
    degenerate = magnitude < EPS_FORCE
    with np.errstate(invalid="ignore", divide="ignore"):
        dob = -force / magnitude[:, None]
    dob = np.where(degenerate[:, None], np.nan, dob)
    cross = np.cross(dob, normal)
    dot = np.einsum("ij,ij->i", dob, normal)
    angle = np.arctan2(np.linalg.norm(cross, axis=1), dot)
    return np.where(degenerate, np.nan, angle), dob, degenerate


class TestSlopeBits:
    @pytest.mark.parametrize("accel, tilt", [
        ((0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0), 0.17453),
        ((2.0, -0.5, 0.3), 0.4),
        (tuple(DEFAULT_GRAVITY), 0.0),
    ], ids=["level", "tilted", "accelerating", "free-fall"])
    def test_equals_the_numpy_formula_bit_for_bit(self, accel, tilt):
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        inertial = still_inertial(grid, np.array(accel))
        support = tilted_support(grid, tilt)
        slope = slope_invariant(inertial, support)
        angle, dob, degenerate = numpy_slope(inertial, support)
        assert np.array_equal(slope.slope_angle, angle, equal_nan=True)
        assert np.array_equal(slope.direction_of_balance, dob, equal_nan=True)
        assert np.array_equal(slope.degenerate, degenerate)

    def test_equals_the_numpy_formula_on_sway(self, sway3d_cfg):
        inertial = project_inertial(generate(sway3d_cfg))
        support = constant_support(inertial.grid, (0.1, 0.2, 1.0))
        angle, dob, _ = numpy_slope(inertial, support)
        slope = slope_invariant(inertial, support)
        assert np.array_equal(slope.slope_angle, angle)
        assert np.array_equal(slope.direction_of_balance, dob)


class TestSinAlpha:
    def test_taken_once_and_equal_to_numpy(self, canonical):
        for cfg in canonical.values():
            optics = project_optics(generate(cfg), cfg.scene_object)
            assert optics.sin_alpha is optics.sin_alpha
            assert np.array_equal(optics.sin_alpha, np.sin(optics.alpha), equal_nan=True)


class TestCombinedSeries:
    def test_validity_flags_respect_thresholds(self, sway3d_cfg):
        track, optics, inertial, est = pipeline(sway3d_cfg)
        assert np.all(est.d_3d[est.valid_3d] >= 0.0)
        slow = inertial.speed <= EPS_SPEED
        for _, mask in est.by_name().values():
            assert not (mask & slow).any()

    def test_values_agree_with_their_masks(self, canonical):
        noisy = ScenarioConfig(kind="sway3d", duration=4.0, sample_rate=200.0,
                               noise_sigma=1e-3, rng_seed=5)
        for cfg in [*canonical.values(), noisy]:
            obj = cfg.scene_object
            track = generate(cfg)
            differenced = as_differentiated(track)
            replayed = replay_optics(make_playback(track, track.position[0]), obj)
            for t, (optics, inertial) in (
                    (track, (project_optics(track, obj), project_inertial(track))),
                    (differenced, (project_optics(differenced, obj),
                                   project_inertial(differenced))),
                    (track, replayed)):
                est = estimate_all(optics, inertial, t, obj)
                still = inertial.speed <= EPS_SPEED
                for name, (values, mask) in est.by_name().items():
                    assert not np.any(mask & still), name
                    assert np.all(np.isfinite(values[mask])), name
                    assert np.all(values[mask] >= 0.0), name
                    if name != "d_3d":
                        assert np.all(np.isnan(values[~mask])), name
                still_flow = still & (optics.q_norm >= EPS_RATE)
                off = ~est.valid_3d
                assert np.all(est.d_3d[off & still_flow] == 0.0)
                assert np.all(np.isnan(est.d_3d[off & ~still_flow]))

    def test_still_optics_leave_no_valid_nan(self):
        """Optics of a body creeping at 0.9 um/s (alpha NaN: its heading is
        undefined) but rotating measurably 0.5 m from the object, paired
        with the inertial stream of a 1 m/s body: every estimate that
        reads sin(alpha) is invalid, and no valid sample is NaN."""
        obj = (0.0, 0.5, 0.0)
        creeping = ScenarioConfig(kind="rectilinear", speed=0.9e-6, object_position=obj)
        optics = project_optics(generate(creeping), creeping.scene_object)
        walking = generate(ScenarioConfig(kind="rectilinear", speed=1.0))
        est = estimate_all(optics, project_inertial(walking), walking,
                           creeping.scene_object)
        assert np.all(np.isnan(optics.alpha))
        assert np.all(optics.q_norm >= EPS_RATE)
        assert not (est.valid_1d.any() or est.valid_2d.any() or est.valid_3d.any())
        assert est.valid_tan.all()
        for name, (values, mask) in est.by_name().items():
            assert np.all(np.isfinite(values[mask])), name
        report = accuracy(est)
        assert report.estimators["d_2d"] is None
        assert report.estimators["d_3d"] is None
        json.loads(json_text(report.to_json_dict()), parse_constant=_reject_constant)

    def test_d2_column_absent_for_nonplanar_motion(self, sway3d_cfg):
        _, _, _, est = pipeline(sway3d_cfg)
        assert not est.valid_2d.any()
        assert np.all(np.isnan(est.d_2d))
