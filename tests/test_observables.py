import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossarray import (DegenerateGeometryError, InputShapeError, ScenarioConfig,
                        TimeGrid, constant_support, generate, make_playback,
                        project_inertial, project_optics, replay_optics)
from crossarray.observables import _fit_plane


def brute_force_q(track, obj_position):
    """Independent rotation-rate oracle: central differences on the
    bearing series computed from scratch, no shared code path."""
    rel = track.position - np.asarray(obj_position)
    bearing = rel / np.linalg.norm(rel, axis=1)[:, None]
    dt = track.grid.dt
    didt = (bearing[2:] - bearing[:-2]) / (2 * dt)
    q = np.linalg.norm(np.cross(bearing[1:-1], didt), axis=1)
    return q  # interior samples only


class TestOrbitOptics:
    def test_alpha_is_right_angle_and_q_is_speed_over_radius(self, orbit_cfg):
        optics = project_optics(generate(orbit_cfg), orbit_cfg.scene_object)
        assert np.max(np.abs(optics.alpha - np.pi / 2)) < 1e-6
        assert np.max(np.abs(optics.q_norm - 0.5)) < 1e-6

    def test_q_matches_brute_force_differencing(self, orbit_cfg):
        track = generate(orbit_cfg)
        optics = project_optics(track, orbit_cfg.scene_object)
        q_bf = brute_force_q(track, orbit_cfg.object_position)
        assert np.max(np.abs(optics.q_norm[1:-1] - q_bf)) < 1e-4


class TestRectilinearOptics:
    def test_initial_geometry_against_closed_form(self, rect_cfg):
        # observer at origin moving +x at 1 m/s, object at (3, 4, 0):
        # cos(alpha) = 3/5, bearing rotation = V sin(alpha) / D = 0.8 / 5
        optics = project_optics(generate(rect_cfg), rect_cfg.scene_object)
        assert abs(optics.alpha[0] - np.arccos(0.6)) < 1e-12
        assert abs(optics.q_norm[0] - 0.16) < 1e-12

    def test_q_matches_brute_force_differencing(self, rect_cfg):
        track = generate(rect_cfg)
        optics = project_optics(track, rect_cfg.scene_object)
        q_bf = brute_force_q(track, rect_cfg.object_position)
        assert np.max(np.abs(optics.q_norm[1:-1] - q_bf)) < 1e-5

    def test_alpha_dot_matches_theta_dot_when_heading_fixed(self, rect_cfg):
        optics = project_optics(generate(rect_cfg), rect_cfg.scene_object)
        shared = np.isfinite(optics.alpha_dot) & np.isfinite(optics.theta_dot)
        diff = np.abs(np.abs(optics.alpha_dot[shared])
                      - np.abs(optics.theta_dot[shared]))
        assert np.max(diff) < 1e-6


class TestStationary:
    def test_no_motion_means_no_flow_and_no_alpha(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=0.0, duration=1.0)
        optics = project_optics(generate(cfg), cfg.scene_object)
        assert np.all(optics.q_norm == 0.0)
        assert np.all(np.isnan(optics.alpha))


class TestInertial:
    def test_constant_velocity_specific_force_equals_gravity(self, rect_cfg):
        inertial = project_inertial(generate(rect_cfg))
        assert np.all(inertial.specific_force == [0.0, 0.0, -9.81])

    def test_accelerating_body_feels_reaction(self):
        from crossarray.kinematics import KinematicTrack, TimeGrid
        grid = TimeGrid(sample_rate=100.0, n_samples=11)
        t = grid.times()
        accel = np.tile([2.0, 0.0, 0.0], (11, 1))
        track = KinematicTrack(grid=grid, position=np.outer(t * t / 2, [2, 0, 0]),
                               velocity=np.outer(t, [2, 0, 0]), acceleration=accel)
        inertial = project_inertial(track)
        assert np.all(inertial.specific_force == [-2.0, 0.0, -9.81])

    def test_sway_speed_matches_closed_form(self, sway3d_cfg):
        track = generate(sway3d_cfg)
        inertial = project_inertial(track)
        t = track.grid.times()
        w = 2 * np.pi * np.asarray(sway3d_cfg.frequency)
        vel = (np.asarray(sway3d_cfg.amplitude) * w
               * np.cos(np.outer(t, w) + np.asarray(sway3d_cfg.phase)))
        assert np.max(np.abs(inertial.speed - np.linalg.norm(vel, axis=1))) < 1e-9


class TestReplay:
    def test_flow_persists_while_body_is_still(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics, inertial = replay_optics(pair, sway3d_cfg.scene_object)
        assert np.max(optics.q_norm) > 0.0
        assert np.all(inertial.speed == 0.0)

    def test_optics_identical_to_direct_projection_of_live(self, rect_cfg):
        track = generate(rect_cfg)
        pair = make_playback(track, (5.0, 5.0, 0.0))
        replayed, _ = replay_optics(pair, rect_cfg.scene_object)
        direct = project_optics(track, rect_cfg.scene_object)
        assert np.array_equal(replayed.bearing, direct.bearing)
        assert np.array_equal(replayed.q_norm, direct.q_norm)


class TestScaleAmbiguity:
    @settings(deadline=None, max_examples=20)
    @given(k=st.floats(0.1, 100.0))
    def test_optical_fields_invariant_while_speed_scales(self, k):
        from crossarray.demo import demo_scenarios
        sway3d_cfg = demo_scenarios()["sway3d"]
        base_track = generate(sway3d_cfg)
        base_optics = project_optics(base_track, sway3d_cfg.scene_object)
        scaled_cfg = sway3d_cfg.scaled(k)
        track = generate(scaled_cfg)
        optics = project_optics(track, scaled_cfg.scene_object)
        inertial = project_inertial(track)
        assert np.max(np.abs(optics.bearing - base_optics.bearing)) < 1e-12
        assert np.nanmax(np.abs(optics.alpha - base_optics.alpha)) < 1e-12
        assert np.nanmax(np.abs(optics.alpha_dot - base_optics.alpha_dot)) < 1e-12
        assert np.max(np.abs(optics.q_norm - base_optics.q_norm)) < 1e-12
        base_speed = project_inertial(base_track).speed
        assert np.allclose(inertial.speed, k * base_speed, rtol=1e-12, atol=0.0)


class TestPlanarScaleBlindness:
    def test_planar_fields_survive_rescaling(self):
        # elliptical sway keeps speed bounded away from zero so theta_dot
        # is a real series at every sample
        ellipse = ScenarioConfig(kind="planar_sway", duration=4.0,
                                 sample_rate=100.0, amplitude=(0.05, 0.03, 0.0),
                                 frequency=(0.5, 0.5, 0.0),
                                 phase=(0.0, np.pi / 2, 0.0),
                                 object_position=(2.0, 0.3, 0.0))
        base = project_optics(generate(ellipse), ellipse.scene_object)
        for k in (0.5, 2.0, 10.0):
            cfg = ellipse.scaled(k)
            scaled = project_optics(generate(cfg), cfg.scene_object)
            assert np.max(np.abs(scaled.bearing - base.bearing)) < 1e-12
            assert np.max(np.abs(scaled.q_norm - base.q_norm)) < 1e-12
            assert np.max(np.abs(scaled.theta_dot - base.theta_dot)) < 1e-12
            assert np.nanmax(np.abs(scaled.alpha - base.alpha)) < 1e-12
            # alpha_dot differences the arccos series; when the heading
            # sweeps through the object direction the arccos conditioning
            # amplifies rounding beyond the cross-product fields
            assert np.nanmax(np.abs(scaled.alpha_dot - base.alpha_dot)) < 5e-11


class TestPlanarStructure:
    def test_planar_theta_dot_magnitude_equals_q(self, planar_cfg):
        optics = project_optics(generate(planar_cfg), planar_cfg.scene_object)
        assert np.all(np.isfinite(optics.theta_dot))
        assert np.max(np.abs(np.abs(optics.theta_dot) - optics.q_norm)) < 1e-9

    def test_nonplanar_motion_flags_theta_dot_invalid(self, sway3d_cfg):
        optics = project_optics(generate(sway3d_cfg), sway3d_cfg.scene_object)
        assert np.all(np.isnan(optics.theta_dot))

    def test_planar_needs_coplanar_object(self, planar_cfg):
        from dataclasses import replace
        lifted = replace(planar_cfg, object_position=np.array([2.0, 0.3, 0.5]))
        optics = project_optics(generate(lifted), lifted.scene_object)
        assert np.all(np.isnan(optics.theta_dot))


def line_and_object_cloud():
    """The exactly planar 40,002-point cloud of a rectilinear track and
    its object, C-ordered as ``np.vstack`` builds it."""
    direction = np.array([1.0, 2.0, -0.5]) / np.sqrt(5.25)
    cfg = ScenarioConfig(kind="rectilinear", duration=400.0, sample_rate=100.0,
                         start=np.array([0.1, -0.3, 0.2]), direction=direction,
                         object_position=np.array([2.0, -0.5, -0.3]))
    return np.vstack([generate(cfg).position, cfg.object_position[None, :]])


def svd_fit(points):
    """The plane fit without the scatter-matrix proof: the thin SVD of
    the cloud centered by ``mean(axis=0)`` of its C-ordered rows."""
    mean = np.ascontiguousarray(points).mean(axis=0)
    _, s, vt = np.linalg.svd(np.subtract(points, mean, order="F"),
                             full_matrices=False)
    normal = vt[-1]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    return bool(s[-1] <= 1e-9 * s[0]), normal


def cloud_with_ratio(n, ratio, seed):
    """n points whose centered cloud has singular values near 1, 0.6 and
    ``ratio``, in random axes, off the origin."""
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=(n, 3))
    u, _ = np.linalg.qr(spread - spread.mean(axis=0))
    u -= u.mean(axis=0)
    axes, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (u * [1.0, 0.6, ratio]) @ axes.T + rng.uniform(-2.0, 2.0, 3)


class TestPlaneFit:
    def test_exactly_planar_line_reads_planar(self):
        # collinear samples and one more point lie in one plane exactly
        direction = np.array([1.0, 2.0, -0.5]) / np.sqrt(5.25)
        cfg = ScenarioConfig(kind="rectilinear", duration=400.0, sample_rate=100.0,
                             start=np.array([0.1, -0.3, 0.2]), direction=direction,
                             object_position=np.array([2.0, -0.5, -0.3]))
        points = np.vstack([generate(cfg).position, cfg.object_position[None, :]])
        s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
        assert len(points) == 40_002 and s[-1] <= 1e-9 * s[0]
        planar, normal = _fit_plane(points)
        assert planar
        assert abs(normal @ direction) < 1e-12
        assert abs(normal @ (cfg.object_position - cfg.start)) < 1e-12
        assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-15)
        assert normal[np.argmax(np.abs(normal))] > 0

    def test_all_equal_cloud_has_no_extent(self):
        planar, normal = _fit_plane(np.tile([1.5, -2.0, 0.25], (401, 1)))
        assert planar
        assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-15)
        assert normal[np.argmax(np.abs(normal))] > 0

    # the scatter-matrix proof of non-planarity only ever skips an SVD
    # that would have read the cloud as not planar
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 40_002])
    @pytest.mark.parametrize("ratio", [0.0, 1e-12, 5e-10, 2e-9, 1e-6, 1e-5, 1e-3, 0.5])
    def test_agrees_with_the_svd(self, n, ratio):
        for seed in range(3):
            points = cloud_with_ratio(n, ratio, seed)
            want_planar, want_normal = svd_fit(points)
            planar, normal = _fit_plane(points)
            assert planar == want_planar, (n, ratio, seed)
            if planar:
                assert normal.tobytes() == want_normal.tobytes(), (n, ratio, seed)
            else:
                assert normal is None

    def test_both_sides_of_the_threshold_are_exercised(self):
        # the clouds above straddle the SVD's 1e-9 threshold
        assert svd_fit(cloud_with_ratio(40_002, 5e-10, 0))[0]
        assert not svd_fit(cloud_with_ratio(40_002, 2e-9, 0))[0]

    def test_exactly_planar_cloud_reaches_the_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert _fit_plane(line_and_object_cloud())[0]
        assert len(calls) == 1
        # a cloud the proof settles never calls it
        assert not _fit_plane(cloud_with_ratio(40_002, 1e-3, 0))[0]
        assert len(calls) == 1

    def test_a_cloud_that_is_not_finite_still_raises_from_the_svd(self):
        points = cloud_with_ratio(50, 0.5, 0)
        points[7, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _fit_plane(points)


class TestStreamInvariants:
    def test_bearing_vectors_are_unit_norm(self, canonical):
        for name, cfg in canonical.items():
            optics = project_optics(generate(cfg), cfg.scene_object)
            norms = np.linalg.norm(optics.bearing, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-9, name
            assert np.all(optics.q_norm >= 0.0), name
            valid_alpha = optics.alpha[np.isfinite(optics.alpha)]
            assert np.all((valid_alpha >= 0.0) & (valid_alpha <= np.pi)), name


class TestRotationIdentity:
    def test_q_equals_speed_sin_alpha_over_distance(self, sway3d_cfg):
        # the geometric lock the 3D estimator inverts, against ground truth
        track = generate(sway3d_cfg)
        optics = project_optics(track, sway3d_cfg.scene_object)
        inertial = project_inertial(track)
        d_true = np.linalg.norm(track.position - sway3d_cfg.object_position, axis=1)
        m = np.isfinite(optics.alpha) & (optics.q_norm > 1e-9)
        identity = inertial.speed[m] * np.abs(np.sin(optics.alpha[m])) / d_true[m]
        assert np.max(np.abs(identity - optics.q_norm[m]) / optics.q_norm[m]) < 1e-6


class TestValidityAndErrors:
    def test_object_on_trajectory_is_degenerate(self):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0,
                             object_position=(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateGeometryError, match=r"object at \[1\.0, 0\.0, 0\.0\]"):
            project_optics(generate(cfg), cfg.scene_object)

    def test_speed_below_threshold_invalidates_alpha(self):
        cfg = ScenarioConfig(kind="rectilinear", speed=1e-9, duration=1.0,
                             object_position=(0.0, 2.0, 0.0))
        optics = project_optics(generate(cfg), cfg.scene_object)
        assert np.all(np.isnan(optics.alpha))

    @pytest.mark.parametrize("normal", [(0.0, 0.0, 0.0), (1e-320, 0.0, 0.0),
                                        (1e-160, 0.0, 0.0), (1e200, 1e200, 0.0)],
                             ids=["zero", "subnormal", "underflowing", "overflowing"])
    def test_support_normal_whose_length_is_lost_is_rejected(self, normal):
        # no warning either: the suite turns warnings into errors
        with pytest.raises(InputShapeError, match=r"^normal must be between"):
            constant_support(TimeGrid(sample_rate=100.0, n_samples=5), normal)
