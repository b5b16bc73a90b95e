"""Every (n, 3) series is stored column-major, and no result depends on
the memory layout of the series it was given."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from crossarray import (ScenarioConfig, constant_support, detect, estimate_all,
                        generate, kernels, make_playback, project_inertial,
                        project_optics, slope_invariant, tilted_support)
from crossarray.fileio import read_track_csv, write_track_csv
from crossarray.kinematics import (KinematicTrack, as_differentiated,
                                   constant_acceleration_track, differentiate)
from crossarray.observables import SupportStream, _fit_plane

KINDS = ("rectilinear", "planar_sway", "sway3d", "tangential_orbit")
LAYOUTS = (np.ascontiguousarray, np.asfortranarray)

# a noise-free rectilinear scene drawn as the benchmark's sweep draws one
# (object 6-10 m off the line of travel), and the sweep's scale factor; at
# 401 samples BLAS's theta_dot already differs between the two layouts
SWEEP_RECTILINEAR = ScenarioConfig(
    kind="rectilinear", duration=4.0, sample_rate=100.0,
    start=(0.7498430313196505, 0.3224698567853159, -0.5880195262049157),
    direction=(0.7785076828718746, 0.6007048023240116, -0.18187778361948095),
    speed=1.0201158465892175,
    object_position=(73.7516692549213, 54.63372473799241, -19.278195735243255))
SWEEP_SCALE = 3.460206275664896


def scenarios(canonical):
    """Each kind noise-free and noisy, and the sweep's rectilinear scene
    as drawn and scaled."""
    out = {}
    for kind in KINDS:
        out[kind] = canonical[kind]
        out[kind + " noisy"] = replace(canonical[kind], noise_sigma=1e-3, rng_seed=11)
    out["sweep rectilinear"] = SWEEP_RECTILINEAR
    out["sweep rectilinear scaled"] = SWEEP_RECTILINEAR.scaled(SWEEP_SCALE)
    return out


def relaid(track, layout):
    return KinematicTrack(grid=track.grid, position=layout(track.position),
                          velocity=layout(track.velocity),
                          acceleration=layout(track.acceleration),
                          analytic=track.analytic)


def arrays(result, path="", out=None):
    """Every array and scalar of a result, keyed by its path."""
    out = {} if out is None else out
    if dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            arrays(getattr(result, f.name), f"{path}.{f.name}", out)
    elif isinstance(result, tuple):
        for i, item in enumerate(result):
            arrays(item, f"{path}[{i}]", out)
    else:
        out[path] = result
    return out


def pipeline(track, cfg, layout):
    track = relaid(track, layout)
    optics = project_optics(track, cfg.scene_object)
    inertial = project_inertial(track)
    support = SupportStream(track.grid, layout(
        constant_support(track.grid, (0.1, 0.2, 1.0)).normal))
    return (optics, optics.sin_alpha, inertial,
            estimate_all(optics, inertial, track, cfg.scene_object),
            detect(optics, inertial), slope_invariant(inertial, support))


class TestLayoutIndependence:
    def test_c_and_fortran_copies_give_the_same_bits(self, canonical):
        for name, cfg in scenarios(canonical).items():
            track = generate(cfg)
            c_order, f_order = (arrays(pipeline(track, cfg, layout))
                                for layout in LAYOUTS)
            assert c_order.keys() == f_order.keys()
            for key, want in c_order.items():
                got = f_order[key]
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape, (name, key)
                    assert got.tobytes() == want.tobytes(), (name, key)
                else:
                    assert got == want, (name, key)


class TestPinnedOperations:
    def test_theta_dot_is_the_product_of_c_ordered_rows(self):
        # BLAS sums a matrix-vector product in an order that follows the
        # layout, and the rotation series is Fortran-ordered
        cfg = SWEEP_RECTILINEAR.scaled(SWEEP_SCALE)
        track = as_differentiated(generate(cfg))
        optics = project_optics(track, cfg.scene_object)
        omega = kernels.cross(optics.bearing, differentiate(optics.bearing, track.grid))
        points = np.ascontiguousarray(np.vstack([track.position, cfg.object_position]))
        planar, normal = _fit_plane(points)
        assert planar
        want = np.ascontiguousarray(omega) @ normal
        assert optics.theta_dot.tobytes() == want.tobytes()

    def test_plane_fit_reads_either_layout(self, canonical):
        # its mean adds each column in order, so the cloud's layout
        # changes no bit of the decision or the normal
        clouds = {name: np.vstack([generate(cfg).position, cfg.object_position])
                  for name, cfg in (("sweep rectilinear", SWEEP_RECTILINEAR),
                                    ("sway3d", canonical["sway3d"]))}
        for name, points in clouds.items():
            (c_planar, c_normal), (f_planar, f_normal) = (
                _fit_plane(layout(points)) for layout in LAYOUTS)
            assert c_planar == f_planar == (name == "sweep rectilinear"), name
            if c_planar:
                assert c_normal.tobytes() == f_normal.tobytes(), name


def assert_fortran(**series):
    for name, value in series.items():
        assert value.shape[1] == 3 and value.flags.f_contiguous, name


class TestFortranOrder:
    @pytest.mark.parametrize("noise", [0.0, 1e-3], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_series(self, canonical, kind, noise):
        cfg = replace(canonical[kind], noise_sigma=noise)
        track = generate(cfg)
        optics = project_optics(track, cfg.scene_object)
        inertial = project_inertial(track)
        slope = slope_invariant(inertial, constant_support(track.grid))
        assert_fortran(position=track.position, velocity=track.velocity,
                       acceleration=track.acceleration, bearing=optics.bearing,
                       specific_force=inertial.specific_force,
                       direction_of_balance=slope.direction_of_balance)

    def test_custom_samples(self, canonical):
        given = np.ascontiguousarray(generate(canonical["sway3d"]).position)
        cfg = ScenarioConfig(kind="custom_samples", samples=given,
                             duration=canonical["sway3d"].duration)
        track = generate(cfg)
        assert_fortran(samples=cfg.samples, position=track.position,
                       velocity=track.velocity, acceleration=track.acceleration)

    def test_playback_and_helpers(self, canonical):
        live = generate(canonical["sway3d"])
        still = make_playback(live, live.position[0]).stationary
        accelerating = constant_acceleration_track(live.grid, (1.0, 0.0, 0.0))
        series = dict(position=still.position, velocity=still.velocity,
                      acceleration=still.acceleration,
                      accelerating_position=accelerating.position,
                      accelerating_velocity=accelerating.velocity,
                      accelerating_acceleration=accelerating.acceleration,
                      normal=constant_support(live.grid).normal,
                      tilted_normal=tilted_support(live.grid, 0.2).normal)
        assert_fortran(**series)
        assert [name for name, value in series.items() if not value.flags.owndata] == []

    def test_read_track_csv(self, canonical, tmp_path):
        path = tmp_path / "track.csv"
        write_track_csv(path, generate(canonical["sway3d"]))
        track = read_track_csv(path)
        assert_fortran(position=track.position, velocity=track.velocity,
                       acceleration=track.acceleration)
