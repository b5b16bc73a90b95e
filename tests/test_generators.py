import numpy as np
import pytest

from crossarray import (ConfigError, ScenarioConfig, differentiate, generate,
                        make_playback, project_optics, project_inertial)
from crossarray.fileio import write_track_csv


class TestRectilinear:
    def test_constant_velocity_and_final_position(self):
        cfg = ScenarioConfig(kind="rectilinear", duration=2.0, sample_rate=100.0,
                             direction=(1, 0, 0), speed=1.0)
        track = generate(cfg)
        assert track.grid.n_samples == 201
        assert np.allclose(track.position[-1], [2.0, 0.0, 0.0], atol=1e-12)
        assert np.all(track.velocity == [1.0, 0.0, 0.0])
        assert np.all(track.acceleration == 0.0)
        assert track.analytic


class TestOrbit:
    def test_radius_and_tangency(self, orbit_cfg):
        track = generate(orbit_cfg)
        rel = track.position - orbit_cfg.object_position
        radius = np.linalg.norm(rel, axis=1)
        assert np.max(np.abs(radius - orbit_cfg.orbit_radius)) < 1e-9
        radial_speed = np.einsum("ij,ij->i", rel / radius[:, None], track.velocity)
        assert np.max(np.abs(radial_speed)) < 1e-9

    def test_equals_the_three_call_formula_bit_for_bit(self):
        cfg = ScenarioConfig(kind="tangential_orbit", orbit_radius=1.7, speed=0.9,
                             phase=(0.4, 0.0, 0.0), object_position=(0.3, -0.2, 0.5))
        track = generate(cfg)
        r, center = cfg.orbit_radius, cfg.object_position
        w = cfg.speed / r
        ang = w * track.grid.times() + cfg.phase[0]
        zero = np.zeros_like(ang)
        assert np.array_equal(track.position, center[None, :] + r * np.column_stack(
            [np.cos(ang), np.sin(ang), zero]))
        assert np.array_equal(track.velocity, r * w * np.column_stack(
            [-np.sin(ang), np.cos(ang), zero]))
        assert np.array_equal(track.acceleration, -r * w * w * np.column_stack(
            [np.cos(ang), np.sin(ang), zero]))


def sway_formula(cfg, planar):
    """The sway's closed forms as (n, 3) broadcasts of per-axis vectors."""
    amp = cfg.amplitude.copy()
    if planar:
        amp[2] = 0.0
    w = 2.0 * np.pi * cfg.frequency
    arg = np.outer(cfg.grid.times(), w) + cfg.phase[None, :]
    sin = np.sin(arg)
    return (cfg.start[None, :] + amp[None, :] * sin,
            amp[None, :] * w[None, :] * np.cos(arg),
            -amp[None, :] * w[None, :] ** 2 * sin)


def rectilinear_formula(cfg):
    unit = cfg.direction / np.linalg.norm(cfg.direction)
    n = cfg.grid.n_samples
    return (cfg.start[None, :] + cfg.speed * np.outer(cfg.grid.times(), unit),
            np.broadcast_to(cfg.speed * unit, (n, 3)).copy(), np.zeros((n, 3)))


BROADCAST_CASES = {
    "sway3d": (dict(kind="sway3d", start=(0.1, -0.2, 0.5), amplitude=(0.05, 0.03, 0.04),
                    frequency=(0.4, 0.7, 0.3), phase=(0.2, 1.1, -0.6)),
               lambda cfg: sway_formula(cfg, planar=False)),
    "planar_sway": (dict(kind="planar_sway", start=(-0.3, 0.2, 0.1),
                         amplitude=(0.07, 0.02, 0.9), frequency=(0.9, 0.35, 2.0),
                         phase=(1.3, 0.4, 0.0)),
                    lambda cfg: sway_formula(cfg, planar=True)),
    "rectilinear": (dict(kind="rectilinear", start=(0.4, -1.1, 0.2),
                         direction=(0.3, -2.0, 0.7), speed=1.3),
                    rectilinear_formula),
}


class TestBroadcastFormulas:
    """Each analytic kind returns the bits of its (n, 3) broadcast formula;
    ``TestOrbit`` covers the orbit."""

    @pytest.mark.parametrize("name", BROADCAST_CASES)
    def test_equals_the_broadcast_formula_bit_for_bit(self, name):
        kwargs, formula = BROADCAST_CASES[name]
        cfg = ScenarioConfig(duration=7.0, sample_rate=250.0, **kwargs)
        track = generate(cfg)
        pos, vel, acc = formula(cfg)
        assert track.analytic
        assert np.array_equal(track.position, pos)
        assert np.array_equal(track.velocity, vel)
        assert np.array_equal(track.acceleration, acc)

    @pytest.mark.parametrize("name", [*BROADCAST_CASES, "tangential_orbit"])
    def test_noisy_positions_are_the_clean_ones_plus_the_seeded_draw(self, name):
        kwargs = BROADCAST_CASES[name][0] if name in BROADCAST_CASES else dict(
            kind="tangential_orbit", orbit_radius=1.7, speed=0.9, phase=(0.4, 0.0, 0.0),
            object_position=(0.3, -0.2, 0.5))
        clean = ScenarioConfig(duration=3.0, **kwargs)
        noisy = ScenarioConfig(duration=3.0, noise_sigma=2e-3, rng_seed=11, **kwargs)
        track = generate(noisy)
        draw = np.random.default_rng(11).normal(0.0, 2e-3, size=(301, 3))
        assert np.array_equal(track.position, generate(clean).position + draw)
        assert np.array_equal(track.velocity, differentiate(track.position, track.grid))


class TestSway:
    def test_planar_sway_matches_independent_lissajous(self):
        cfg = ScenarioConfig(kind="planar_sway", duration=3.0, sample_rate=100.0,
                             start=(0.1, -0.2, 0.5), amplitude=(0.05, 0.03, 0.9),
                             frequency=(0.4, 0.7, 2.0), phase=(0.2, 1.1, 0.0))
        track = generate(cfg)
        t = track.grid.times()
        x = 0.1 + 0.05 * np.sin(2 * np.pi * 0.4 * t + 0.2)
        y = -0.2 + 0.03 * np.sin(2 * np.pi * 0.7 * t + 1.1)
        closed = np.column_stack([x, y, np.full_like(t, 0.5)])
        assert np.max(np.abs(track.position - closed)) < 1e-12

    def test_planar_sway_ignores_z_amplitude(self):
        cfg = ScenarioConfig(kind="planar_sway", amplitude=(0.05, 0.03, 0.8))
        track = generate(cfg)
        assert np.all(track.position[:, 2] == 0.0)


class TestDeterminism:
    def test_same_seed_bit_identical_bytes(self, tmp_path):
        cfg = ScenarioConfig(kind="sway3d", noise_sigma=0.002, rng_seed=77)
        paths = []
        for i in range(2):
            p = tmp_path / f"track_{i}.csv"
            write_track_csv(p, generate(cfg))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seed_differs(self):
        a = generate(ScenarioConfig(kind="sway3d", noise_sigma=0.002, rng_seed=1))
        b = generate(ScenarioConfig(kind="sway3d", noise_sigma=0.002, rng_seed=2))
        assert not np.array_equal(a.position, b.position)


class TestScaleFamily:
    def test_power_of_two_scaling_is_bitwise_exact(self, sway3d_cfg):
        base = generate(sway3d_cfg)
        doubled = generate(sway3d_cfg.scaled(2.0))
        assert np.array_equal(doubled.position, 2.0 * base.position)

    def test_general_scaling_matches_to_rounding(self, sway3d_cfg):
        base = generate(sway3d_cfg)
        scaled = generate(sway3d_cfg.scaled(10.0))
        assert np.allclose(scaled.position, 10.0 * base.position,
                           rtol=1e-12, atol=0.0)


class TestNoise:
    def test_noise_switches_to_differentiated_provenance(self):
        track = generate(ScenarioConfig(kind="sway3d", noise_sigma=1e-3, rng_seed=5))
        assert not track.analytic
        assert np.array_equal(track.velocity, differentiate(track.position, track.grid))

    def test_noise_perturbs_position_at_sigma_scale(self):
        clean = generate(ScenarioConfig(kind="sway3d", rng_seed=5))
        noisy = generate(ScenarioConfig(kind="sway3d", noise_sigma=1e-3, rng_seed=5))
        spread = np.std(noisy.position - clean.position)
        assert 0.5e-3 < spread < 2e-3


class TestPlayback:
    def test_stationary_track_is_motionless(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.1, 0.0))
        assert np.all(pair.stationary.velocity == 0.0)
        assert np.all(pair.stationary.acceleration == 0.0)
        assert np.all(pair.stationary.position == [0.0, 0.1, 0.0])

    def test_live_optics_flow_while_inertial_still(self, sway3d_cfg):
        pair = make_playback(generate(sway3d_cfg), (0.0, 0.0, 0.0))
        optics = project_optics(pair.live, sway3d_cfg.scene_object)
        inertial = project_inertial(pair.stationary)
        assert np.max(optics.q_norm) > 0.0
        assert np.all(inertial.speed == 0.0)


class TestCustomSamples:
    def test_positions_pass_through_with_ingested_provenance(self):
        base = generate(ScenarioConfig(kind="sway3d", duration=1.0))
        cfg = ScenarioConfig(kind="custom_samples", duration=1.0,
                             samples=base.position)
        track = generate(cfg)
        assert not track.analytic
        assert np.array_equal(track.position, base.position)

    def test_missing_samples_rejected(self):
        with pytest.raises(ConfigError):
            generate(ScenarioConfig(kind="custom_samples"))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="warp"),
        dict(kind="sway3d", duration=0.0),
        dict(kind="sway3d", amplitude=(-0.1, 0, 0)),
        dict(kind="tangential_orbit", orbit_radius=0.0),
        dict(kind="sway3d", noise_sigma=-1.0),
        dict(kind="rectilinear", speed=float("nan")),
        dict(kind="sway3d", frequency=(np.inf, 0, 0)),
        dict(kind="sway3d", duration=0.01),  # 2 samples at 100 Hz
    ])
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_three_samples_are_the_fewest(self):
        assert ScenarioConfig(kind="sway3d", duration=0.02).grid.n_samples == 3

    def test_zero_direction_rejected(self):
        with pytest.raises(ConfigError):
            generate(ScenarioConfig(kind="rectilinear", direction=(0, 0, 0)))
