"""Synthetic trajectory families and the playback transform.

Four analytic families stand in for recorded head motion: straight-line
travel, planar and 3D Lissajous sway, and a circular orbit tangential to
the object. Closed-form velocity and acceleration are attached whenever
no noise is requested; with position noise the derivatives are
re-derived numerically.

Randomness comes exclusively from ``numpy.random.default_rng`` (PCG64)
seeded from the config, so identical configs produce bit-identical
tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError
from .kinematics import (MIN_TRACK_SAMPLES, KinematicTrack, ScenePoint, TimeGrid,
                         from_positions, samples_spanning)

RECTILINEAR = "rectilinear"
PLANAR_SWAY = "planar_sway"
SWAY3D = "sway3d"
TANGENTIAL_ORBIT = "tangential_orbit"
CUSTOM_SAMPLES = "custom_samples"

KINDS = (RECTILINEAR, PLANAR_SWAY, SWAY3D, TANGENTIAL_ORBIT, CUSTOM_SAMPLES)

# the ScenarioConfig fields that ``generate`` reads for each kind
_SHARED = ("kind", "duration", "sample_rate", "object_position")
_NOISE = ("noise_sigma", "rng_seed")
_SWAY = ("start", "amplitude", "frequency", "phase")  # start is the sway center
KIND_FIELDS = {
    RECTILINEAR: _SHARED + ("start", "direction", "speed") + _NOISE,
    PLANAR_SWAY: _SHARED + _SWAY + _NOISE,  # z of amplitude is forced to 0
    SWAY3D: _SHARED + _SWAY + _NOISE,
    # circles object_position in its z plane, starting at phase[0]
    TANGENTIAL_ORBIT: _SHARED + ("orbit_radius", "speed", "phase") + _NOISE,
    CUSTOM_SAMPLES: _SHARED + ("samples",),  # (n, 3) positions on the grid
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for one synthetic scenario.

    Only the fields that ``KIND_FIELDS[kind]`` names are consulted.
    ``duration`` is the time from the first to the last sample, so a
    track holds ``round(duration * sample_rate) + 1`` samples.
    """

    kind: str
    duration: float = 2.0
    sample_rate: float = 100.0
    object_position: np.ndarray = field(default_factory=lambda: np.array([2.0, 0.0, 0.0]))
    start: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    speed: float = 1.0
    amplitude: np.ndarray = field(default_factory=lambda: np.array([0.05, 0.03, 0.04]))
    frequency: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.7, 0.3]))
    phase: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orbit_radius: float = 2.0
    samples: Optional[np.ndarray] = None
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        for name in ("object_position", "start", "direction", "amplitude",
                     "frequency", "phase"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite, got {arr}")
            object.__setattr__(self, name, arr)
        for name in ("duration", "sample_rate", "speed", "orbit_radius", "noise_sigma"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, val)
        if self.duration <= 0:
            raise ConfigError(f"duration must be > 0, got {self.duration}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be > 0, got {self.sample_rate}")
        n_samples = self.grid.n_samples
        if n_samples < MIN_TRACK_SAMPLES:  # every pipeline differentiates
            raise ConfigError(
                f"duration {self.duration} s at sample_rate {self.sample_rate} Hz "
                f"gives {n_samples} samples; a track needs at least {MIN_TRACK_SAMPLES}")
        if np.any(self.amplitude < 0):
            raise ConfigError(f"amplitudes must be >= 0, got {self.amplitude}")
        if self.orbit_radius <= 0:
            raise ConfigError(f"orbit_radius must be > 0, got {self.orbit_radius}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.samples is not None:
            object.__setattr__(self, "samples",
                               np.asarray(self.samples, dtype=np.float64, order="F"))

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(sample_rate=self.sample_rate,
                        n_samples=samples_spanning(self.duration, self.sample_rate))

    @property
    def scene_object(self) -> ScenePoint:
        return ScenePoint(position=self.object_position)

    def scaled(self, k: float) -> "ScenarioConfig":
        """Config with every length multiplied by ``k`` (same timing)."""
        return replace(
            self,
            object_position=self.object_position * k,
            start=self.start * k,
            speed=self.speed * k,
            amplitude=self.amplitude * k,
            orbit_radius=self.orbit_radius * k,
            samples=None if self.samples is None else self.samples * k,
            noise_sigma=self.noise_sigma * k,
        )


@dataclass(frozen=True)
class PlaybackPair:
    """A recorded (live) track paired with the stationary body replaying it.

    ``stationary`` sits at a fixed position with zero velocity and
    acceleration; optics are to be sourced from ``live`` while inertial
    quantities come from ``stationary``.
    """

    live: KinematicTrack
    stationary: KinematicTrack


def _sway(cfg: ScenarioConfig, t: np.ndarray, planar: bool, derivatives: bool):
    """Lissajous positions about ``cfg.start``; with ``derivatives`` also
    the closed-form velocity and acceleration, else None for both."""
    amp = cfg.amplitude.copy()
    if planar:
        amp[2] = 0.0
    w = 2.0 * np.pi * cfg.frequency
    arg = kernels.each_row(np.add, kernels.outer(t, w), cfg.phase)
    sin = np.sin(arg)
    pos = kernels.each_row(np.add, cfg.start, kernels.each_row(np.multiply, amp, sin))
    if not derivatives:
        return pos, None, None
    vel = kernels.each_row(np.multiply, amp * w, np.cos(arg))
    acc = kernels.each_row(np.multiply, -amp * w ** 2, sin)
    return pos, vel, acc


def generate(cfg: ScenarioConfig) -> KinematicTrack:
    """Synthesize the track described by ``cfg``.

    Noise-free tracks carry closed-form velocity/acceleration; with
    ``noise_sigma > 0`` iid Gaussian noise is added to position and the
    derivatives are finite-differenced (``analytic`` False), so the
    closed forms are not computed.
    """
    grid = cfg.grid
    n = grid.n_samples
    t = grid.times()
    analytic = cfg.noise_sigma == 0
    vel = acc = None

    if cfg.kind == RECTILINEAR:
        norm = np.linalg.norm(cfg.direction)
        if norm == 0:
            raise ConfigError("rectilinear direction must be nonzero")
        unit = cfg.direction / norm
        pos = kernels.each_row(np.add, cfg.start, cfg.speed * kernels.outer(t, unit))
        if analytic:
            vel = kernels.tile_rows(cfg.speed * unit, n)
            acc = np.zeros((n, 3), order="F")
    elif cfg.kind == PLANAR_SWAY:
        pos, vel, acc = _sway(cfg, t, planar=True, derivatives=analytic)
    elif cfg.kind == SWAY3D:
        pos, vel, acc = _sway(cfg, t, planar=False, derivatives=analytic)
    elif cfg.kind == TANGENTIAL_ORBIT:
        # circle of orbit_radius around the object, in the object's z plane
        w = cfg.speed / cfg.orbit_radius
        ang = w * t + cfg.phase[0]
        r = cfg.orbit_radius
        cos, sin, zero = np.cos(ang), np.sin(ang), np.zeros_like(ang)
        radial = np.array([cos, sin, zero]).T
        pos = kernels.each_row(np.add, cfg.object_position, r * radial)
        if analytic:
            vel = r * w * np.array([-sin, cos, zero]).T
            acc = -r * w * w * radial
    elif cfg.kind == CUSTOM_SAMPLES:
        if cfg.samples is None:
            raise ConfigError("custom_samples scenario needs a samples array")
        if cfg.samples.shape != (n, 3):
            raise ConfigError(
                f"samples shape {cfg.samples.shape} does not match grid ({n}, 3)")
        return from_positions(grid, cfg.samples)
    else:  # pragma: no cover - guarded in __post_init__
        raise ConfigError(f"unknown scenario kind {cfg.kind!r}")

    if not analytic:
        rng = np.random.default_rng(cfg.rng_seed)
        noisy = np.empty((n, 3), order="F")
        np.add(pos, rng.normal(0.0, cfg.noise_sigma, size=pos.shape), out=noisy)
        return from_positions(grid, noisy)
    return KinematicTrack(grid=grid, position=pos, velocity=vel, acceleration=acc)


def make_playback(live: KinematicTrack, hold_position: np.ndarray) -> PlaybackPair:
    """Pair a recorded track with a body holding still at ``hold_position``."""
    hold = np.asarray(hold_position, dtype=np.float64).reshape(3)
    n = live.grid.n_samples
    stationary = KinematicTrack(
        grid=live.grid,
        position=kernels.tile_rows(hold, n),
        velocity=np.zeros((n, 3), order="F"),
        acceleration=np.zeros((n, 3), order="F"),
    )
    return PlaybackPair(live=live, stationary=stationary)
