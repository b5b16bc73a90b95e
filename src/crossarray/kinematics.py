"""Uniformly sampled trajectories and numerical differentiation.

Everything downstream consumes :class:`KinematicTrack`: a position /
velocity / acceleration series on a shared :class:`TimeGrid`. Units are
SI (meters, seconds, radians) throughout; no unit parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InputShapeError, InsufficientDataError
from . import kernels

MIN_TRACK_SAMPLES = 3  # the fewest samples ``differentiate`` takes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: sample k lies at ``t0 + k / sample_rate``."""

    sample_rate: float
    n_samples: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.sample_rate > 0):
            raise InputShapeError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.n_samples < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {self.n_samples}")

    @classmethod
    def spanning(cls, duration, sample_rate, min_samples: int, holder: str) -> "TimeGrid":
        """``round(duration * sample_rate) + 1`` samples, the first and last
        ``duration`` seconds apart. A duration or rate that is not positive,
        a count that is not finite or exceeds the largest array index, or
        one under the ``min_samples`` that ``holder`` needs, is a
        ``ConfigError``; a count too large for memory fails later."""
        if not duration > 0:
            raise ConfigError(f"duration must be > 0, got {duration}")
        if not sample_rate > 0:
            raise ConfigError(f"sample_rate must be > 0, got {sample_rate}")
        count, largest = duration * sample_rate, np.iinfo(np.intp).max
        given = f"duration {duration} s at sample_rate {sample_rate} Hz gives"
        if not np.isfinite(count) or round(count) + 1 > largest:
            raise ConfigError(f"{given} {count:.3g} samples; an array holds at most "
                              f"{largest}")
        n_samples = round(count) + 1
        if n_samples < min_samples:
            raise ConfigError(f"{given} {n_samples} samples; {holder} needs at least "
                              f"{min_samples}")
        return cls(sample_rate=sample_rate, n_samples=n_samples)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Time spanned from the first to the last sample."""
        return (self.n_samples - 1) / self.sample_rate

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.sample_rate

    def matches(self, other: "TimeGrid") -> bool:
        return (self.sample_rate == other.sample_rate
                and self.n_samples == other.n_samples
                and self.t0 == other.t0)


@dataclass(frozen=True)
class ScenePoint:
    """A fixed point in the scene whose distance is to be recovered."""

    position: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(pos)):
            raise InputShapeError(f"scene point coordinates must be finite, got {pos}")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class KinematicTrack:
    """Trajectory of the moving point of observation.

    ``analytic`` is True when velocity and acceleration are closed-form,
    False when they were finite-differenced from position or read from
    a file.
    """

    grid: TimeGrid
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    analytic: bool = True

    def __post_init__(self):
        for name in ("position", "velocity", "acceleration"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.grid.n_samples, 3):
                raise InputShapeError(
                    f"{name} has shape {arr.shape}, expected ({self.grid.n_samples}, 3)")
            finite = np.isfinite(arr)
            if not finite.all():
                k = int(np.argmin(finite.all(axis=1)))
                raise InputShapeError(
                    f"{name} must be finite; sample {k} is {arr[k].tolist()}")
            object.__setattr__(self, name, arr)

    @cached_property
    def speed(self) -> np.ndarray:
        """|velocity| per sample, in m/s: the inertial stream's speed, and the
        one speed ``EPS_SPEED`` decides stillness on, for optics and inertia."""
        return kernels.row_norm(self.velocity)


def unit_vector(v, name: str, error=ConfigError) -> np.ndarray:
    """``v / np.linalg.norm(v)`` for a 3-vector, with its bits.

    Raises ``error`` about ``name`` where ``v · v`` is not a normal
    float64: zero, short of bits by underflow (the quotient would miss
    unit length) or overflowing. No floating-point warning is printed.
    """
    v = np.asarray(v, dtype=np.float64).reshape(3)
    with np.errstate(all="ignore"):
        square = v @ v
    if not np.finfo(np.float64).tiny <= square < np.inf:
        raise error(f"{name} must be between 1.5e-154 and 1.3e154 long, "
                    f"got {v.tolist()}")
    return v / np.sqrt(square)


def constant_acceleration_track(grid: TimeGrid, accel) -> KinematicTrack:
    """Track starting at rest at the origin under a constant acceleration."""
    accel = np.asarray(accel, dtype=np.float64).reshape(3)
    t = grid.times()[:, None]
    return KinematicTrack(grid=grid, position=0.5 * np.multiply(t * t, accel, order="F"),
                          velocity=np.multiply(t, accel, order="F"),
                          acceleration=np.full((grid.n_samples, 3), accel, order="F"))


def differentiate(series: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Numerically differentiate a sampled series with respect to time.

    2nd-order central differences at interior samples, 2nd-order
    one-sided stencils at the two endpoints, so the output has the same
    length as the input. Exact for polynomials of degree <= 2; error is
    O(dt^2) otherwise.

    Parameters
    ----------
    series : (n,) or (n, m) array sampled on ``grid``
    grid : TimeGrid with ``n_samples == n`` and ``n >= MIN_TRACK_SAMPLES``
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.shape[0] != grid.n_samples:
        raise InputShapeError(
            f"series length {arr.shape[0]} does not match grid ({grid.n_samples} samples)")
    if grid.n_samples < MIN_TRACK_SAMPLES:
        raise InsufficientDataError(
            f"differentiation needs at least {MIN_TRACK_SAMPLES} samples")
    return kernels.diff_central(arr, grid.dt)


def from_positions(grid: TimeGrid, position: np.ndarray) -> KinematicTrack:
    """Build a track from positions alone, finite-differencing the rest."""
    position = np.asarray(position, dtype=np.float64)
    velocity = differentiate(position, grid)
    acceleration = differentiate(velocity, grid)
    return KinematicTrack(grid=grid, position=position, velocity=velocity,
                          acceleration=acceleration, analytic=False)


def as_differentiated(track: KinematicTrack) -> KinematicTrack:
    """Rebuild a track with finite-differenced derivatives.

    Models data that arrived as raw position samples (e.g. motion
    capture) instead of closed-form kinematics.
    """
    return from_positions(track.grid, track.position)
