"""Cross-sense invariants: distance estimators and the slope of the ground.

Distance to a fixed object is not recoverable from optics alone: every
optical angle is unchanged when the whole scene is scaled. Combining
optical angles with the body's own speed V closes the gap.
``estimate_all`` fills one column per estimator, each named for the
motion regime it assumes:

- ``d_1d``:  D = V sin(alpha) / |alpha_dot|
  (heading fixed; alpha_dot is the rate of the angle between object
  direction and heading)
- ``d_2d``:  D = V sin(alpha) / |theta_dot|
  (planar motion; theta_dot is the signed bearing rate in the plane)
- ``d_3d``:  D = V |sin(alpha)| / q_norm, also ``estimate_distance_3d``
  (general 3D motion; q_norm is the norm of the bearing rotation)
- ``d_tan``:  D = V / q_norm
  (exact when motion is tangential to an object-centered sphere, i.e.
  alpha = pi/2; elsewhere it overestimates by 1/|sin(alpha)|)

``motion_masks`` applies the fixed thresholds ``EPS_SPEED`` and
``EPS_RATE``, and ``estimator_validity`` builds each column's mask from
them. A sample outside its mask is NaN, except that ``d_3d`` is 0 where
the body is still and the bearing rotates.

``optics_only_ratio`` is the scale-blind remainder |sin(alpha)|/q_norm:
it equals D/V, a time, and demonstrates that no distance in meters
exists in the optical stream by itself.

``slope_invariant`` is the orientation counterpart: the angle between
the direction of balance (contraparallel to the specific force) and the
support surface normal. On level ground at rest it is zero; it reports
ground slope, and it tilts under horizontal acceleration even when the
ground does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kinematics import KinematicTrack, ScenePoint, TimeGrid
from .observables import (EPS_RATE, EPS_SPEED, InertialStream, OpticalStream,
                          SupportStream, project_inertial, project_optics,
                          require_same_grid)

EPS_FORCE = 1e-6  # m/s^2; below this the specific force has no direction


@dataclass(frozen=True)
class DistanceEstimateSeries:
    """Per-sample distance estimates from each model, with validity flags."""

    grid: TimeGrid
    d_1d: np.ndarray
    d_2d: np.ndarray
    d_3d: np.ndarray
    d_tan: np.ndarray
    valid_1d: np.ndarray
    valid_2d: np.ndarray
    valid_3d: np.ndarray
    valid_tan: np.ndarray
    d_true: np.ndarray

    def by_name(self):
        """(value, validity) pairs keyed by estimator column name."""
        return {
            "d_1d": (self.d_1d, self.valid_1d),
            "d_2d": (self.d_2d, self.valid_2d),
            "d_3d": (self.d_3d, self.valid_3d),
            "d_tan": (self.d_tan, self.valid_tan),
        }


@dataclass(frozen=True)
class SlopeEstimate:
    """Angle between the direction of balance and the support normal."""

    grid: TimeGrid
    slope_angle: np.ndarray            # (n,) rad in [0, pi], NaN where degenerate
    direction_of_balance: np.ndarray   # (n, 3) unit vectors, NaN where degenerate
    degenerate: np.ndarray             # (n,) bool, True in free fall


def motion_masks(optics: OpticalStream, inertial: InertialStream):
    """Where speed and optics pair up: ``(moving, resolvable)``.

    The body moves where its speed exceeds ``EPS_SPEED`` (speed at the
    threshold counts as still); the bearing rotation is resolvable where
    ``q_norm`` reaches ``EPS_RATE``.
    """
    return inertial.speed > EPS_SPEED, optics.q_norm >= EPS_RATE


def estimate_distance_3d(optics: OpticalStream, inertial: InertialStream) -> np.ndarray:
    """Distance from the 3D bearing rotation norm; NaN where invalid.

    Where the body is still but the bearing rotates anyway (a replayed
    recording), the numerator V |sin alpha| is zero regardless of the
    undefined alpha, so the value is reported as 0 with the validity
    flag off: flow without motion is consistent with no positive
    distance at all.
    """
    require_same_grid(optics.grid, inertial.grid)
    moving, resolvable = motion_masks(optics, inertial)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = inertial.speed * np.abs(optics.sin_alpha) / optics.q_norm
    d = np.where(~moving & resolvable, 0.0, d)
    return np.where(resolvable, d, np.nan)


def estimator_validity(optics: OpticalStream, inertial: InertialStream):
    """Validity masks for all four estimators, keyed like ``by_name``."""
    moving, resolvable = motion_masks(optics, inertial)
    # NaN rates compare False against the threshold, masking themselves out
    with np.errstate(invalid="ignore"):
        rate_1d = np.abs(optics.alpha_dot) >= EPS_RATE
        rate_2d = np.abs(optics.theta_dot) >= EPS_RATE
    # d_1d, d_2d and d_3d read sin(alpha), NaN where the optics' track is still
    heading = moving & np.isfinite(optics.alpha)
    return {
        "d_1d": heading & rate_1d,
        "d_2d": heading & rate_2d,
        "d_3d": heading & resolvable,
        "d_tan": moving & resolvable,
    }


def estimate_all(optics: OpticalStream, inertial: InertialStream,
                 track: KinematicTrack,
                 scene_object: ScenePoint) -> DistanceEstimateSeries:
    """Run every estimator and attach the ground-truth distance series.

    ``d_1d``, ``d_2d`` and ``d_tan`` are NaN wherever their validity
    mask is off; ``d_2d`` is all-NaN for non-planar motion, whose
    ``theta_dot`` is NaN, so one series can describe any scenario.
    """
    require_same_grid(optics.grid, inertial.grid, track.grid)
    validity = estimator_validity(optics, inertial)
    speed = inertial.speed
    with np.errstate(invalid="ignore", divide="ignore"):
        along = speed * optics.sin_alpha
        d_1d = np.where(validity["d_1d"], along / np.abs(optics.alpha_dot), np.nan)
        d_2d = np.where(validity["d_2d"], along / np.abs(optics.theta_dot), np.nan)
        d_tan = np.where(validity["d_tan"], speed / optics.q_norm, np.nan)
    d_true = kernels.row_norm(track.position - scene_object.position)
    return DistanceEstimateSeries(
        grid=track.grid, d_1d=d_1d, d_2d=d_2d,
        d_3d=estimate_distance_3d(optics, inertial), d_tan=d_tan,
        valid_1d=validity["d_1d"], valid_2d=validity["d_2d"],
        valid_3d=validity["d_3d"], valid_tan=validity["d_tan"],
        d_true=d_true)


def project_and_estimate(track: KinematicTrack, scene_object: ScenePoint):
    """Full pipeline for one scenario: (optics, inertial, estimates)."""
    optics = project_optics(track, scene_object)
    inertial = project_inertial(track)
    return optics, inertial, estimate_all(optics, inertial, track, scene_object)


def optics_only_ratio(optics: OpticalStream) -> np.ndarray:
    """The scale-blind optical remainder |sin alpha| / q_norm, in seconds.

    Equals D/V wherever defined. Dimensionally a time, not a length:
    whatever is done with optical angles alone, the meters never appear.
    NaN where alpha is undefined or the rotation is below threshold.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(optics.sin_alpha) / optics.q_norm
    return np.where(optics.q_norm >= EPS_RATE, ratio, np.nan)


def slope_invariant(inertial: InertialStream, support: SupportStream) -> SlopeEstimate:
    """Angle between the direction of balance and the support normal.

    The direction of balance is contraparallel to the specific force.
    Samples in free fall (|specific force| below ``EPS_FORCE``) have no
    defined direction and are flagged degenerate.
    """
    require_same_grid(inertial.grid, support.grid)
    force = inertial.specific_force
    magnitude = kernels.row_norm(force)
    degenerate = magnitude < EPS_FORCE
    with np.errstate(invalid="ignore", divide="ignore"):
        dob = -force / magnitude[:, None]
    dob[degenerate] = np.nan
    # atan2 of cross/dot is well conditioned at both small and large angles
    cross = kernels.cross(dob, support.normal)
    dot = kernels.row_dot(dob, support.normal)
    angle = np.arctan2(kernels.row_norm(cross), dot)
    angle = np.where(degenerate, np.nan, angle)
    return SlopeEstimate(grid=inertial.grid, slope_angle=angle,
                         direction_of_balance=dob, degenerate=degenerate)
