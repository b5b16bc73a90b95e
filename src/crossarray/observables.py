"""Per-sense observable streams derived from a trajectory and a scene.

A trajectory projects into three independent streams:

- :class:`OpticalStream` — what vision alone can measure about a fixed
  object: the unit bearing direction, the angle ``alpha`` between the
  object direction and the heading, its rate, the signed planar bearing
  rate ``theta_dot`` and the 3D rotation norm ``q_norm``. All of these
  are invariant under uniform scaling of the scene.
- :class:`InertialStream` — what the moving body measures about itself:
  its speed and the specific force (gravity minus acceleration).
- :class:`SupportStream` — the contact normal of the surface of support.

Angular conventions: the bearing unit vector points from the object
toward the point of observation; ``alpha`` is in [0, pi]; ``theta_dot``
is signed about the motion plane's oriented normal and only defined for
planar trajectories, while ``q_norm`` covers full 3D motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, GridAlignmentError, InputShapeError
from .generators import PlaybackPair
from .kinematics import KinematicTrack, ScenePoint, TimeGrid, differentiate, unit_vector

# validity thresholds, fixed; EPS_SPEED applies to KinematicTrack.speed
EPS_SPEED = 1e-6     # m/s at or below which the heading (and alpha) is undefined
EPS_RATE = 1e-6      # rad/s below which angular rates cannot be inverted
MIN_SEPARATION = 1e-9  # m; object closer than this to the track is degenerate

DEFAULT_GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class OpticalStream:
    """Optical bearing kinematics of a fixed object seen from a track."""

    grid: TimeGrid
    bearing: np.ndarray        # (n, 3) unit vectors, object -> observer
    alpha: np.ndarray          # (n,) rad, NaN where track.speed <= EPS_SPEED
    alpha_dot: np.ndarray      # (n,) rad/s, finite-differenced from alpha
    theta_dot: np.ndarray      # (n,) rad/s signed, NaN unless motion is planar
    q_norm: np.ndarray         # (n,) rad/s, norm of bearing x d(bearing)/dt

    @cached_property
    def sin_alpha(self) -> np.ndarray:
        """sin(alpha), taken once per stream for every estimator that reads it."""
        return np.sin(self.alpha)


@dataclass(frozen=True)
class InertialStream:
    """Non-optical kinematics of the moving body."""

    grid: TimeGrid
    speed: np.ndarray            # (n,) m/s
    specific_force: np.ndarray   # (n, 3) m/s^2, gravity - acceleration


@dataclass(frozen=True)
class SupportStream:
    """Unit normal of the surface of support, per sample."""

    grid: TimeGrid
    normal: np.ndarray  # (n, 3) unit vectors

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=np.float64)
        if normal.shape != (self.grid.n_samples, 3):
            raise InputShapeError(
                f"normal has shape {normal.shape}, expected ({self.grid.n_samples}, 3)")
        norms = kernels.row_norm(normal)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise InputShapeError("support normals must have unit norm (tol 1e-9)")
        object.__setattr__(self, "normal", normal)


def require_same_grid(*grids: TimeGrid) -> None:
    first = grids[0]
    for g in grids[1:]:
        if not first.matches(g):
            raise GridAlignmentError(
                f"time grids differ: {first} vs {g}")


def _fit_plane(points: np.ndarray) -> Tuple[bool, Optional[np.ndarray]]:
    """Least-squares plane through the points; planar iff the residual is tiny.

    Returns (planar, unit normal), with the normal None where the cloud
    is not planar. The normal sign is fixed so its largest-magnitude
    component is positive, which keeps the theta_dot sign convention
    deterministic.

    The plane comes from the thin SVD of the centered cloud C: planar
    iff s_3 <= 1e-9 s_1. Before it, the 3x3 scatter matrix may prove the
    cloud not planar, and then the SVD is skipped: 0.19 ms at 40,002
    rows, against 0.83-1.13 ms for the SVD. numpy sums each column product in
    blocks of 128 with eight accumulators, then pairwise, so an entry is
    at most 27 + log2(n / 128) roundings deep. It errs by at most that
    many units of roundoff (2^-53) times ||C||_F^2 <= 3 s_1^2, under
    1e-13 s_1^2 over the matrix for any n below 2^60, and ``eigvalsh``
    adds a few units of roundoff of l_max. So a passing proof,
    l_min > 1e-10 l_max, means s_3 / s_1 > 0.99e-5, four orders above
    the SVD's threshold. The proof never reads a cloud as planar and
    never gives the normal: an exactly planar cloud's scatter matrix
    reads an eigenvalue ratio of about +-1e-16 (the condition number is
    squared), fails the proof and keeps the SVD's decision and normal
    bits. A scatter that is not finite, or whose l_min is below 1e-280,
    where products lose bits to underflow, proves nothing.
    """
    # each column's mean from a sequential sum: the bits of mean(axis=0)
    # on C-ordered rows, which adds the rows in order, in either layout;
    # a column's own mean sums pairwise, to other bits, and the SVD sees
    # every one of them. The centered cloud is written in Fortran order,
    # which the SVD copies faster.
    n = points.shape[0]
    mean = np.array([np.cumsum(points[:, j])[-1] / n for j in range(3)])
    centered = np.subtract(points, mean, order="F")
    if _provably_not_planar(centered):
        return False, None
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if not s[-1] <= 1e-9 * s[0]:
        return False, None
    normal = vt[-1]
    pivot = np.argmax(np.abs(normal))
    if normal[pivot] < 0:
        normal = -normal
    return True, normal


def _provably_not_planar(centered: np.ndarray) -> bool:
    """Whether the scatter matrix of a centered cloud proves that its
    smallest singular value is above 0.99e-5 of its largest; the bound
    is in ``_fit_plane``."""
    x, y, z = centered[:, 0], centered[:, 1], centered[:, 2]
    with np.errstate(all="ignore"):
        xx, yy, zz, xy, xz, yz = (np.add.reduce(a * b) for a, b in (
            (x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    scatter = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    if not np.isfinite(scatter).all():
        return False
    low, _, high = np.linalg.eigvalsh(scatter)
    return bool(low > 1e-10 * high and low > 1e-280)


def project_optics(track: KinematicTrack, scene_object: ScenePoint) -> OpticalStream:
    """Project a trajectory into the optical stream of a fixed object.

    For analytic tracks the bearing derivative comes from the chain
    rule ``d(i)/dt = (v - i (i.v)) / |r|`` on the closed-form velocity,
    giving machine-precision angular kinematics. For differentiated or
    ingested tracks only samples exist, so the bearing series itself is
    finite-differenced and the angular rates carry O(dt^2) error.
    ``alpha_dot`` is always finite-differenced from the alpha series:
    it models what an observer of the sampled angle could measure.
    """
    rel = track.position - scene_object.position
    dist_sq = kernels.row_dot(rel, rel)
    if np.any(dist_sq <= MIN_SEPARATION ** 2):
        raise DegenerateGeometryError(
            f"object at {scene_object.position.tolist()} coincides with the trajectory "
            f"(min separation {np.sqrt(dist_sq.min()):.3g} m)")

    bearing, alpha, omega, q_norm = kernels.bearing_kinematics(
        rel, np.sqrt(dist_sq), track.velocity, chain_rule=track.analytic)
    # no heading where the body is still: the speed the inertial stream reports
    alpha[track.speed <= EPS_SPEED] = np.nan
    if not track.analytic:
        didt = differentiate(bearing, track.grid)
        omega = kernels.cross(bearing, didt)
        q_norm = kernels.row_norm(omega)

    planar, normal = _fit_plane(np.vstack((track.position, scene_object.position)))
    # BLAS's matrix-vector product sums in an order that follows the layout
    theta_dot = (np.ascontiguousarray(omega) @ normal if planar
                 else np.full(track.grid.n_samples, np.nan))
    return OpticalStream(
        grid=track.grid, bearing=bearing, alpha=alpha,
        alpha_dot=differentiate(alpha, track.grid), theta_dot=theta_dot,
        q_norm=q_norm)


def project_inertial(track: KinematicTrack,
                     gravity: np.ndarray = DEFAULT_GRAVITY) -> InertialStream:
    """Project a trajectory into the body's inertial stream."""
    gravity = np.asarray(gravity, dtype=np.float64).reshape(3)
    return InertialStream(grid=track.grid, speed=track.speed,
                          specific_force=gravity - track.acceleration)


def replay_optics(pair: PlaybackPair,
                  scene_object: ScenePoint) -> Tuple[OpticalStream, InertialStream]:
    """Observable streams of a body watching a replay of recorded motion.

    Optics come from the recorded (live) track; inertial quantities come
    from the stationary body. This is the mismatched pairing that
    destroys the cross-sense distance parameter.
    """
    optics = project_optics(pair.live, scene_object)
    inertial = project_inertial(pair.stationary)
    return optics, inertial


def constant_support(grid: TimeGrid, normal=(0.0, 0.0, 1.0)) -> SupportStream:
    """Support stream with one fixed surface normal (normalized here)."""
    unit = unit_vector(normal, "normal", InputShapeError)
    return SupportStream(grid=grid, normal=np.full((grid.n_samples, 3), unit, order="F"))


def tilted_support(grid: TimeGrid, tilt_rad: float) -> SupportStream:
    """Level support normal (0, 0, 1) tilted by ``tilt_rad`` about the y axis."""
    return constant_support(grid, (np.sin(tilt_rad), 0.0, np.cos(tilt_rad)))
