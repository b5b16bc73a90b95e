"""Scenario-level statistics over the distance estimate series.

The headline number is the fraction of time each estimator specified
the actual distance to within a relative tolerance. Fractions are taken
over *valid* samples only, and the valid fraction is always reported
next to them so the denominators stay auditable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from . import kernels
from .errors import ConfigError
from .invariants import DistanceEstimateSeries, SlopeEstimate
from .kinematics import KinematicTrack
from .observables import InertialStream, OpticalStream, require_same_grid

DEFAULT_TOLERANCE = 0.05  # relative; reported in every output
REACH_THRESHOLD = 0.6  # m; the reach section of every accuracy.json


@dataclass(frozen=True)
class EstimatorAccuracy:
    valid_fraction: float
    accurate_fraction: float
    mean_abs_relative_error: float


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy of each estimator on one scenario.

    Estimators with zero valid samples map to ``None``: their fractions
    are undefined, not zero.
    """

    scenario_id: str
    tolerance: float
    estimators: Dict[str, Optional[EstimatorAccuracy]]

    def to_json_dict(self) -> dict:
        return {"scenario_id": self.scenario_id, "tolerance": self.tolerance,
                "estimators": {name: None if acc is None else asdict(acc)
                               for name, acc in self.estimators.items()}}


def _column_accuracy(values, valid, truth, tolerance) -> Optional[EstimatorAccuracy]:
    n = len(values)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        return None
    truth = truth[valid]
    rel_err = np.abs(values[valid] - truth) / truth
    return EstimatorAccuracy(
        valid_fraction=n_valid / n,
        accurate_fraction=float(np.count_nonzero(rel_err <= tolerance)) / n_valid,
        mean_abs_relative_error=float(np.mean(rel_err)),
    )


def accuracy(est: DistanceEstimateSeries, tolerance: float = DEFAULT_TOLERANCE,
             scenario_id: str = "") -> AccuracyReport:
    """Fraction of valid samples on which each estimator hit the truth."""
    if not (tolerance > 0):
        raise ConfigError(f"tolerance must be > 0, got {tolerance}")
    estimators = {name: _column_accuracy(values, valid, est.d_true, tolerance)
                  for name, (values, valid) in est.by_name().items()}
    return AccuracyReport(scenario_id=scenario_id, tolerance=tolerance,
                          estimators=estimators)


def reach_judgment(est: DistanceEstimateSeries, threshold: float) -> dict:
    """The ``reach`` section of accuracy.json; D <= threshold counts as
    within reach. It holds the share of samples truly within reach, and
    each estimator's agreement with that over its valid samples (None
    if it has none)."""
    if not (threshold > 0):
        raise ConfigError(f"reach threshold must be > 0, got {threshold}")
    truth = est.d_true <= threshold
    agreement = {}
    for name, (values, mask) in est.by_name().items():
        agreement[name] = (None if not mask.any() else
                           float(np.mean((values[mask] <= threshold) == truth[mask])))
    return {"threshold_m": threshold,
            "truth_within_reach_fraction": float(np.mean(truth)),
            "agreement_with_truth": agreement}


def timeline_table(est: DistanceEstimateSeries, optics: OpticalStream,
                   inertial: InertialStream,
                   track: KinematicTrack) -> Dict[str, np.ndarray]:
    """Per-sample table of the optical and inertial components and the
    distances they jointly specify; one row per sample, plot-ready.
    """
    require_same_grid(est.grid, optics.grid, inertial.grid, track.grid)
    return {
        "t": est.grid.times(),
        "px": track.position[:, 0],
        "py": track.position[:, 1],
        "pz": track.position[:, 2],
        "v": inertial.speed,
        "alpha": optics.alpha,
        "q": optics.q_norm,
        "d_true": est.d_true,
        "d_1d": est.d_1d,
        "d_3d": est.d_3d,
        "d_tan": est.d_tan,
        "valid_1d": est.valid_1d,
        "valid_3d": est.valid_3d,
        "valid_tan": est.valid_tan,
    }


def slope_table(slope: SlopeEstimate) -> Dict[str, np.ndarray]:
    """Per-sample slope angle, direction of balance and degenerate flag."""
    return {
        "t": slope.grid.times(),
        "slope_rad": slope.slope_angle,
        "dob_x": slope.direction_of_balance[:, 0],
        "dob_y": slope.direction_of_balance[:, 1],
        "dob_z": slope.direction_of_balance[:, 2],
        "degenerate": slope.degenerate,
    }


def exploration_summary(track: KinematicTrack) -> dict:
    """The ``exploration`` section of accuracy.json: movement descriptors
    that covary with how much information motion makes."""
    accel = kernels.row_norm(track.acceleration)
    return {
        "amplitude_m": np.ptp(track.position, axis=0).tolist(),
        "mean_speed_mps": float(track.speed.mean()),
        "max_speed_mps": float(track.speed.max()),
        "mean_accel_mps2": float(accel.mean()),
        "max_accel_mps2": float(accel.max()),
    }
