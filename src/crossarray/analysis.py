"""Scenario-level statistics over the distance estimate series.

The headline number is the fraction of time each estimator specified
the actual distance to within a relative tolerance. Fractions are taken
over *valid* samples only, and the valid fraction is always reported
next to them so the denominators stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError, GridAlignmentError
from .invariants import DistanceEstimateSeries, SlopeEstimate
from .kinematics import KinematicTrack
from .observables import InertialStream, OpticalStream, require_same_grid

DEFAULT_TOLERANCE = 0.05  # relative; reported in every output
REACH_THRESHOLD = 0.6  # m; the reach section of every accuracy.json

TIMELINE_COLUMNS = ("t", "px", "py", "pz", "v", "alpha", "q",
                    "d_true", "d_1d", "d_3d", "d_tan",
                    "valid_1d", "valid_3d", "valid_tan")


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
        out = {"scenario_id": self.scenario_id, "tolerance": self.tolerance,
               "estimators": {}}
        for name, acc in self.estimators.items():
            if acc is None:
                out["estimators"][name] = None
            else:
                out["estimators"][name] = {
                    "valid_fraction": acc.valid_fraction,
                    "accurate_fraction": acc.accurate_fraction,
                    "mean_abs_relative_error": acc.mean_abs_relative_error,
                }
        return out


def _column_accuracy(values, valid, truth, tolerance) -> Optional[EstimatorAccuracy]:
    n = len(values)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        return None
    rel_err = np.abs(values[valid] - truth[valid]) / truth[valid]
    return EstimatorAccuracy(
        valid_fraction=n_valid / n,
        accurate_fraction=float(np.count_nonzero(rel_err <= tolerance)) / n_valid,
        mean_abs_relative_error=float(np.mean(rel_err)),
    )


def accuracy_from_columns(columns, truth, tolerance: float,
                          scenario_id: str = "") -> AccuracyReport:
    """Accuracy report from (values, validity) pairs against a truth series."""
    if not (tolerance > 0):
        raise ConfigError(f"tolerance must be > 0, got {tolerance}")
    estimators = {name: _column_accuracy(values, valid, truth, tolerance)
                  for name, (values, valid) in columns.items()}
    return AccuracyReport(scenario_id=scenario_id, tolerance=tolerance,
                          estimators=estimators)


def accuracy(est: DistanceEstimateSeries, tolerance: float = DEFAULT_TOLERANCE,
             scenario_id: str = "") -> AccuracyReport:
    """Fraction of valid samples on which each estimator hit the truth."""
    return accuracy_from_columns(est.by_name(), est.d_true, tolerance, scenario_id)


@dataclass(frozen=True)
class ReachJudgment:
    """Within-reach verdicts per estimator; D <= threshold counts as reachable."""

    reach_threshold: float
    verdicts: Dict[str, np.ndarray]   # bool arrays, meaningful where valid
    valid: Dict[str, np.ndarray]
    truth_verdict: np.ndarray

    def to_json_dict(self) -> dict:
        """Share of samples truly within reach, and each estimator's
        agreement with that over its valid samples (None if it has none)."""
        agreement = {}
        for name, verdict in self.verdicts.items():
            mask = self.valid[name]
            agreement[name] = (
                None if not mask.any() else
                float(np.mean(verdict[mask] == self.truth_verdict[mask])))
        return {"threshold_m": self.reach_threshold,
                "truth_within_reach_fraction": float(np.mean(self.truth_verdict)),
                "agreement_with_truth": agreement}


def reach_judgment(est: DistanceEstimateSeries, threshold: float) -> ReachJudgment:
    if not (threshold > 0):
        raise ConfigError(f"reach threshold must be > 0, got {threshold}")
    verdicts = {}
    valid = {}
    for name, (values, mask) in est.by_name().items():
        with np.errstate(invalid="ignore"):
            verdicts[name] = np.where(mask, values <= threshold, False)
        valid[name] = mask
    return ReachJudgment(reach_threshold=threshold, verdicts=verdicts,
                         valid=valid, truth_verdict=est.d_true <= threshold)


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


def accuracy_from_timeline(table: Dict[str, np.ndarray], tolerance: float,
                           scenario_id: str = "") -> AccuracyReport:
    """Recompute the accuracy report from an exported timeline table."""
    missing = [c for c in TIMELINE_COLUMNS if c not in table]
    if missing:
        raise GridAlignmentError(f"timeline table is missing columns {missing}")
    columns = {name: (table[name], table[f"valid{name[1:]}"].astype(bool))
               for name in ("d_1d", "d_3d", "d_tan")}
    return accuracy_from_columns(columns, table["d_true"], tolerance, scenario_id)


@dataclass(frozen=True)
class ExplorationSummary:
    """Movement descriptors that covary with how much information motion makes."""

    amplitude: np.ndarray   # (3,) peak-to-peak excursion per axis, m
    mean_speed: float
    max_speed: float
    mean_accel: float
    max_accel: float

    def to_json_dict(self) -> dict:
        return {
            "amplitude_m": list(self.amplitude),
            "mean_speed_mps": self.mean_speed,
            "max_speed_mps": self.max_speed,
            "mean_accel_mps2": self.mean_accel,
            "max_accel_mps2": self.max_accel,
        }


def exploration_summary(track: KinematicTrack) -> ExplorationSummary:
    speed = np.linalg.norm(track.velocity, axis=1)
    accel = np.linalg.norm(track.acceleration, axis=1)
    return ExplorationSummary(
        amplitude=track.position.max(axis=0) - track.position.min(axis=0),
        mean_speed=float(speed.mean()),
        max_speed=float(speed.max()),
        mean_accel=float(accel.mean()),
        max_accel=float(accel.max()),
    )
