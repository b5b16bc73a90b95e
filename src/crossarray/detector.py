"""Live-versus-replay decision from optical/inertial cross-consistency.

For a body moving in a rigid scene, bearing rotation and body speed are
locked together: q_norm = V |sin alpha| / D. Two residuals test that
lock without knowing D.

- flow-without-motion: any bearing rotation while the body's speed is
  zero is impossible at finite distance, so the residual is simply
  q_norm wherever the body is still (``invariants.motion_masks``).
- scale-inconsistency: for a fixed object the recovered 3D distance
  must stay coherent over short horizons; its sliding-window spread,
  normalized by the window mean, blows up when the optics were not
  produced by this body's motion.

Either residual exceeding its threshold on enough samples yields the
verdict "simulated"; matched streams yield "live"; "indeterminate" is
reserved for streams too short or too empty to decide.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError
from .invariants import estimate_distance_3d, motion_masks
from .observables import InertialStream, OpticalStream, require_same_grid

VERDICT_LIVE = "live"
VERDICT_SIMULATED = "simulated"
VERDICT_INDETERMINATE = "indeterminate"

MIN_SAMPLES = 10      # a shorter stream is indeterminate
MIN_WINDOW_VALID = 5  # valid samples a window needs for a spread


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for both residual rules; defaults are tuned so that
    noise-free matched streams sit exactly at zero residual."""

    flow_q_max: float = 1e-3        # rad/s of rotation tolerated at zero speed
    scale_rel_std_max: float = 0.05  # windowed std/mean of recovered distance
    window_s: float = 0.5
    fire_fraction: float = 0.10      # fraction of samples a rule must claim

    def __post_init__(self):
        for name, ok, bound in (
                ("flow_q_max", self.flow_q_max >= 0, ">= 0"),
                ("scale_rel_std_max", self.scale_rel_std_max >= 0, ">= 0"),
                ("window_s", self.window_s > 0, "> 0"),
                ("fire_fraction", 0 < self.fire_fraction <= 1, "in (0, 1]")):
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)}")


@dataclass(frozen=True)
class DetectionReport:
    verdict: str
    rule_fired: str                  # "", "flow-without-motion", "scale-inconsistency"
    residual_flow: np.ndarray        # rad/s; q_norm where the body is still
    residual_scale: np.ndarray       # dimensionless; NaN where unevaluable
    flow_fire_fraction: float
    scale_fire_fraction: Optional[float]  # None when no window was evaluable
    config: DetectorConfig


def detect(optics: OpticalStream, inertial: InertialStream,
           config: DetectorConfig = DetectorConfig()) -> DetectionReport:
    """Decide whether an optical stream was produced by this body's motion."""
    require_same_grid(optics.grid, inertial.grid)
    n = optics.grid.n_samples

    moving, resolvable = motion_masks(optics, inertial)
    residual_flow = np.where(~moving & resolvable, optics.q_norm, 0.0)

    d_3d = estimate_distance_3d(optics, inertial)
    valid = moving & resolvable & np.isfinite(d_3d)
    # a window wider than the stream covers all of it from every sample
    half_width = min(config.window_s * optics.grid.sample_rate / 2.0, n)
    half_width = max(int(round(half_width)), 1)
    residual_scale = kernels.windowed_rel_std(
        np.where(valid, d_3d, 0.0), valid, half_width, MIN_WINDOW_VALID)

    if n < MIN_SAMPLES:
        return DetectionReport(VERDICT_INDETERMINATE, "", residual_flow,
                               residual_scale, 0.0, None, config)

    flow_fire = float(np.count_nonzero(residual_flow > config.flow_q_max)) / n
    evaluable = np.isfinite(residual_scale)
    if np.any(evaluable):
        scale_fire = (float(np.count_nonzero(
            residual_scale[evaluable] > config.scale_rel_std_max))
            / int(np.count_nonzero(evaluable)))
    else:
        scale_fire = None

    if flow_fire >= config.fire_fraction:
        verdict, rule = VERDICT_SIMULATED, "flow-without-motion"
    elif scale_fire is not None and scale_fire >= config.fire_fraction:
        verdict, rule = VERDICT_SIMULATED, "scale-inconsistency"
    elif scale_fire is None and flow_fire == 0.0 and not np.any(moving & resolvable):
        # nothing moved and nothing flowed: a still scene cannot be classified
        verdict, rule = VERDICT_INDETERMINATE, ""
    else:
        verdict, rule = VERDICT_LIVE, ""
    return DetectionReport(verdict, rule, residual_flow, residual_scale,
                           flow_fire, scale_fire, config)


def report_to_json_dict(report: DetectionReport) -> dict:
    """JSON-safe dict of a detection report (NaN residuals become null)."""
    def series(x):
        return [v if math.isfinite(v) else None for v in x.tolist()]

    return {
        "verdict": report.verdict,
        "rule_fired": report.rule_fired,
        "flow_fire_fraction": report.flow_fire_fraction,
        "scale_fire_fraction": report.scale_fire_fraction,
        "thresholds": asdict(report.config),
        "residual_flow": series(report.residual_flow),
        "residual_scale": series(report.residual_scale),
    }
