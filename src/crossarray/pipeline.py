"""The pipeline, for one track or one slope run, as ``cli`` and ``demo`` run it.

``ScenarioRun`` takes a track and a scene object through optics,
inertia, estimation, accuracy and detection, and renders the analysis
artifacts; ``write_detection`` writes a detection report. The CLI's
``analyze`` and ``detect`` and every scenario of the demo go through
them, so the bytes of one track's artifacts have one source.
``slope_estimate`` is the slope path: the CLI's ``slope``, the demo's
``slope-invariant`` check and its ``slope.csv`` all call it. They live
apart from ``demo`` so that a subcommand other than ``demo`` does not
load the demo's scenarios, checks and tables. The stages are called
through their defining modules, so a wrapper set on a module attribute,
as the benchmark's tracer sets one, sees these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import analysis, fileio, generators, invariants, kinematics, observables
from . import detector as detection
from .analysis import DEFAULT_TOLERANCE, REACH_THRESHOLD, AccuracyReport
from .detector import DetectionReport, DetectorConfig
from .invariants import DistanceEstimateSeries, SlopeEstimate
from .kinematics import KinematicTrack, ScenePoint
from .observables import InertialStream, OpticalStream


@dataclass(frozen=True)
class ScenarioRun:
    """One track and one scene object, taken through the pipeline.

    Each stage runs once, when it is first read: a run that only writes
    the analysis never detects, and one that only detects never
    estimates. Every timeline, accuracy report and verdict of one track
    that ``cli`` or ``demo`` writes comes from this class.
    """

    name: str  # the scenario id in accuracy.json
    track: KinematicTrack
    scene_object: ScenePoint
    tolerance: float = DEFAULT_TOLERANCE
    detector: DetectorConfig = DetectorConfig()

    @cached_property
    def optics(self) -> OpticalStream:
        return observables.project_optics(self.track, self.scene_object)

    @cached_property
    def inertial(self) -> InertialStream:
        return observables.project_inertial(self.track)

    @cached_property
    def est(self) -> DistanceEstimateSeries:
        return invariants.estimate_all(self.optics, self.inertial, self.track,
                                       self.scene_object)

    @cached_property
    def report(self) -> AccuracyReport:
        return analysis.accuracy(self.est, self.tolerance, scenario_id=self.name)

    @cached_property
    def live(self) -> DetectionReport:
        """The matched optical and inertial streams."""
        return detection.detect(self.optics, self.inertial, self.detector)

    @cached_property
    def playback(self) -> DetectionReport:
        """The same optics replayed to a body holding still at the first sample."""
        return self.against(
            generators.make_playback(self.track, self.track.position[0]).stationary)

    def against(self, body: KinematicTrack) -> DetectionReport:
        """These optics checked against the inertial stream of ``body``."""
        return detection.detect(self.optics, observables.project_inertial(body),
                                self.detector)

    def analysis_tables(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """The ``timeline.csv`` columns and the ``accuracy.json`` payload."""
        payload = self.report.to_json_dict()
        payload["exploration"] = analysis.exploration_summary(self.track)
        payload["reach"] = analysis.reach_judgment(self.est, REACH_THRESHOLD)
        table = analysis.timeline_table(self.est, self.optics, self.inertial, self.track)
        return table, payload

    def analysis_texts(self) -> Dict[str, str]:
        """``timeline.csv`` and ``accuracy.json``, rendered, by file name."""
        table, payload = self.analysis_tables()
        return {"timeline.csv": fileio.csv_text(table),
                "accuracy.json": fileio.json_text(payload)}

    def write_analysis(self, out_dir: Path) -> List[Path]:
        """Write ``timeline.csv`` and ``accuracy.json`` into ``out_dir``;
        everything is computed before the directory is made."""
        table, payload = self.analysis_tables()
        paths = [out_dir / "timeline.csv", out_dir / "accuracy.json"]
        fileio.write_csv(paths[0], table)
        fileio.write_json(paths[1], payload)
        return paths


def write_detection(path: Path, report: DetectionReport) -> None:
    fileio.write_json(path, detection.report_to_json_dict(report))


def slope_estimate(run: fileio.RunConfig) -> SlopeEstimate:
    """The slope a run describes: specific force on the scenario's track,
    or on a constant-acceleration track on ``run.grid`` when there is no
    scenario, against a support tilted by ``support_tilt_rad`` or held
    at ``support_normal``."""
    if run.scenario is not None:
        track = generators.generate(run.scenario)
    else:
        accel = run.accel if run.accel is not None else np.zeros(3)
        track = kinematics.constant_acceleration_track(run.grid, accel)
    inertial = observables.project_inertial(track, gravity=run.gravity)
    if run.support_tilt_rad != 0.0:
        support = observables.tilted_support(track.grid, run.support_tilt_rad)
    else:
        support = observables.constant_support(track.grid, run.support_normal)
    return invariants.slope_invariant(inertial, support)
