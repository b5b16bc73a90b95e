"""Built-in verification suite: canonical scenarios plus pass/fail checks.

``run_demo`` exercises the whole pipeline on a fixed scenario family and
verifies the properties the library exists to demonstrate: exactness of
the 3D cross-sense distance, failure of the 1D model on 3D sway, regime
collapse between the models, scale-blindness of optics, the slope
invariant, replay detection, differencing convergence, and bit-level
determinism. ``ALL_CHECKS`` is the one definition of these checks; the
acceptance tests assert on their results. Each shared scenario goes
through the pipeline once (``demo_runs``), and the checks and the
artifact writers all read that run. The CLI ``demo`` subcommand prints
the resulting table and writes every artifact under one output
directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import fileio
from .analysis import (DEFAULT_TOLERANCE, SLOPE_COLUMNS, TIMELINE_COLUMNS,
                       AccuracyReport, accuracy, exploration_summary,
                       reach_judgment, slope_table, timeline_table)
from .detector import DetectionReport, detect, report_to_json_dict
from .generators import ScenarioConfig, generate, make_playback
from .invariants import (DistanceEstimateSeries, SlopeEstimate,
                         project_and_estimate, slope_invariant)
from .kinematics import (KinematicTrack, TimeGrid, as_differentiated,
                         constant_acceleration_track, differentiate)
from .observables import (InertialStream, OpticalStream, SupportStream,
                          constant_support, project_inertial, replay_optics,
                          tilted_support)

ANALYTIC_REL_TOL = 1e-6
SUITE_SIZE = 10
SLOPE_GRID = TimeGrid(sample_rate=100.0, n_samples=101)
SLOPE_ACCEL = np.array([2.0, 0.0, 0.0])  # the accelerating case; also slope.csv


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str              # deterministic; persisted in summary.json
    timing_s: Optional[float] = None  # wall time, printed but never persisted


def demo_scenarios() -> Dict[str, ScenarioConfig]:
    """The four canonical motion families at desk scale."""
    return {
        "rectilinear": ScenarioConfig(
            kind="rectilinear", duration=2.0, sample_rate=100.0,
            start=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0), speed=1.0,
            object_position=(3.0, 4.0, 0.0)),
        "planar_sway": ScenarioConfig(
            kind="planar_sway", duration=4.0, sample_rate=100.0,
            amplitude=(0.05, 0.03, 0.0), frequency=(0.5, 0.7, 0.0),
            phase=(0.0, 0.9, 0.0), object_position=(2.0, 0.3, 0.0)),
        "sway3d": ScenarioConfig(
            kind="sway3d", duration=4.0, sample_rate=100.0,
            amplitude=(0.05, 0.03, 0.04), frequency=(0.5, 0.7, 0.3),
            phase=(0.0, 1.0, 2.0), object_position=(2.0, 0.0, 0.0)),
        "tangential_orbit": ScenarioConfig(
            kind="tangential_orbit", duration=2.0, sample_rate=100.0,
            orbit_radius=2.0, speed=1.0, object_position=(0.0, 0.0, 0.0)),
    }


def sway3d_suite(count: int = SUITE_SIZE, base_seed: int = 1000) -> List[ScenarioConfig]:
    """Seeded family of 3D sway scenarios with randomized parameters."""
    configs = []
    for i in range(count):
        rng = np.random.default_rng(base_seed + i)
        amplitude = rng.uniform(0.02, 0.08, 3)
        frequency = rng.uniform(0.3, 1.2, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        distance = rng.uniform(1.0, 2.5)
        azimuth = rng.uniform(-0.6, 0.6)
        obj = np.array([distance * np.cos(azimuth), distance * np.sin(azimuth),
                        rng.uniform(-0.2, 0.2)])
        configs.append(ScenarioConfig(
            kind="sway3d", duration=4.0, sample_rate=100.0,
            amplitude=amplitude, frequency=frequency, phase=phase,
            object_position=obj, rng_seed=base_seed + i))
    return configs


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario taken once through generation, estimation and detection."""

    name: str
    cfg: ScenarioConfig
    track: KinematicTrack
    optics: OpticalStream
    inertial: InertialStream
    est: DistanceEstimateSeries
    report: AccuracyReport
    live: DetectionReport      # the matched optical and inertial streams
    playback: DetectionReport  # the same optics replayed to a still body


def run_scenario(name: str, cfg: ScenarioConfig) -> ScenarioRun:
    track = generate(cfg)
    optics, inertial, est = project_and_estimate(track, cfg.scene_object)
    pair = make_playback(track, track.position[0])
    optics_pb, inertial_pb = replay_optics(pair, cfg.scene_object)
    return ScenarioRun(name, cfg, track, optics, inertial, est,
                       accuracy(est, DEFAULT_TOLERANCE, scenario_id=name),
                       detect(optics, inertial), detect(optics_pb, inertial_pb))


@dataclass(frozen=True)
class DemoRuns:
    """The canonical scenarios and the sway suite, each run once."""

    canonical: Dict[str, ScenarioRun]
    suite: List[ScenarioRun]
    started: float  # perf_counter() before the first run


def demo_runs() -> DemoRuns:
    started = time.perf_counter()
    canonical = {name: run_scenario(name, cfg)
                 for name, cfg in demo_scenarios().items()}
    suite = [run_scenario(f"sway3d_{i:02d}", cfg)
             for i, cfg in enumerate(sway3d_suite())]
    return DemoRuns(canonical, suite, started)


def _reach_payload(est: DistanceEstimateSeries) -> dict:
    reach = reach_judgment(est, threshold=0.6)
    agreement = {}
    for est_name, verdict in reach.verdicts.items():
        mask = reach.valid[est_name]
        agreement[est_name] = (
            None if not mask.any() else
            float(np.mean(verdict[mask] == reach.truth_verdict[mask])))
    return {"threshold_m": reach.reach_threshold,
            "truth_within_reach_fraction": float(np.mean(reach.truth_verdict)),
            "agreement_with_truth": agreement}


def _write_scenario_artifacts(out_dir: Path, run: ScenarioRun) -> None:
    scen_dir = out_dir / run.name
    fileio.write_track_csv(scen_dir / "track.csv", run.track)
    fileio.write_csv(scen_dir / "timeline.csv", TIMELINE_COLUMNS,
                     timeline_table(run.est, run.optics, run.inertial, run.track))
    payload = run.report.to_json_dict()
    payload["exploration"] = exploration_summary(run.track).to_json_dict()
    payload["reach"] = _reach_payload(run.est)
    fileio.write_json(scen_dir / "accuracy.json", payload)
    fileio.write_json(scen_dir / "detect_live.json", report_to_json_dict(run.live))
    fileio.write_json(scen_dir / "detect_playback.json",
                      report_to_json_dict(run.playback))


def _rel_split(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(a[mask] - b[mask]) / b[mask]))


def check_exactness_3d(runs: DemoRuns) -> CheckResult:
    """Runtime counts from the start of ``demo_runs``."""
    worst_analytic = 0.0
    worst_fd_fraction = 1.0
    all_valid = True
    for run in runs.canonical.values():
        est = run.est
        valid = est.valid_3d
        all_valid &= bool(valid.any())
        rel = np.abs(est.d_3d[valid] - est.d_true[valid]) / est.d_true[valid]
        worst_analytic = max(worst_analytic, float(np.max(rel, initial=0.0)))
        _, _, fd_est = project_and_estimate(as_differentiated(run.track),
                                            run.cfg.scene_object)
        fd_acc = accuracy(fd_est, DEFAULT_TOLERANCE).estimators["d_3d"]
        worst_fd_fraction = min(worst_fd_fraction,
                                fd_acc.accurate_fraction if fd_acc else 0.0)
    elapsed = time.perf_counter() - runs.started
    passed = (all_valid and worst_analytic < ANALYTIC_REL_TOL
              and worst_fd_fraction == 1.0 and elapsed < 5.0)
    return CheckResult(
        "3d-distance-exactness", passed,
        f"analytic max rel err {worst_analytic:.2e}, finite-difference "
        f"accurate fraction {worst_fd_fraction:.3f}", timing_s=elapsed)


def check_1d_contrast(runs: DemoRuns) -> CheckResult:
    worst_1d = 0.0
    worst_3d = 1.0
    for run in runs.suite:
        worst_1d = max(worst_1d, run.report.estimators["d_1d"].accurate_fraction)
        worst_3d = min(worst_3d, run.report.estimators["d_3d"].accurate_fraction)
    passed = len(runs.suite) >= 10 and worst_1d < 0.20 and worst_3d == 1.0
    return CheckResult(
        "1d-model-contrast", passed,
        f"1d accurate fraction <= {worst_1d:.3f} while 3d stays {worst_3d:.3f}")


def check_regime_collapse(runs: DemoRuns) -> CheckResult:
    cfg = ScenarioConfig(kind="rectilinear", duration=2.0, sample_rate=100.0,
                         object_position=(6.0, 8.0, 0.0))
    _, _, est = project_and_estimate(generate(cfg), cfg.scene_object)
    both = est.valid_1d & est.valid_2d & est.valid_3d
    est_p = runs.canonical["planar_sway"].est
    est_o = runs.canonical["tangential_orbit"].est
    worst = max(_rel_split(est.d_1d, est.d_3d, both),
                _rel_split(est.d_2d, est.d_3d, both),
                _rel_split(est_p.d_2d, est_p.d_3d, est_p.valid_2d & est_p.valid_3d),
                _rel_split(est_o.d_tan, est_o.d_3d, est_o.valid_tan & est_o.valid_3d))
    return CheckResult("regime-collapse", worst < ANALYTIC_REL_TOL,
                       f"max relative split between collapsing models {worst:.2e}")


def check_scale_ambiguity(runs: DemoRuns) -> CheckResult:
    base = runs.canonical["sway3d"]
    worst_optics = 0.0
    worst_scaling = 0.0
    for k in (0.5, 2.0, 10.0):
        scaled = base.cfg.scaled(k)
        optics_k, _, est_k = project_and_estimate(generate(scaled),
                                                  scaled.scene_object)
        for field in ("bearing", "alpha", "alpha_dot", "theta_dot", "q_norm"):
            a, b = getattr(optics_k, field), getattr(base.optics, field)
            if np.all(np.isnan(a)) and np.all(np.isnan(b)):
                continue  # theta_dot on non-planar motion: invalid either way
            worst_optics = max(worst_optics, float(np.nanmax(np.abs(a - b))))
        for a, b in ((est_k.d_true, base.est.d_true), (est_k.d_3d, base.est.d_3d)):
            with np.errstate(invalid="ignore"):
                rel = np.abs(a - k * b) / np.abs(k * b)
            worst_scaling = max(worst_scaling, float(np.nanmax(rel)))
    passed = worst_optics <= 1e-12 and worst_scaling <= 1e-12
    return CheckResult(
        "optics-scale-blindness", passed,
        f"optical fields move {worst_optics:.2e} under rescaling while "
        f"distances rescale to {worst_scaling:.2e} relative")


def _slope(accel: np.ndarray, support: SupportStream) -> SlopeEstimate:
    track = constant_acceleration_track(SLOPE_GRID, accel)
    return slope_invariant(project_inertial(track), support)


def check_slope(runs: DemoRuns) -> CheckResult:
    level = constant_support(SLOPE_GRID)
    err_level = float(np.max(np.abs(_slope(np.zeros(3), level).slope_angle)))

    tilt = 0.17453  # 10 degrees to the printed precision
    ramp = _slope(np.zeros(3), tilted_support(SLOPE_GRID, tilt)).slope_angle
    err_tilt = float(np.max(np.abs(ramp - tilt)))
    err_ten_deg = abs(float(ramp[0]) - np.deg2rad(10.0))

    tilted = _slope(SLOPE_ACCEL, level).slope_angle
    err_accel = float(np.max(np.abs(tilted - np.arctan2(2.0, 9.81))))
    err_display = abs(float(tilted[0]) - 0.2013)

    passed = (err_level == 0.0 and err_tilt <= 1e-9 and err_ten_deg < 1e-5
              and err_accel <= 1e-6 and err_display < 1e-3)
    return CheckResult(
        "slope-invariant", passed,
        f"level {err_level:.1e}, tilted {err_tilt:.1e} (10 degrees within "
        f"{err_ten_deg:.1e}), accelerating vs arctangent {err_accel:.1e} "
        f"(0.2013 within {err_display:.1e})")


def check_detection(runs: DemoRuns) -> CheckResult:
    every = list(runs.canonical.values()) + runs.suite
    live = sum(run.live.verdict == "live" for run in every)
    simulated = sum(run.playback.verdict == "simulated" for run in every)
    mismatch = detect(runs.canonical["sway3d"].optics,
                      runs.canonical["planar_sway"].inertial).verdict
    passed = live == simulated == len(every) and mismatch == "simulated"
    return CheckResult(
        "replay-detection", passed,
        f"{len(every)} scenarios: live {live}/{len(every)} matched, "
        f"simulated {simulated}/{len(every)} played back; "
        f"sway3d optics on planar_sway inertial {mismatch}")


def check_convergence(runs: DemoRuns) -> CheckResult:
    errors = {}
    for rate in (50.0, 100.0, 200.0):
        grid = TimeGrid(sample_rate=rate, n_samples=int(round(2.0 * rate)) + 1)
        t = grid.times()
        series = np.column_stack([np.sin(t), np.zeros_like(t), np.zeros_like(t)])
        deriv = differentiate(series, grid)
        errors[rate] = float(np.max(np.abs(deriv[:, 0] - np.cos(t))))
    ratio_a = errors[50.0] / errors[100.0]
    ratio_b = errors[100.0] / errors[200.0]
    passed = ratio_a >= 3.5 and ratio_b >= 3.5
    return CheckResult(
        "differencing-convergence", passed,
        f"halving the step shrinks error x{ratio_a:.2f} then x{ratio_b:.2f}")


def _serialized(run: ScenarioRun) -> str:
    table = timeline_table(run.est, run.optics, run.inertial, run.track)
    return (fileio.csv_text(TIMELINE_COLUMNS, table)
            + fileio.json_text(run.report.to_json_dict()))


def check_determinism(runs: DemoRuns) -> CheckResult:
    first = runs.canonical["sway3d"]
    passed = _serialized(first) == _serialized(run_scenario(first.name, first.cfg))
    return CheckResult("determinism", passed,
                       "repeated runs serialize byte-identically" if passed
                       else "serialized outputs differ between identical runs")


ALL_CHECKS = (
    check_exactness_3d,
    check_1d_contrast,
    check_regime_collapse,
    check_scale_ambiguity,
    check_slope,
    check_detection,
    check_convergence,
    check_determinism,
)


def run_demo(out_dir: Optional[Path] = None) -> List[CheckResult]:
    """Run every check; when ``out_dir`` is given, write all artifacts."""
    runs = demo_runs()
    results = [check(runs) for check in ALL_CHECKS]
    if out_dir is not None:
        out_dir = Path(out_dir)
        for run in runs.canonical.values():
            _write_scenario_artifacts(out_dir, run)
        fileio.write_json(out_dir / "sway_suite_accuracy.json",
                          {"reports": [run.report.to_json_dict() for run in runs.suite]})
        fileio.write_csv(out_dir / "slope.csv", SLOPE_COLUMNS,
                         slope_table(_slope(SLOPE_ACCEL, constant_support(SLOPE_GRID))))
        fileio.write_json(out_dir / "summary.json", {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results]})
    return results
