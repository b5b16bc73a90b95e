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
directory; the CLI ``analyze`` and ``detect`` subcommands write theirs
through the same ``ScenarioRun``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fileio
from .analysis import (DEFAULT_TOLERANCE, REACH_THRESHOLD, AccuracyReport,
                       accuracy, exploration_summary, reach_judgment,
                       slope_table, timeline_table)
from .detector import (DetectionReport, DetectorConfig, detect,
                       report_to_json_dict)
from .generators import ScenarioConfig, generate, make_playback
from .invariants import (DistanceEstimateSeries, SlopeEstimate, estimate_all,
                         optics_only_ratio, project_and_estimate, slope_invariant)
from .kinematics import (KinematicTrack, ScenePoint, TimeGrid, as_differentiated,
                         constant_acceleration_track, differentiate)
from .observables import (InertialStream, OpticalStream, SupportStream,
                          constant_support, project_inertial, project_optics,
                          tilted_support)

ANALYTIC_REL_TOL = 1e-6
SUITE_SEED = 1000  # scenario i of the sway suite is seeded SUITE_SEED + i
# The sway suite's parameters, one row per scenario i: amplitude,
# frequency and phase (each 3 draws), distance, azimuth and height. Each
# row holds, in repr, the draws of np.random.default_rng(SUITE_SEED + i)
# in that order: uniform(0.02, 0.08, 3), uniform(0.3, 1.2, 3),
# uniform(0, 2 pi, 3), uniform(1.0, 2.5), uniform(-0.6, 0.6) and
# uniform(-0.2, 0.2). A table, so the demo never loads numpy.random
# (about 6 MB); tests/test_demo.py pins it to the generator.
SUITE_DRAWS = (
    ((0.051283144278503764, 0.056230510820379775, 0.04825650783933524),
     (0.4829231482902109, 0.7758831230580473, 0.47193265207270985),
     (1.7690031686875634, 4.7355208550225285, 3.466256001943222),
     2.295583113562583, 0.3664466650871061, -0.10065093471754448),
    ((0.05675569571419706, 0.02094202806921989, 0.03126137461291578),
     (1.0721010580870123, 0.3685787708410328, 0.48098122000088167),
     (3.9590413413000265, 0.6192841491832584, 0.9563284781071335),
     1.2703675111190635, -0.44168593437840986, 0.19364679183958228),
    ((0.04284926956898695, 0.041431360260256817, 0.06485673902409146),
     (0.6505427271944204, 0.603418068119583, 0.7994050765766616),
     (1.1763279105725404, 0.7517980699335987, 5.280073670723418),
     1.604050086197955, 0.5146217435979145, -0.06083471931731407),
    ((0.03126544209611801, 0.035402348613129325, 0.049680759631331076),
     (0.8947124017357666, 0.9769015755084691, 0.950788081325709),
     (2.139030009941402, 3.754458246095058, 6.098315852820642),
     2.0600562107000635, -0.3395583174411931, -0.14371987624196025),
    ((0.020052827164442903, 0.027809078727657886, 0.028308641917915482),
     (0.6425891732525136, 0.8586064243721887, 1.0533834911243865),
     (0.7884916272258939, 3.521578761866199, 1.7231608997808847),
     2.237480492245595, 0.17010028506193475, -0.11411654150804457),
    ((0.024933150384073625, 0.07583372254331622, 0.03723704170206622),
     (0.8747022437584486, 1.0513134520896776, 1.179049803107736),
     (1.0193507090539082, 3.1215157074440274, 4.503957722429463),
     1.5100055348498813, 0.5335104336004285, -0.13176499230840533),
    ((0.04021528601436947, 0.056051416627979286, 0.03786987796455053),
     (0.5138152002260158, 1.0197928705491655, 0.6015406396757839),
     (2.54954939746061, 2.239551441170375, 4.24023238368302),
     1.733418443816534, 0.4354937171926464, 0.10874620229840176),
    ((0.024273496247653147, 0.06895882071067659, 0.05857571077511943),
     (0.4769357203448836, 0.829936914165003, 1.1058034364564937),
     (2.8348529483519616, 1.2416741180692827, 2.2493196498167656),
     1.0644384968990939, 0.3797322468156461, -0.006049596621865605),
    ((0.030035164943277126, 0.06878304486372674, 0.03304596975285451),
     (1.1853925090939745, 1.1848694467288865, 1.059848119501426),
     (2.5061967679783486, 0.14285839861348468, 1.6927648687261718),
     1.5590037012331428, -0.3732355121996435, -0.12012482575993495),
    ((0.023390027723206357, 0.03961493526037171, 0.022991087724391894),
     (0.5531937765836932, 1.043261285229677, 0.8480797347262139),
     (3.533184582526505, 3.1288140176795003, 0.17692639553214443),
     1.2283930148483757, 0.5183543588212879, -0.17716598083340493),
)
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


def sway3d_suite() -> List[ScenarioConfig]:
    """The seeded family of 3D sway scenarios, one per ``SUITE_DRAWS`` row."""
    configs = []
    for i, (amplitude, frequency, phase, distance, azimuth, height) in enumerate(
            SUITE_DRAWS):
        obj = np.array([distance * np.cos(azimuth), distance * np.sin(azimuth), height])
        configs.append(ScenarioConfig(
            kind="sway3d", duration=4.0, sample_rate=100.0,
            amplitude=amplitude, frequency=frequency, phase=phase,
            object_position=obj, rng_seed=SUITE_SEED + i))
    return configs


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
        return project_optics(self.track, self.scene_object)

    @cached_property
    def inertial(self) -> InertialStream:
        return project_inertial(self.track)

    @cached_property
    def est(self) -> DistanceEstimateSeries:
        return estimate_all(self.optics, self.inertial, self.track, self.scene_object)

    @cached_property
    def report(self) -> AccuracyReport:
        return accuracy(self.est, self.tolerance, scenario_id=self.name)

    @cached_property
    def live(self) -> DetectionReport:
        """The matched optical and inertial streams."""
        return detect(self.optics, self.inertial, self.detector)

    @cached_property
    def playback(self) -> DetectionReport:
        """The same optics replayed to a body holding still at the first sample."""
        still = make_playback(self.track, self.track.position[0]).stationary
        return detect(self.optics, project_inertial(still), self.detector)

    def analysis_tables(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """The ``timeline.csv`` columns and the ``accuracy.json`` payload."""
        payload = self.report.to_json_dict()
        payload["exploration"] = exploration_summary(self.track)
        payload["reach"] = reach_judgment(self.est, REACH_THRESHOLD)
        return timeline_table(self.est, self.optics, self.inertial, self.track), payload

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
    fileio.write_json(path, report_to_json_dict(report))


def run_scenario(name: str, cfg: ScenarioConfig) -> ScenarioRun:
    return ScenarioRun(name, generate(cfg), cfg.scene_object)


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
    for run in [*canonical.values(), *suite]:
        run.report, run.live, run.playback  # every stage inside the 5 s bound
    return DemoRuns(canonical, suite, started)


def _write_scenario_artifacts(out_dir: Path, run: ScenarioRun) -> None:
    scen_dir = out_dir / run.name
    fileio.write_track_csv(scen_dir / "track.csv", run.track)
    run.write_analysis(scen_dir)
    write_detection(scen_dir / "detect_live.json", run.live)
    write_detection(scen_dir / "detect_playback.json", run.playback)


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
                                            run.scene_object)
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
    """Optical fields and the optics-only ratio stay put under rescaling,
    the ratio is D/V (a time), and the cross-sense distances rescale."""
    base = runs.canonical["sway3d"]
    ratio = optics_only_ratio(base.optics)
    valid = base.est.valid_3d
    d_over_v = base.est.d_true[valid] / base.inertial.speed[valid]
    worst_optics = 0.0
    worst_scaling = float(np.max(np.abs(ratio[valid] - d_over_v) / d_over_v))
    same_nan = True
    for k in (0.5, 2.0, 10.0):
        scaled = demo_scenarios()["sway3d"].scaled(k)
        optics_k, _, est_k = project_and_estimate(generate(scaled),
                                                  scaled.scene_object)
        for field in ("bearing", "alpha", "alpha_dot", "theta_dot", "q_norm"):
            a, b = getattr(optics_k, field), getattr(base.optics, field)
            if np.all(np.isnan(a)) and np.all(np.isnan(b)):
                continue  # theta_dot on non-planar motion: invalid either way
            worst_optics = max(worst_optics, float(np.nanmax(np.abs(a - b))))
        ratio_k = optics_only_ratio(optics_k)
        same_nan &= np.array_equal(np.isnan(ratio_k), np.isnan(ratio))
        for a, want in ((est_k.d_true, k * base.est.d_true),
                        (est_k.d_3d, k * base.est.d_3d), (ratio_k, ratio)):
            with np.errstate(invalid="ignore"):
                rel = np.abs(a - want) / np.abs(want)
            worst_scaling = max(worst_scaling, float(np.nanmax(rel)))
    passed = same_nan and worst_optics <= 1e-12 and worst_scaling <= 1e-12
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
        series = np.array([np.sin(t), np.zeros_like(t), np.zeros_like(t)]).T
        deriv = differentiate(series, grid)
        errors[rate] = float(np.max(np.abs(deriv[:, 0] - np.cos(t))))
    ratio_a = errors[50.0] / errors[100.0]
    ratio_b = errors[100.0] / errors[200.0]
    passed = ratio_a >= 3.5 and ratio_b >= 3.5
    return CheckResult(
        "differencing-convergence", passed,
        f"halving the step shrinks error x{ratio_a:.2f} then x{ratio_b:.2f}")


def check_determinism(runs: DemoRuns) -> CheckResult:
    first = runs.canonical["sway3d"]
    again = run_scenario(first.name, demo_scenarios()[first.name])
    passed = first.analysis_texts() == again.analysis_texts()
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
        fileio.write_csv(out_dir / "slope.csv",
                         slope_table(_slope(SLOPE_ACCEL, constant_support(SLOPE_GRID))))
        fileio.write_json(out_dir / "summary.json", {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results]})
    return results
