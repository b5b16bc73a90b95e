"""The benchmark's workloads: inputs from a seed, timed passes, and checks.

A workload builds its inputs in ``setup`` (timed, repeated by the runner)
and runs one *pass* at a time in ``run_pass``: the pass's operations are
timed, then their outputs are checked against the oracles, untimed. Passes
come in whole rounds of ``round_passes``. The load is a closed loop of one
client: each operation starts after the last one ended, and at most one
crossarray process runs at a time.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import oracles
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
RATE = 100.0             # Hz; every workload's sample rate
TOLERANCE = 0.05         # the program's default accuracy tolerance
HALF_WIDTH = 25          # samples each side of the detector's 0.5 s window at RATE
MIN_WINDOW_VALID = 5
CHILD_TIMEOUT_S = 150.0


@dataclass
class PassResult:
    elapsed: float          # seconds the pass's operations took
    attempted: int
    failed: int
    samples: int            # track samples the operations consumed
    rss_kb: int             # largest peak RSS of the processes that worked
    problems: list = field(default_factory=list)


@dataclass
class Child:
    code: int
    stderr: str
    elapsed: float
    rss_kb: int


def times(n):
    return np.arange(n) / RATE


def sway_params(rng, planar=False):
    """Random desk-scale sway and an object 2-3 m ahead of it.

    Two draws are left out, each for a FOUND line in CHANGES.md. Nearer
    objects: there the true distance itself varies by more than the
    detector's 5% spread within its window, and live streams read as
    simulated. Objects within 0.1 m of the sway plane: planar motion can
    then head almost straight at them, where alpha from arccos loses the
    precision d_3d needs.
    """
    amplitude = rng.uniform(0.02, 0.08, 3)
    if planar:
        amplitude[2] = 0.0
    distance, azimuth = rng.uniform(2.0, 3.0), rng.uniform(-0.6, 0.6)
    height = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.2)
    return {"amplitude": amplitude, "frequency": rng.uniform(0.3, 1.2, 3),
            "phase": rng.uniform(0.0, 2.0 * np.pi, 3),
            "object": np.array([distance * np.cos(azimuth), distance * np.sin(azimuth),
                                height])}


def vec(values):
    return ",".join(repr(float(v)) for v in values)


class Workload:
    name = ""
    nominal_pass_s = 1.0   # a traced run does round(seconds / nominal_pass_s / 2) passes
    round_passes = 1       # passes that make up one whole round
    min_rounds = 2

    def __init__(self, root: Path, work: Path, seed: int, salt: int):
        self.root = root
        self.work = work
        self.rng = np.random.default_rng((seed, salt))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def traced_passes(self, seconds):
        """A fixed number of whole rounds, so traced sums and counts repeat."""
        rounds = max(self.min_rounds,
                     round(seconds / 2 / (self.nominal_pass_s * self.round_passes)))
        return rounds * self.round_passes

    def prepare(self):
        """Untimed: draw parameters and compute the oracles."""

    def setup(self):
        """Timed: write the inputs and warm up."""

    def run_pass(self, index, tracer=None) -> PassResult:
        raise NotImplementedError

    # -- child processes -------------------------------------------------

    def child(self, argv) -> Child:
        """Run one process to its end; its own peak RSS comes from wait4."""
        err = self.work / "child.err"
        with err.open("w") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=ferr)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, err.read_text(), elapsed, usage.ru_maxrss)

    def cli(self, args, tracer=None) -> Child:
        """``crossarray ARGS`` as its own process; traced through traced_cli."""
        if tracer is None:
            return self.child([sys.executable, "-m", "crossarray.cli", *map(str, args)])
        dump = self.work / "trace.json"
        result = self.child([sys.executable, str(HERE / "traced_cli.py"), str(dump),
                             *map(str, args)])
        tracer.merge(checks.read_json(dump))
        dump.unlink()
        return result

    def startup(self) -> float:
        """Seconds for a process that only imports crossarray.cli."""
        child = self.child([sys.executable, "-c", "import crossarray.cli"])
        if child.code != 0:
            raise RuntimeError(f"importing crossarray.cli failed:\n{child.stderr}")
        return child.elapsed

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _checked(problems, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CheckFailed as exc:
        problems.append(str(exc))
        return None


def _ran(problems, child, what):
    if child.code != 0:
        problems.append(f"{what}: exit {child.code}: {child.stderr.strip()[-400:]}")
        return False
    return True


# ---------------------------------------------------------------------------

class CliWriteLarge(Workload):
    """generate, analyze and detect --playback on one long sway3d config."""

    name = "cli_write_large"
    n_samples = 50_001
    nominal_pass_s = 3.0

    def prepare(self):
        self.params = sway_params(self.rng)
        self.t = times(self.n_samples)
        p = self.params
        self.motion = oracles.lissajous(self.t, np.zeros(3), p["amplitude"],
                                        p["frequency"], p["phase"])
        q = oracles.rotation_rate(self.motion[0], self.motion[1], p["object"])
        # the replaying body is still, so every resolvable rotation is flow
        self.flow = np.where(q >= oracles.EPS_RATE, q, 0.0)
        self.scale = np.full(self.n_samples, np.nan)  # no valid d_3d when still
        self.verified = set()  # digests of output trees that passed every check

    def setup(self):
        p = self.params
        self.config = self.work / "large.cfg"
        self.config.write_text(
            "kind = sway3d\n"
            f"duration_s = {(self.n_samples - 1) / RATE!r}\n"
            f"sample_rate_hz = {RATE!r}\n"
            f"amplitude_m = {vec(p['amplitude'])}\n"
            f"frequency_hz = {vec(p['frequency'])}\n"
            f"phase_rad = {vec(p['phase'])}\n"
            f"object_m = {vec(p['object'])}\n")
        self.startup()

    def run_pass(self, index, tracer=None):
        out = self.fresh_dir("pass")
        problems = []
        ops = [("generate", "--config", self.config, "--out-dir", out),
               ("analyze", "--config", self.config, "--out-dir", out),
               ("detect", "--config", self.config, "--playback", "--out-dir", out)]
        children = [self.cli(op, tracer) for op in ops]
        failed = sum(not _ran(problems, c, op[0]) for c, op in zip(children, ops))
        self._check_tree(out, problems)
        shutil.rmtree(out)
        return PassResult(sum(c.elapsed for c in children), len(ops), failed,
                          len(ops) * self.n_samples, max(c.rss_kb for c in children),
                          problems)

    def _check_tree(self, out, problems):
        """Every check, unless the tree is byte-identical to one that passed
        them all: rereading 20 MB of CSV every pass would cut the passes a run holds."""
        digest = checks.tree_digest(out)
        if digest not in self.verified:
            self._check(out, problems)
            if not problems:
                self.verified.add(digest)

    def _check(self, out, problems):
        pos, vel, acc = self.motion
        obj = self.params["object"]
        _checked(problems, checks.check_track_csv, out / "track.csv", self.t, pos, vel, acc)
        cols = _checked(problems, checks.check_timeline, out / "timeline.csv",
                        self.t, pos, obj)
        if cols is not None:
            _checked(problems, checks.check_accuracy_json, out / "accuracy.json",
                     cols, TOLERANCE, planar=False)
        _checked(problems, checks.check_detect_json, out / "detect.json", "simulated",
                 residual_scale=self.scale, residual_flow=self.flow)


# ---------------------------------------------------------------------------

class CliIngestDetect(Workload):
    """detect on track CSVs the benchmark wrote, plus analyze of a NaN cell."""

    name = "cli_ingest_detect"
    n_samples = 20_001
    nominal_pass_s = 1.6
    # the NaN track is the same for every seed: its operation fails today
    NAN_PARAMS = {"amplitude": (0.05, 0.03, 0.04), "frequency": (0.5, 0.7, 0.3),
                  "phase": (0.0, 1.0, 2.0), "object": (2.0, 0.0, 0.0)}
    NAN_ROW = 10_000

    def prepare(self):
        self.t = times(self.n_samples)
        a, b = sway_params(self.rng), sway_params(self.rng, planar=True)
        self.object = a["object"]
        self.track_a = oracles.lissajous(self.t, np.zeros(3), a["amplitude"],
                                         a["frequency"], a["phase"])
        self.track_b = oracles.lissajous(self.t, np.zeros(3), b["amplitude"],
                                         b["frequency"], b["phase"])
        n = self.NAN_PARAMS
        self.track_nan = oracles.lissajous(self.t, np.zeros(3), n["amplitude"],
                                           n["frequency"], n["phase"])
        self.track_nan[0][self.NAN_ROW, 0] = np.nan
        self.texts = {key: oracles.track_csv_text(self.t, *track) for key, track in
                      (("a", self.track_a), ("b", self.track_b), ("nan", self.track_nan))}
        self.expected = {}
        for key, inertial in (("aa", self.track_a), ("ab", self.track_b)):
            d3d, speed, q = oracles.sampled_d3d(self.track_a[0], self.track_a[1],
                                                inertial[1], self.object, 1.0 / RATE)
            valid = np.isfinite(d3d)
            scale = oracles.windowed_rel_std(np.where(valid, d3d, 0.0), valid,
                                             HALF_WIDTH, MIN_WINDOW_VALID)
            flow = np.where((speed < oracles.EPS_SPEED) & (q >= oracles.EPS_RATE), q, 0.0)
            self.expected[key] = (scale, flow)

    def setup(self):
        self.paths = {key: self.work / f"{key}.csv" for key in self.texts}
        for key, text in self.texts.items():
            self.paths[key].write_text(text)
        self.startup()

    def run_pass(self, index, tracer=None):
        out = self.fresh_dir("pass")
        problems = []
        a, b, nan = self.paths["a"], self.paths["b"], self.paths["nan"]
        obj = vec(self.object)
        live = self.cli(("detect", "--optics-from", a, "--inertial-from", a,
                         "--object", obj, "--out", out / "aa.json"), tracer)
        mismatched = self.cli(("detect", "--optics-from", a, "--inertial-from", b,
                               "--object", obj, "--out", out / "ab.json"), tracer)
        bad_cell = self.cli(("analyze", "--track", nan, "--object",
                             vec(self.NAN_PARAMS["object"]), "--out-dir", out / "nan"),
                            tracer)
        failed = (not _ran(problems, live, "detect A/A")) + (
            not _ran(problems, mismatched, "detect A/B"))
        for key, verdict in (("aa", "live"), ("ab", "simulated")):
            scale, flow = self.expected[key]
            _checked(problems, checks.check_detect_json, out / f"{key}.json", verdict,
                     residual_scale=scale, residual_flow=flow)
        failed += not self._nan_row_handled(bad_cell, out / "nan" / "timeline.csv",
                                            problems)
        shutil.rmtree(out)
        children = (live, mismatched, bad_cell)
        return PassResult(sum(c.elapsed for c in children), 3, failed,
                          5 * self.n_samples, max(c.rss_kb for c in children), problems)

    def _nan_row_handled(self, child, timeline, problems):
        """A NaN cell must end in a clean error (exit 2) or in an invalid row."""
        if child.code not in (0, 2) or "Traceback" in child.stderr:
            return False
        if child.code == 0:
            cols = _checked(problems, checks.read_csv, timeline, self.n_samples)
            flags = [] if cols is None else [cols[f"valid_{k}"][self.NAN_ROW]
                                             for k in ("1d", "3d", "tan")]
            if not flags or any(flags):
                problems.append(f"{timeline}: NaN row {self.NAN_ROW} not flagged invalid")
        return True


# ---------------------------------------------------------------------------

KINDS = ("rectilinear", "planar_sway", "sway3d", "tangential_orbit")
MODES = ("matched", "scaled", "playback")
NOISE_SIGMA_M = 1e-4
OPTICS_SCALE_ATOL = 1e-9   # rad, rad/s and unit bearing
D3D_SCALE_RTOL = checks.D3D_RTOL  # the d_3d bound; arccos alpha costs ~1e-16/sin(alpha)^2
# alpha_dot is finite-differenced, so d_1d carries an O((V dt / D)^2) error:
# at most 6e-6 for these rectilinear scenes (V <= 1.5 m/s, D >= 6 m, 100 Hz)
COLLAPSE_RTOL = 1e-5


class SweepInprocess(Workload):
    """The numerics in this process, over a seeded family of scenarios."""

    name = "sweep_inprocess"
    n_samples = 40_001
    nominal_pass_s = 0.035
    round_passes = len(KINDS) * 2 * len(MODES)
    min_rounds = 1

    def prepare(self):
        self.family = []
        self._draw_round()

    def _draw_round(self):
        """The next round's scenarios; round r is the same for a seed however
        many rounds a run reaches."""
        for kind in KINDS:
            for noisy in (False, True):
                base = self._config(kind, noisy)
                scale = float(self.rng.uniform(0.2, 10.0))
                for mode in MODES:
                    self.family.append((base, mode, scale))

    def _config(self, kind, noisy):
        from crossarray.generators import ScenarioConfig
        rng = self.rng
        common = dict(kind=kind, duration=(self.n_samples - 1) / RATE, sample_rate=RATE,
                      noise_sigma=NOISE_SIGMA_M if noisy else 0.0,
                      rng_seed=int(rng.integers(2**31)))
        if kind == "rectilinear":
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            side = np.cross(direction, rng.normal(size=3))
            side /= np.linalg.norm(side)
            start = rng.uniform(-1.0, 1.0, 3)
            travel = rng.uniform(0.5, 1.5) * common["duration"]
            obj = start + direction * rng.uniform(0.2, 0.8) * travel \
                + side * rng.uniform(6.0, 10.0)
            return ScenarioConfig(start=start, direction=direction,
                                  speed=travel / common["duration"],
                                  object_position=obj, **common)
        if kind == "tangential_orbit":
            return ScenarioConfig(orbit_radius=rng.uniform(1.0, 3.0),
                                  speed=rng.uniform(0.5, 1.5),
                                  phase=(rng.uniform(0.0, 2.0 * np.pi), 0.0, 0.0),
                                  object_position=rng.uniform(-1.0, 1.0, 3), **common)
        p = sway_params(rng, planar=kind == "planar_sway")
        return ScenarioConfig(amplitude=p["amplitude"], frequency=p["frequency"],
                              phase=p["phase"], object_position=p["object"], **common)

    def setup(self):
        # warm-up: the first round's noise-free scenario of each kind, full size
        for base, mode, _ in self.family[:self.round_passes:2 * len(MODES)]:
            self._pipeline(base, mode)

    def _pipeline(self, cfg, mode):
        from crossarray import (analysis, detector, generators, invariants,
                                observables)
        obj = cfg.scene_object
        track = generators.generate(cfg)
        if mode == "playback":
            pair = generators.make_playback(track, track.position[0])
            optics, inertial = observables.replay_optics(pair, obj)
            est = invariants.estimate_all(optics, inertial, track, obj)
        else:
            optics, inertial, est = invariants.project_and_estimate(track, obj)
        report = analysis.accuracy(est, TOLERANCE)
        detection = detector.detect(optics, inertial)
        slope = invariants.slope_invariant(
            inertial, observables.constant_support(track.grid))
        return track, optics, est, report, detection, slope

    def run_pass(self, index, tracer=None):
        while index >= len(self.family):
            self._draw_round()
        base, mode, k = self.family[index]
        cfg = base.scaled(k) if mode == "scaled" else base
        start = time.perf_counter()
        result = self._pipeline(cfg, mode)
        elapsed = time.perf_counter() - start
        problems = []
        _checked(problems, self._check, cfg, mode, k, *result)
        if mode == "matched":
            self.last_matched = result
        return PassResult(elapsed, 1, 0, self.n_samples,
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, problems)

    def _motion(self, cfg):
        t = times(self.n_samples)
        if cfg.kind == "rectilinear":
            pos, vel, acc = oracles.rectilinear(t, cfg.start, cfg.direction, cfg.speed)
        elif cfg.kind == "tangential_orbit":
            pos, vel, acc = oracles.orbit(t, cfg.object_position, cfg.orbit_radius,
                                          cfg.speed, cfg.phase[0])
        else:
            amp = cfg.amplitude * (1.0, 1.0, 0.0 if cfg.kind == "planar_sway" else 1.0)
            pos, vel, acc = oracles.lissajous(t, cfg.start, amp, cfg.frequency, cfg.phase)
        if cfg.noise_sigma > 0:
            noise = np.random.default_rng(cfg.rng_seed).normal(
                0.0, cfg.noise_sigma, size=pos.shape)
            pos = pos + noise
        return pos, vel, acc

    def _check(self, cfg, mode, k, track, optics, est, report, detection, slope):
        name = f"{cfg.kind}{' noisy' if cfg.noise_sigma else ''} {mode}"
        obj = cfg.object_position
        pos, vel, acc = self._motion(cfg)
        analytic = cfg.noise_sigma == 0
        checks.close(f"{name} position", track.position, pos, rtol=1e-12,
                     atol=checks.POSITION_ATOL)
        truth = oracles.distance(pos, obj)
        checks.close(f"{name} d_true", est.d_true, truth, rtol=checks.TRUTH_RTOL)
        for est_name, (values, valid) in est.by_name().items():
            want = oracles.accuracy(values, valid, truth, TOLERANCE)
            got = report.estimators[est_name]
            checks.require((got is None) == (want is None), f"{name} {est_name} accuracy")
            if want is not None:
                for key, value in want.items():
                    checks.close(f"{name} {est_name}.{key}", [getattr(got, key)], [value],
                                 rtol=checks.ACCURACY_RTOL)
        # the replaying body is still; noisy tracks carry differenced acceleration
        accel = (np.zeros_like(acc) if mode == "playback"
                 else acc if analytic else track.acceleration)
        checks.close(f"{name} slope", slope.slope_angle,
                     oracles.slope(accel, (0.0, 0.0, 1.0)), atol=checks.SLOPE_ATOL)
        if mode == "playback":
            checks.require(detection.verdict == "simulated",
                           f"{name}: verdict {detection.verdict}")
            return
        checks.require(detection.verdict == "live", f"{name}: verdict {detection.verdict}")
        if mode == "scaled":
            _, optics0, est0, *_ = self.last_matched
            for field_name in ("bearing", "alpha", "q_norm"):
                checks.close(f"{name} {field_name} under x{k:.3g}",
                             getattr(optics, field_name), getattr(optics0, field_name),
                             atol=OPTICS_SCALE_ATOL)
            checks.close(f"{name} d_3d under x{k:.3g}", est.d_3d, k * est0.d_3d,
                         rtol=D3D_SCALE_RTOL)
            return
        if not analytic:
            return
        valid = est.valid_3d
        checks.require(valid.mean() > 0.5, f"{name}: valid_3d fraction {valid.mean()}")
        checks.close(f"{name} d_3d", est.d_3d[valid], truth[valid], rtol=checks.D3D_RTOL)
        usable = valid & np.isfinite(est.d_3d)
        checks.close(f"{name} residual_scale", detection.residual_scale,
                     oracles.windowed_rel_std(np.where(usable, est.d_3d, 0.0), usable,
                                              HALF_WIDTH, MIN_WINDOW_VALID),
                     rtol=1e-6, atol=checks.SCALE_ATOL)
        if cfg.kind == "rectilinear":
            both = est.valid_1d & valid
            checks.require(both.mean() > 0.5, f"{name}: valid_1d fraction {both.mean()}")
            checks.close(f"{name} d_1d = d_3d", est.d_1d[both], est.d_3d[both],
                         rtol=COLLAPSE_RTOL)
        if cfg.kind == "tangential_orbit":
            tan = est.valid_tan
            checks.close(f"{name} d_tan = truth", est.d_tan[tan], truth[tan],
                         rtol=checks.D3D_RTOL)


# ---------------------------------------------------------------------------

DEMO_ACCEL = np.array([2.0, 0.0, 0.0])   # fixed inside crossarray.demo
DEMO_SLOPE_SAMPLES = 101


class DemoSmall(Workload):
    """crossarray demo, then slope on a seeded accelerating, tilted config."""

    name = "demo_small"
    nominal_pass_s = 0.5
    slope_samples = 201

    def prepare(self):
        self.accel = float(self.rng.uniform(0.5, 3.0))
        self.tilt = float(self.rng.uniform(0.05, 0.35))
        acc = np.tile([self.accel, 0.0, 0.0], (self.slope_samples, 1))
        self.expected_slope = oracles.slope(acc, oracles.tilted_normal(self.tilt))
        self.expected_demo_slope = oracles.slope(
            np.tile(DEMO_ACCEL, (DEMO_SLOPE_SAMPLES, 1)), (0.0, 0.0, 1.0))
        self.digest = None

    def setup(self):
        self.config = self.work / "slope.cfg"
        self.config.write_text(
            f"duration_s = {(self.slope_samples - 1) / RATE!r}\n"
            f"sample_rate_hz = {RATE!r}\n"
            f"accel_mps2 = {vec((self.accel, 0.0, 0.0))}\n"
            f"support_tilt_rad = {self.tilt!r}\n")
        self.startup()

    def run_pass(self, index, tracer=None):
        out = self.fresh_dir("pass")
        problems = []
        demo = self.cli(("demo", "--out-dir", out / "demo"), tracer)
        slope = self.cli(("slope", "--config", self.config, "--out", out / "slope.csv"),
                         tracer)
        failed = (not _ran(problems, demo, "demo")) + (not _ran(problems, slope, "slope"))
        _checked(problems, checks.check_demo_summary, out / "demo" / "summary.json")
        _checked(problems, checks.check_slope_csv, out / "demo" / "slope.csv",
                 self.expected_demo_slope)
        _checked(problems, checks.check_slope_csv, out / "slope.csv", self.expected_slope)
        digest = checks.tree_digest(out / "demo")
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("demo: output tree differs from the first pass's")
        samples = self.slope_samples + sum(
            sum(1 for _ in path.open()) - 1 for path in (out / "demo").rglob("*.csv")
            if path.name in ("track.csv", "slope.csv"))
        shutil.rmtree(out)
        return PassResult(demo.elapsed + slope.elapsed, 2, failed, samples,
                          max(demo.rss_kb, slope.rss_kb), problems)


WORKLOADS = {cls.name: cls for cls in (CliWriteLarge, CliIngestDetect,
                                       SweepInprocess, DemoSmall)}
