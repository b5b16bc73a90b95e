"""Command-line surface tying generation, analysis and detection together.

Subcommands: ``generate``, ``analyze``, ``detect``, ``slope``, ``demo``.
Runs are reproducible: the same config produces byte-identical outputs.
Exit codes: 0 success, 1 usage or config error, 2 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import DEFAULT_TOLERANCE, slope_table
from .demo import ScenarioRun, run_demo, write_detection
from .detector import DetectorConfig, detect
from .errors import ConfigError, CrossArrayError
from .fileio import RunConfig, load_run_config
from .generators import generate
from .invariants import slope_invariant
from .kinematics import ScenePoint, constant_acceleration_track
from .observables import (constant_support, project_inertial, project_optics,
                          tilted_support)

ENV_OUT_DIR = "CROSSARRAY_OUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _out_dir(args, run: RunConfig | None = None) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    if run is not None and run.out_dir:
        return Path(run.out_dir)
    env = os.environ.get(ENV_OUT_DIR, "").strip()
    if env:
        return Path(env)
    return Path("crossarray_out")


def _unread_flag(flag: str, mode: str, reader: str) -> UsageError:
    """A flag that the chosen mode never reads is an error, as an unread
    config key is: silently ignored, it would misstate the run."""
    return UsageError(f"'{flag}' not read by '{mode}': only '{reader}' reads it")


def _require_scenario(run: RunConfig):
    if run.scenario is None:
        raise ConfigError("config is missing required key 'kind'")
    return run.scenario


def cmd_generate(args) -> int:
    run = load_run_config(args.config, args.command)
    track = generate(_require_scenario(run))
    out = Path(args.out) if args.out else _out_dir(args, run) / "track.csv"
    fileio.write_track_csv(out, track)
    print(out)
    return 0


def _load_track_and_object(args, run: RunConfig | None):
    if args.track:
        if args.object is None:
            raise ConfigError("--track also needs --object x,y,z")
        track = fileio.read_track_csv(args.track)
        position = fileio.parse_value("--object", "vec3", args.object)
        return track, ScenePoint(position=position)
    if run is None:
        raise ConfigError("either --config or --track is required")
    scenario = _require_scenario(run)
    return generate(scenario), scenario.scene_object


def cmd_analyze(args) -> int:
    mode = "analyze --track" if args.track else args.command
    if args.object is not None and not args.track:
        raise _unread_flag("--object", mode, "analyze --track")
    run = load_run_config(args.config, mode) if args.config else None
    track, scene_object = _load_track_and_object(args, run)
    tolerance = (args.tolerance if args.tolerance is not None
                 else (run.tolerance if run else DEFAULT_TOLERANCE))
    scenario_run = ScenarioRun(args.scenario_id, track, scene_object, tolerance)
    for path in scenario_run.write_analysis(_out_dir(args, run)):
        print(path)
    return 0


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a missing file fails in its own read, with its own message
        return False


def cmd_detect(args) -> int:
    recorded = args.optics_from or args.inertial_from
    mode = "detect --optics-from" if recorded else args.command
    if recorded and args.playback:
        raise _unread_flag("--playback", mode, "detect --config")
    if args.object is not None and not recorded:
        raise _unread_flag("--object", mode, "detect --optics-from")
    run = load_run_config(args.config, mode) if args.config else None
    if recorded:
        if not (args.optics_from and args.inertial_from and args.object):
            raise ConfigError("mismatched-source detection needs --optics-from, "
                              "--inertial-from and --object")
        track_a = fileio.read_track_csv(args.optics_from)
        # one recording checked against itself is read once
        track_b = (track_a if _same_file(args.optics_from, args.inertial_from)
                   else fileio.read_track_csv(args.inertial_from))
        position = fileio.parse_value("--object", "vec3", args.object)
        optics = project_optics(track_a, ScenePoint(position=position))
        report = detect(optics, project_inertial(track_b),
                        run.detector if run else DetectorConfig())
    else:
        if run is None:
            raise ConfigError("detect needs --config or --optics-from/--inertial-from")
        scenario = _require_scenario(run)
        scenario_run = ScenarioRun("", generate(scenario), scenario.scene_object,
                                   detector=run.detector)
        report = scenario_run.playback if args.playback else scenario_run.live
    out = Path(args.out) if args.out else _out_dir(args, run) / "detect.json"
    write_detection(out, report)
    print(f"{report.verdict} {out}")
    return 0


def cmd_slope(args) -> int:
    run = load_run_config(args.config, args.command)
    if run.scenario is not None:
        track = generate(run.scenario)
    else:
        accel = run.accel if run.accel is not None else np.zeros(3)
        track = constant_acceleration_track(run.grid, accel)
    inertial = project_inertial(track, gravity=run.gravity)
    if run.support_tilt_rad != 0.0:
        support = tilted_support(track.grid, run.support_tilt_rad)
    else:
        support = constant_support(track.grid, run.support_normal)
    slope = slope_invariant(inertial, support)
    out = Path(args.out) if args.out else _out_dir(args, run) / "slope.csv"
    fileio.write_csv(out, slope_table(slope))
    print(out)
    return 0


def cmd_demo(args) -> int:
    out_dir = _out_dir(args)
    results = run_demo(out_dir)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        timing = f" ({r.timing_s:.2f}s)" if r.timing_s is not None else ""
        print(f"[{status}] {r.name:<{width}}  {r.detail}{timing}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed; "
          f"artifacts in {out_dir}")
    return 0 if not failed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossarray",
                     description="Simulate and analyze cross-sense distance, "
                                 "slope, and replay-detection invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a track CSV from a config")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", help="track CSV path (default <out-dir>/track.csv)")
    p_gen.add_argument("--out-dir")
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze",
                          help="write the per-sample timeline CSV and accuracy JSON")
    p_an.add_argument("--config")
    p_an.add_argument("--track", help="analyze an existing track CSV")
    p_an.add_argument("--object", help="object position x,y,z (with --track)")
    p_an.add_argument("--tolerance", type=float,
                      help=f"relative accuracy tolerance (default {DEFAULT_TOLERANCE})")
    p_an.add_argument("--scenario-id", default="")
    p_an.add_argument("--out-dir")
    p_an.set_defaults(func=cmd_analyze)

    p_det = sub.add_parser("detect", help="classify streams as live or simulated")
    p_det.add_argument("--config")
    p_det.add_argument("--playback", action="store_true",
                       help="replay the config's motion to a stationary body")
    p_det.add_argument("--optics-from", help="track CSV supplying the optics")
    p_det.add_argument("--inertial-from", help="track CSV supplying the inertial stream")
    p_det.add_argument("--object", help="object position x,y,z (with --optics-from)")
    p_det.add_argument("--out", help="report JSON path")
    p_det.add_argument("--out-dir")
    p_det.set_defaults(func=cmd_detect)

    p_sl = sub.add_parser("slope", help="slope/orientation invariant CSV")
    p_sl.add_argument("--config", required=True)
    p_sl.add_argument("--out", help="slope CSV path")
    p_sl.add_argument("--out-dir")
    p_sl.set_defaults(func=cmd_slope)

    p_demo = sub.add_parser("demo",
                            help="run the built-in verification suite and "
                                 "write all artifacts")
    p_demo.add_argument("--out-dir")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CrossArrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
