"""Command-line surface tying generation, analysis and detection together.

Subcommands: ``generate``, ``analyze``, ``detect``, ``slope``, ``demo``.
Runs are reproducible: the same config produces byte-identical outputs.
Exit codes: 0 success, 1 usage or config error, 2 runtime/numeric error.

``run`` is the process entry, for ``python -m crossarray.cli`` and the
installed ``crossarray`` script; ``main(argv)`` is the command itself,
for callers inside a process of their own.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import fileio
from .analysis import DEFAULT_TOLERANCE, slope_table
from .errors import ConfigError, CrossArrayError
from .fileio import RunConfig, load_run_config
from .generators import generate
from .kinematics import ScenePoint
from .pipeline import ScenarioRun, slope_estimate, write_detection

ENV_OUT_DIR = "CROSSARRAY_OUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _out_dir(args, run: RunConfig) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    if run.out_dir:
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


def _scene_object(args) -> ScenePoint:
    """The ``--object x,y,z`` that a recorded track is seen against."""
    return ScenePoint(position=fileio.parse_value("--object", "vec3", args.object))


def _run(args, mode: str) -> RunConfig:
    """The run ``--config`` describes to ``mode``; without one, the defaults."""
    return load_run_config(args.config, mode) if args.config else RunConfig(scenario=None)


def _load_track_and_object(args, run: RunConfig):
    if args.track:
        if args.object is None:
            raise ConfigError("--track also needs --object x,y,z")
        return fileio.read_track_csv(args.track), _scene_object(args)
    if not args.config:
        raise ConfigError("either --config or --track is required")
    scenario = _require_scenario(run)
    return generate(scenario), scenario.scene_object


def cmd_analyze(args) -> int:
    mode = "analyze --track" if args.track else args.command
    if args.object is not None and not args.track:
        raise _unread_flag("--object", mode, "analyze --track")
    run = _run(args, mode)
    track, scene_object = _load_track_and_object(args, run)
    tolerance = args.tolerance if args.tolerance is not None else run.tolerance
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
    run = _run(args, mode)
    if recorded:
        if not (args.optics_from and args.inertial_from and args.object):
            raise ConfigError("mismatched-source detection needs --optics-from, "
                              "--inertial-from and --object")
        track_a = fileio.read_track_csv(args.optics_from)
        # one recording checked against itself is read once
        track_b = (track_a if _same_file(args.optics_from, args.inertial_from)
                   else fileio.read_track_csv(args.inertial_from))
        recording = ScenarioRun("", track_a, _scene_object(args), detector=run.detector)
        report = recording.against(track_b)
    else:
        if not args.config:
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
    slope = slope_estimate(run)
    out = Path(args.out) if args.out else _out_dir(args, run) / "slope.csv"
    fileio.write_csv(out, slope_table(slope))
    print(out)
    return 0


def cmd_demo(args) -> int:
    from .demo import run_demo  # its scenarios, checks and tables serve only here

    out_dir = _out_dir(args, RunConfig(scenario=None))
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


def _add_out(parser: argparse.ArgumentParser, out_help: str) -> None:
    """``--out`` names the file in full, so an ``--out-dir`` beside it is
    an error: it would go unread."""
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--out", help=out_help)
    out.add_argument("--out-dir")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossarray",
                     description="Simulate and analyze cross-sense distance, "
                                 "slope, and replay-detection invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a track CSV from a config")
    p_gen.add_argument("--config", required=True)
    _add_out(p_gen, "track CSV path (default <out-dir>/track.csv)")
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
    _add_out(p_det, "report JSON path")
    p_det.set_defaults(func=cmd_detect)

    p_sl = sub.add_parser("slope", help="slope/orientation invariant CSV")
    p_sl.add_argument("--config", required=True)
    _add_out(p_sl, "slope CSV path")
    p_sl.set_defaults(func=cmd_slope)

    p_demo = sub.add_parser("demo",
                            help="run the built-in verification suite and "
                                 "write all artifacts")
    p_demo.add_argument("--out-dir")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. Nothing process-wide
    changes, the garbage collector included, so tests and host processes
    call it in their own process."""
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


def run() -> None:
    """The process entry: ``main`` on ``sys.argv``, then exit with its code.

    The heap the imports left, about 22,000 objects the collector tracks,
    is frozen first, so no collection scans it again: not during the
    command, and not at shutdown, whose full collections over it took
    about 22 ms of each process. The freeze is here and not in ``main``,
    where it would freeze a host process's heap.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
