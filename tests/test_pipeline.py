"""``pipeline`` calls every stage through the stage's defining module, so
a wrapper set on that module's attribute, as the benchmark's tracer sets
one, sees each call the pipeline makes."""

import functools
from collections import Counter

from crossarray import detector, generators, invariants, observables
from crossarray.demo import demo_scenarios
from crossarray.fileio import RunConfig
from crossarray.pipeline import ScenarioRun, slope_estimate

STAGES = (
    (generators, "generate"),
    (generators, "make_playback"),
    (observables, "project_optics"),
    (observables, "project_inertial"),
    (invariants, "estimate_all"),
    (invariants, "slope_invariant"),
    (detector, "detect"),
)


def count_stage_calls(monkeypatch) -> Counter:
    """Wrap each stage on its module; the counter holds the calls made
    through the wrappers, by stage name."""
    counts = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in STAGES:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_every_stage_is_called_through_its_module(tmp_path, monkeypatch):
    cfg = demo_scenarios()["sway3d"]
    track = generators.generate(cfg)  # before the wrappers: not the pipeline's call
    counts = count_stage_calls(monkeypatch)
    run = ScenarioRun("sway3d", track, cfg.scene_object)
    run.write_analysis(tmp_path)
    assert run.live.verdict == "live"
    assert run.playback.verdict == "simulated"
    slope_estimate(RunConfig(scenario=cfg))
    slope_estimate(RunConfig(scenario=None, support_tilt_rad=0.1))
    assert [name for _, name in STAGES if not counts[name]] == []
