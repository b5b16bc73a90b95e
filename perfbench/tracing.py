"""Span recorder that wraps crossarray's public functions from outside.

``install`` replaces each traced function with a wrapper in its defining
module and in every crossarray namespace that imported the name (for
example ``cli.generate`` and ``invariants.project_optics``), so calls the
program makes internally are timed too. Nothing in crossarray changes.

A span's self time is its duration minus the durations of the spans it
directly contains. Calls are counted per namespace they went through.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("analysis", "cli", "demo", "detector", "fileio", "generators",
           "invariants", "kernels", "kinematics", "observables")

# public functions that get a span, by defining module
TRACED = {
    "analysis": ("accuracy", "timeline_table", "exploration_summary"),
    "cli": ("main",),
    "demo": ("run_demo",),
    "detector": ("detect", "report_to_json_dict"),
    "fileio": ("csv_text", "json_text", "atomic_write_text", "read_csv_columns",
               "read_track_csv", "load_run_config"),
    "generators": ("generate", "make_playback"),
    "invariants": ("estimate_all", "project_and_estimate", "slope_invariant"),
    "kernels": ("bearing_kinematics", "diff_central", "windowed_rel_std"),
    "kinematics": ("differentiate", "from_positions"),
    "observables": ("project_optics", "project_inertial", "replay_optics"),
}
# public functions that are only counted: their time stays with the caller
COUNTED = {"invariants": ("estimator_validity", "estimate_distance_3d")}

WRITE_SPANS = ("fileio.csv_text", "fileio.json_text", "fileio.atomic_write_text")
READ_SPANS = ("fileio.read_csv_columns", "fileio.read_track_csv")
KERNEL_SPANS = ("kernels.bearing_kinematics", "kernels.diff_central",
                "kernels.windowed_rel_std")

# per-layer metrics: span self times, then counts, then derived rates
SPAN_METRICS = (
    "fileio.csv_text", "fileio.atomic_write_text", "fileio.json_text",
    "fileio.read_csv_columns", "fileio.read_track_csv", "fileio.load_run_config",
    "detector.report_to_json_dict", "detector.detect",
    "observables.project_optics", "observables.project_inertial",
    "observables.replay_optics", "invariants.estimate_all",
    "invariants.project_and_estimate", "invariants.slope_invariant",
    "analysis.accuracy", "analysis.timeline_table", "analysis.exploration_summary",
    "kernels.bearing_kinematics", "kernels.diff_central", "kernels.windowed_rel_std",
    "kinematics.differentiate", "kinematics.from_positions",
    "generators.generate", "generators.make_playback",
)
CALL_METRICS = ("invariants.estimator_validity", "detector.estimate_distance_3d",
                "kinematics.differentiate")


class Tracer:
    """Self time per span name, call counts and byte counts, in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.bytes = Counter()
        self._child_s = []  # one accumulator per open span

    def run(self, name, fn, args, kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed

    def merge(self, other):
        """Add a dumped tracer (``to_json``) from another process."""
        for key, value in other["self_s"].items():
            self.self_s[key] += value
        self.calls.update(other["calls"])
        self.bytes.update(other["bytes"])

    def to_json(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "bytes": dict(self.bytes)}


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _account(tracer, span, args, result):
    """Bytes a call moved: array sizes for kernels, text and file sizes for I/O."""
    if span in KERNEL_SPANS:
        tracer.bytes["kernels.moved"] += _nbytes(tuple(args)) + _nbytes(result)
    elif span == "fileio.atomic_write_text":
        tracer.bytes["fileio.written"] += len(args[1])
    elif span == "fileio.read_csv_columns":
        tracer.bytes["fileio.read"] += os.path.getsize(args[0])


def _wrap(tracer, fn, span, namespace):
    count_key = f"{namespace}.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[count_key] += 1
        if span is None:
            return fn(*args, **kwargs)
        result = tracer.run(span, fn, args, kwargs)
        _account(tracer, span, args, result)
        return result

    return wrapper


def install(tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    mods = {name: importlib.import_module(f"crossarray.{name}") for name in MODULES}
    namespaces = {"crossarray": sys.modules["crossarray"], **mods}
    undo = []
    targets = [(owner, name, f"{owner}.{name}") for owner, names in TRACED.items()
               for name in names]
    targets += [(owner, name, None) for owner, names in COUNTED.items() for name in names]
    for owner, name, span in targets:
        original = getattr(mods[owner], name)
        for label, namespace in namespaces.items():
            if getattr(namespace, name, None) is original:
                undo.append((namespace, name, original))
                setattr(namespace, name, _wrap(tracer, original, span, label))
    demo = mods["demo"]
    checks = demo.ALL_CHECKS
    undo.append((demo, "ALL_CHECKS", checks))
    demo.ALL_CHECKS = tuple(_wrap(tracer, check, "demo.checks", "demo") for check in checks)

    def uninstall():
        for namespace, name, original in reversed(undo):
            setattr(namespace, name, original)

    return uninstall


def per_layer(tracer, startup_s, overhead_s):
    """Every per-layer metric, as {name: (value, unit)}; 0 where a layer
    did not run in this workload."""
    s = tracer.self_s
    out = {f"{name}_s": (s[name], "s") for name in SPAN_METRICS}
    out["cli.main_self_s"] = (s["cli.main"], "s")
    out["cli.startup_s"] = (startup_s, "s")
    out["demo.checks_s"] = (s["demo.checks"], "s")
    out["demo.run_demo_self_s"] = (s["demo.run_demo"], "s")
    for name in CALL_METRICS:
        owner, fn = name.split(".")
        if fn in TRACED.get(owner, ()) + COUNTED.get(owner, ()):  # defining module: all calls
            calls = sum(v for k, v in tracer.calls.items() if k.split(".")[1] == fn)
        else:  # another module: calls through its namespace only
            calls = tracer.calls[name]
        out[f"{name}_calls"] = (calls, "count")

    def rate(count, spans):
        busy = sum(s[name] for name in spans)
        return count / busy if busy > 0 else 0.0

    b = tracer.bytes
    out["fileio.bytes_written"] = (b["fileio.written"], "B")
    out["fileio.write_bytes_per_s"] = (rate(b["fileio.written"], WRITE_SPANS), "B/s")
    out["fileio.bytes_read"] = (b["fileio.read"], "B")
    out["fileio.read_bytes_per_s"] = (rate(b["fileio.read"], READ_SPANS), "B/s")
    out["kernels.bytes_moved"] = (b["kernels.moved"], "B_computed")
    out["kernels.bytes_per_s"] = (rate(b["kernels.moved"], KERNEL_SPANS), "B_computed/s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
