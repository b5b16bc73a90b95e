"""Checks of crossarray's artifacts against the oracles.

Each check raises :class:`CheckFailed` with a message naming the file and
the first sample that disagrees; a check that returns has passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import oracles

POSITION_ATOL = 1e-9     # m; closed-form positions in written CSVs
TRUTH_RTOL = 1e-9        # relative; ground-truth distance
D3D_RTOL = 1e-6          # relative; d_3d against truth on analytic tracks
ACCURACY_RTOL = 1e-12    # relative; accuracy.json against the recomputation
# absolute, in units of std/|mean|: 1/5000 of the detector's 0.05 threshold.
# The detector's windowed spread takes E[x^2] - E[x]^2 from global cumsums and
# errs by up to ~2e-6 on the benchmark's 4e4-sample tracks (a FOUND line in
# CHANGES.md); this bound lets that known fault through and nothing coarser.
SCALE_ATOL = 1e-5
FLOW_RTOL = 1e-9         # relative; residual_flow against the closed form
SLOPE_ATOL = 1e-9        # rad


class CheckFailed(Exception):
    """An artifact disagrees with what the benchmark computed itself."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(name, got, want, rtol=0.0, atol=0.0):
    """NaNs must sit where the oracle has them; finite values must agree."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    bad = np.flatnonzero((nan_got != nan_want).reshape(len(got), -1).any(axis=1))
    require(len(bad) == 0, f"{name}: NaN pattern differs first at sample {bad[:1]}")
    with np.errstate(invalid="ignore"):
        err = np.where(nan_want, 0.0, np.abs(got - want) - rtol * np.abs(want))
    worst = np.unravel_index(np.argmax(err), err.shape) if err.size else None
    require(worst is None or err[worst] <= atol,
            f"{name}: {got[worst]!r} != {want[worst]!r} at {worst}")


def read_csv(path, n_rows):
    """Columns of a numeric CSV with a header and exactly ``n_rows`` rows."""
    path = Path(path)
    require(path.is_file() and path.stat().st_size > 0, f"{path}: missing or empty")
    with path.open("rb") as handle:
        handle.seek(-1, 2)
        require(handle.read(1) == b"\n", f"{path}: last line is cut short")
    with path.open() as handle:
        header = handle.readline().strip().split(",")
        try:
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{path}: unreadable ({exc})") from None
    require(data.shape == (n_rows, len(header)),
            f"{path}: {data.shape} cells, expected ({n_rows}, {len(header)})")
    return {name: data[:, j] for j, name in enumerate(header)}


def read_json(path):
    path = Path(path)
    require(path.is_file(), f"{path}: missing")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise CheckFailed(f"{path}: unreadable ({exc})") from None


def _json_series(values):
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def check_track_csv(path, t, pos, vel, acc):
    cols = read_csv(path, len(t))
    require(tuple(cols) == oracles.TRACK_HEADER, f"{path}: header {list(cols)}")
    close(f"{path} t", cols["t"], t, rtol=1e-15)
    for prefix, want in (("p", pos), ("v", vel), ("a", acc)):
        got = np.column_stack([cols[prefix + axis] for axis in "xyz"])
        close(f"{path} {prefix}xyz", got, want, atol=POSITION_ATOL)


def check_timeline(path, t, pos, obj):
    """Positions and truth match the motion; d_3d matches truth where valid.
    Returns the parsed columns."""
    cols = read_csv(path, len(t))
    close(f"{path} t", cols["t"], t, rtol=1e-15)
    got = np.column_stack([cols["px"], cols["py"], cols["pz"]])
    close(f"{path} position", got, pos, atol=POSITION_ATOL)
    truth = oracles.distance(pos, obj)
    close(f"{path} d_true", cols["d_true"], truth, rtol=TRUTH_RTOL)
    valid = cols["valid_3d"] == 1.0
    require(valid.sum() > len(t) // 2, f"{path}: only {valid.sum()} valid d_3d rows")
    close(f"{path} d_3d", cols["d_3d"][valid], truth[valid], rtol=D3D_RTOL)
    return cols


def check_accuracy_json(path, cols, tolerance, planar):
    """accuracy.json equals the accuracy recomputed from the timeline."""
    report = read_json(path)
    estimators = report.get("estimators", {})
    require(set(estimators) == {"d_1d", "d_2d", "d_3d", "d_tan"},
            f"{path}: estimators {sorted(estimators)}")
    require(report.get("tolerance") == tolerance, f"{path}: tolerance {report.get('tolerance')}")
    if not planar:
        require(estimators["d_2d"] is None, f"{path}: d_2d reported for non-planar motion")
    for name in ("d_1d", "d_3d", "d_tan"):
        want = oracles.accuracy(cols[name], cols["valid" + name[1:]] == 1.0,
                                cols["d_true"], tolerance)
        got = estimators[name]
        require((got is None) == (want is None), f"{path} {name}: {got} != {want}")
        if want is not None:
            for key, value in want.items():
                close(f"{path} {name}.{key}", [got[key]], [value], rtol=ACCURACY_RTOL)


def check_detect_json(path, verdict, residual_scale=None, residual_flow=None):
    report = read_json(path)
    require(report.get("verdict") == verdict,
            f"{path}: verdict {report.get('verdict')!r}, expected {verdict!r}")
    if residual_scale is not None:
        close(f"{path} residual_scale", _json_series(report["residual_scale"]),
              residual_scale, rtol=1e-6, atol=SCALE_ATOL)
    if residual_flow is not None:
        got = _json_series(report["residual_flow"])
        close(f"{path} residual_flow", got, residual_flow, rtol=FLOW_RTOL)
        fires = np.count_nonzero(residual_flow > report["thresholds"]["flow_q_max"])
        close(f"{path} flow_fire_fraction", [report["flow_fire_fraction"]],
              [fires / len(residual_flow)], rtol=ACCURACY_RTOL)


def check_slope_csv(path, expected):
    cols = read_csv(path, len(expected))
    close(f"{path} slope_rad", cols["slope_rad"], expected, atol=SLOPE_ATOL)
    require(not cols["degenerate"].any(), f"{path}: degenerate rows")


def check_demo_summary(path):
    checks = read_json(path).get("checks", [])
    require(len(checks) > 0, f"{path}: no checks")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    require(not failed, f"{path}: checks failed: {failed}")


def tree_digest(root):
    """sha256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
