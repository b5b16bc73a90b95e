"""File formats: track/timeline/slope CSV, report JSON, and run configs.

CSV values are written with shortest round-trip formatting (``repr``),
comma separators and a mandatory header, so files are diff-able and
parse back bit-identically. JSON is sorted and NaN-free (null instead).
All writes are atomic: temp file in the target directory, then rename.

The run config is a flat ``key = value`` text file with units spelled
out in key names (``speed_mps``, ``duration_s``). Unknown keys are
errors: a silently ignored typo would invalidate a replication.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .analysis import DEFAULT_TOLERANCE
from .detector import DetectorConfig
from .errors import ConfigError, InputShapeError
from .generators import KINDS, ScenarioConfig
from .kinematics import INGESTED, KinematicTrack, TimeGrid

TRACK_HEADER = ["t", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az"]


def _fmt(value) -> str:
    return repr(float(value))


def _umask() -> int:
    mask = os.umask(0)  # the only way to read it is to set it
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        # mkstemp creates 0600; give the file the mode open() would have
        os.chmod(tmp, 0o666 & ~_umask())
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, columns) -> str:
    """Render named columns (same length) as CSV text; bools become 0/1."""
    n = len(columns[header[0]])
    for col in header:
        if len(columns[col]) != n:
            raise InputShapeError(f"column {col!r} has mismatched length")
    lines = [",".join(header)]
    for k in range(n):
        cells = []
        for col in header:
            v = columns[col][k]
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, header, columns) -> None:
    atomic_write_text(path, csv_text(header, columns))


def read_csv_columns(path) -> Dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV") from None
        data = {col: [] for col in header}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{path}:{lineno}: expected {len(header)} "
                                  f"fields, got {len(row)}")
            for col, cell in zip(header, row):
                try:
                    data[col].append(float(cell))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: non-numeric value {cell!r} "
                        f"in column {col!r}") from None
    return {col: np.array(vals) for col, vals in data.items()}


def write_track_csv(path, track: KinematicTrack) -> None:
    t = track.grid.times()
    cols = {"t": t}
    for prefix, series in (("p", track.position), ("v", track.velocity),
                           ("a", track.acceleration)):
        for j, axis in enumerate("xyz"):
            cols[f"{prefix}{axis}"] = series[:, j]
    write_csv(path, TRACK_HEADER, cols)


def _infer_grid(t: np.ndarray, path) -> TimeGrid:
    n = len(t)
    if n < 2:
        raise ConfigError(f"{path}: a track needs at least 2 samples")
    if not np.all(np.isfinite(t)):
        raise ConfigError(f"{path}: time column must be finite")
    span = t[-1] - t[0]
    if span <= 0:
        raise ConfigError(f"{path}: time column must be strictly increasing")
    rate = (n - 1) / span
    # snap to integer rates so regenerated grids match bit-for-bit
    if abs(rate - round(rate)) < 1e-6 * rate:
        rate = float(round(rate))
    grid = TimeGrid(sample_rate=rate, n_samples=n, t0=float(t[0]))
    if np.max(np.abs(t - grid.times())) > 1e-6 / rate:
        raise ConfigError(f"{path}: samples are not uniformly spaced")
    return grid


def read_track_csv(path) -> KinematicTrack:
    cols = read_csv_columns(path)
    missing = [c for c in TRACK_HEADER if c not in cols]
    if missing:
        raise ConfigError(f"{path}: missing track columns {missing}")
    grid = _infer_grid(cols["t"], path)
    stack = lambda prefix: np.column_stack([cols[prefix + axis] for axis in "xyz"])
    return KinematicTrack(grid=grid, position=stack("p"), velocity=stack("v"),
                          acceleration=stack("a"), provenance=INGESTED)


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json_text(payload))


def read_timeline_csv(path) -> Dict[str, np.ndarray]:
    """Read a timeline CSV, restoring validity flags to booleans so a
    re-export reproduces the original bytes."""
    cols = read_csv_columns(path)
    for name in list(cols):
        if name.startswith("valid_"):
            cols[name] = cols[name].astype(bool)
    return cols


# ---------------------------------------------------------------------------
# run config: flat key = value text
# ---------------------------------------------------------------------------

_FLOAT, _INT, _VEC3, _STR = "float", "int", "vec3", "str"

CONFIG_SCHEMA = {
    # scenario
    "kind": _STR,
    "duration_s": _FLOAT,
    "sample_rate_hz": _FLOAT,
    "start_m": _VEC3,
    "direction": _VEC3,
    "speed_mps": _FLOAT,
    "amplitude_m": _VEC3,
    "frequency_hz": _VEC3,
    "phase_rad": _VEC3,
    "orbit_radius_m": _FLOAT,
    "samples_csv": _STR,
    "noise_sigma_m": _FLOAT,
    "rng_seed": _INT,
    # scene
    "object_m": _VEC3,
    "object_label": _STR,
    # analysis
    "tolerance_rel": _FLOAT,
    "reach_threshold_m": _FLOAT,
    # detector
    "flow_q_max_radps": _FLOAT,
    "scale_rel_std_max": _FLOAT,
    "window_s": _FLOAT,
    "fire_fraction": _FLOAT,
    # slope
    "gravity_mps2": _VEC3,
    "support_normal": _VEC3,
    "support_tilt_rad": _FLOAT,
    "accel_mps2": _VEC3,
    # output
    "out_dir": _STR,
}


def _parse_value(key, kind, raw, lineno, path):
    try:
        if kind == _FLOAT:
            return float(raw)
        if kind == _INT:
            return int(raw, 0)
        if kind == _VEC3:
            parts = [float(p) for p in raw.split(",")]
            if len(parts) != 3:
                raise ValueError(f"expected 3 comma-separated numbers")
            return np.array(parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None


def parse_config_text(text: str, path="<config>") -> Dict[str, object]:
    """Parse a flat config file; unknown or duplicate keys are errors."""
    values: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, CONFIG_SCHEMA[key], raw, lineno, path)
    return values


def load_config(path) -> Dict[str, object]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, path=str(path))


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run needs.

    ``scenario`` is None for configs that drive no trajectory (e.g. a
    pure slope computation from a constant acceleration); such a run is
    sampled on ``grid``.
    """

    scenario: Optional[ScenarioConfig]
    tolerance: float = DEFAULT_TOLERANCE
    reach_threshold: float = 0.6
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    support_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    support_tilt_rad: float = 0.0
    accel: Optional[np.ndarray] = None
    out_dir: Optional[str] = None
    sample_rate: float = 100.0  # ``grid`` of a run without a scenario
    duration: float = 2.0

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(sample_rate=self.sample_rate,
                        n_samples=int(round(self.duration * self.sample_rate)) + 1)


def _scenario_from_values(values: Dict[str, object],
                          config_dir: Path) -> Optional[ScenarioConfig]:
    if "kind" not in values:
        return None
    kind = values["kind"]
    if kind not in KINDS:
        raise ConfigError(f"bad value for 'kind': {kind!r} "
                          f"(expected one of {', '.join(KINDS)})")
    kwargs = dict(kind=kind)
    mapping = {
        "duration_s": "duration",
        "sample_rate_hz": "sample_rate",
        "start_m": "start",
        "direction": "direction",
        "speed_mps": "speed",
        "amplitude_m": "amplitude",
        "frequency_hz": "frequency",
        "phase_rad": "phase",
        "orbit_radius_m": "orbit_radius",
        "noise_sigma_m": "noise_sigma",
        "rng_seed": "rng_seed",
        "object_m": "object_position",
        "object_label": "object_label",
    }
    for key, attr in mapping.items():
        if key in values:
            kwargs[attr] = values[key]
    if kind == "custom_samples":
        if "samples_csv" not in values:
            raise ConfigError("custom_samples scenario needs 'samples_csv'")
        track = read_track_csv(config_dir / str(values["samples_csv"]))
        kwargs["samples"] = track.position
        kwargs.setdefault("sample_rate", track.grid.sample_rate)
        kwargs.setdefault("duration", track.grid.duration)
    return ScenarioConfig(**kwargs)


def run_config_from_values(values: Dict[str, object],
                           config_dir: Path = Path(".")) -> RunConfig:
    scenario = _scenario_from_values(values, config_dir)
    detector_kwargs = {}
    for key, attr in (("flow_q_max_radps", "flow_q_max"),
                      ("scale_rel_std_max", "scale_rel_std_max"),
                      ("window_s", "window_s"),
                      ("fire_fraction", "fire_fraction")):
        if key in values:
            detector_kwargs[attr] = float(values[key])
    kwargs = dict(scenario=scenario, detector=DetectorConfig(**detector_kwargs))
    if "tolerance_rel" in values:
        kwargs["tolerance"] = float(values["tolerance_rel"])
    if "reach_threshold_m" in values:
        kwargs["reach_threshold"] = float(values["reach_threshold_m"])
    if "gravity_mps2" in values:
        kwargs["gravity"] = values["gravity_mps2"]
    if "support_normal" in values:
        kwargs["support_normal"] = values["support_normal"]
    if "support_tilt_rad" in values:
        kwargs["support_tilt_rad"] = float(values["support_tilt_rad"])
    if "accel_mps2" in values:
        kwargs["accel"] = values["accel_mps2"]
    if "out_dir" in values:
        kwargs["out_dir"] = str(values["out_dir"])
    if "sample_rate_hz" in values:
        kwargs["sample_rate"] = float(values["sample_rate_hz"])
    if "duration_s" in values:
        kwargs["duration"] = float(values["duration_s"])
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    return run_config_from_values(load_config(path), Path(path).parent)
