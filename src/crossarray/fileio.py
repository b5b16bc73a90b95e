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
from .generators import CUSTOM_SAMPLES, KIND_FIELDS, KINDS, ScenarioConfig
from .kinematics import INGESTED, KinematicTrack, TimeGrid

TRACK_HEADER = ["t", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az"]
CSV_BLOCK_ROWS = 4096


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


def _csv_cells(col: np.ndarray) -> list:
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    return list(map(repr, col.tolist()))


def csv_text(columns) -> str:
    """Render named columns (same length) as CSV text, in the table's key
    order; bool columns become 0/1, all others shortest round-trip floats."""
    names = list(columns)
    n = len(columns[names[0]])
    cols = []
    for name, col in columns.items():
        if len(col) != n:
            raise InputShapeError(f"column {name!r} has mismatched length")
        col = np.asarray(col)
        cols.append(col if col.dtype == np.bool_ else col.astype(np.float64, copy=False))
    parts = [",".join(names) + "\n"]
    # a block of rows at a time: the per-cell strings of a whole table
    # would take several times the memory of its text
    for start in range(0, n, CSV_BLOCK_ROWS):
        cells = [_csv_cells(col[start:start + CSV_BLOCK_ROWS]) for col in cols]
        parts.append("".join(",".join(row) + "\n" for row in zip(*cells)))
    return "".join(parts)


def write_csv(path, columns) -> None:
    atomic_write_text(path, csv_text(columns))


def read_csv_columns(path) -> Dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV") from None
        for i, col in enumerate(header):
            if col in header[:i]:
                raise ConfigError(f"{path}:1: duplicate column {col!r}")
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
    write_csv(path, cols)


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
# where a value goes: the ScenarioConfig, the DetectorConfig or the
# RunConfig; the grid keys also sample a run that has no scenario.
_SCENARIO, _DETECTOR, _RUN = ("scenario",), ("detector",), ("run",)

CONFIG_KEYS = {  # key: (type, destinations, attribute)
    "kind": (_STR, _SCENARIO, "kind"),
    "duration_s": (_FLOAT, _SCENARIO + _RUN, "duration"),
    "sample_rate_hz": (_FLOAT, _SCENARIO + _RUN, "sample_rate"),
    "start_m": (_VEC3, _SCENARIO, "start"),
    "direction": (_VEC3, _SCENARIO, "direction"),
    "speed_mps": (_FLOAT, _SCENARIO, "speed"),
    "amplitude_m": (_VEC3, _SCENARIO, "amplitude"),
    "frequency_hz": (_VEC3, _SCENARIO, "frequency"),
    "phase_rad": (_VEC3, _SCENARIO, "phase"),
    "orbit_radius_m": (_FLOAT, _SCENARIO, "orbit_radius"),
    "samples_csv": (_STR, _SCENARIO, "samples"),  # ``_scenario`` reads the CSV
    "noise_sigma_m": (_FLOAT, _SCENARIO, "noise_sigma"),
    "rng_seed": (_INT, _SCENARIO, "rng_seed"),
    "object_m": (_VEC3, _SCENARIO, "object_position"),
    "object_label": (_STR, _SCENARIO, "object_label"),
    "tolerance_rel": (_FLOAT, _RUN, "tolerance"),
    "flow_q_max_radps": (_FLOAT, _DETECTOR, "flow_q_max"),
    "scale_rel_std_max": (_FLOAT, _DETECTOR, "scale_rel_std_max"),
    "window_s": (_FLOAT, _DETECTOR, "window_s"),
    "fire_fraction": (_FLOAT, _DETECTOR, "fire_fraction"),
    "gravity_mps2": (_VEC3, _RUN, "gravity"),
    "support_normal": (_VEC3, _RUN, "support_normal"),
    "support_tilt_rad": (_FLOAT, _RUN, "support_tilt_rad"),
    "accel_mps2": (_VEC3, _RUN, "accel"),  # only for a run with no scenario
    "out_dir": (_STR, _RUN, "out_dir"),
}


def parse_value(key, kind, raw, where=""):
    """Parse one ``float``/``int``/``vec3``/``str`` value; ``where``
    prefixes the error (a config's ``path:line: ``)."""
    try:
        if kind == _INT:
            return int(raw, 0)
        if kind == _STR:
            return raw
        if kind == _FLOAT:
            value = float(raw)
        else:
            value = np.array([float(p) for p in raw.split(",")])
            if len(value) != 3:
                raise ValueError("expected 3 comma-separated numbers")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"must be finite, got {raw!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key!r}: {exc}") from None


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
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = parse_value(key, CONFIG_KEYS[key][0], raw, f"{path}:{lineno}: ")
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


def _scenario(kwargs: Dict[str, object], config_dir: Path) -> Optional[ScenarioConfig]:
    if "kind" not in kwargs:
        return None
    if kwargs["kind"] == CUSTOM_SAMPLES:
        if "samples" not in kwargs:
            raise ConfigError("custom_samples scenario needs 'samples_csv'")
        track = read_track_csv(config_dir / kwargs["samples"])
        kwargs["samples"] = track.position
        kwargs.setdefault("sample_rate", track.grid.sample_rate)
        kwargs.setdefault("duration", track.grid.duration)
    return ScenarioConfig(**kwargs)


def run_config_from_values(values: Dict[str, object],
                           config_dir: Path = Path(".")) -> RunConfig:
    if "accel_mps2" in values and "kind" in values:
        raise ConfigError("'accel_mps2' contradicts 'kind': a scenario's "
                          "acceleration comes from its motion")
    if "support_normal" in values and values.get("support_tilt_rad", 0.0) != 0.0:
        raise ConfigError("'support_normal' contradicts a nonzero "
                          "'support_tilt_rad': give one or the other")
    kind = values.get("kind")
    if kind is not None and kind not in KINDS:
        raise ConfigError(f"bad value for 'kind': {kind!r} "
                          f"(expected one of {', '.join(KINDS)})")
    unread = [key for key in values if CONFIG_KEYS[key][1] == _SCENARIO
              and CONFIG_KEYS[key][2] not in KIND_FIELDS.get(kind, ())]
    if unread and kind is None:
        raise ConfigError(f"{', '.join(map(repr, unread))} given without 'kind': "
                          "only a scenario reads them")
    if unread:
        raise ConfigError(f"{', '.join(map(repr, unread))} not read by "
                          f"'kind' = {kind}")
    kwargs = {"scenario": {}, "detector": {}, "run": {}}
    for key, value in values.items():
        _, destinations, attribute = CONFIG_KEYS[key]
        for destination in destinations:
            kwargs[destination][attribute] = value
    scenario = _scenario(kwargs["scenario"], config_dir)
    return RunConfig(scenario=scenario,
                     detector=DetectorConfig(**kwargs["detector"]), **kwargs["run"])


def load_run_config(path) -> RunConfig:
    return run_config_from_values(load_config(path), Path(path).parent)
