"""File formats: track/timeline/slope CSV, report JSON, and run configs.

CSV values are written with shortest round-trip formatting (``repr``),
comma separators and a mandatory header, so files are diff-able and
parse back bit-identically. JSON is sorted and NaN-free (null instead).
All writes are atomic: temp file in the target directory, then rename.

``write_csv`` and ``write_json`` stream their text into that temp file
one block at a time, so no artifact's whole text is ever held in
memory; ``csv_text`` and ``json_text`` join the same blocks into one
string. On a 50,001-sample sway3d this took the peak RSS (``wait4``)
of ``generate``, ``analyze`` and ``detect --playback`` from 64, 73 and
58 MB to 45, 53 and 53 MB, on 2 CPUs, and 512-row blocks (with the
package's malloc thresholds) to 38, 49 and 54 MB.

A CSV table of ``CSV_FORK_ROWS`` rows or more is rendered on two CPUs:
a forked child writes the second half of the rows, block by block, to
an unnamed temporary file while this process renders the first half,
then passes that file on in chunks. The text is byte-identical to a
serial rendering. Rendering stays serial where ``os.fork`` does not
exist, where the process may run on fewer than two CPUs, and while
another Python thread is alive; a child that fails has its half
rendered here instead. Threads that Python did not start, such as an
OpenBLAS worker, are not counted, and the child calls no BLAS.

The run config is a flat ``key = value`` text file with units spelled
out in key names (``speed_mps``, ``duration_s``). Unknown keys, and
keys that the subcommand or its mode does not read (``READS``), are
errors: a silently ignored key would invalidate a replication.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import threading
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .analysis import DEFAULT_TOLERANCE
from .detector import DetectorConfig
from .errors import ConfigError, InputShapeError
from .generators import CUSTOM_SAMPLES, KIND_FIELDS, KINDS, ScenarioConfig
from .kinematics import MIN_TRACK_SAMPLES, KinematicTrack, TimeGrid, unit_vector
from .observables import DEFAULT_GRAVITY

TRACK_HEADER = ["t", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az"]
# rows rendered at a time. A block's strings should fit in the one empty
# 1 MiB pymalloc arena CPython keeps, or each block maps and faults in
# arenas afresh: rendering one block of a timeline's 14 columns peaks
# at 6.8 MB under tracemalloc at 4096 rows, 0.86 MB at 512
CSV_BLOCK_ROWS = 512
# tables from this many rows are rendered by two processes; the split
# already paid at this floor: 8192 rows of one column, 10.2 ms -> 9.7 ms
# on 2 CPUs in a process holding 60 MB
CSV_FORK_ROWS = 8192
# bytes of the child's half read at a time. Each is decoded, and the
# writer encodes it again, so about three are held at once; at 64 KiB
# that stays near the ~0.2 MB of rendering one block of two columns
SPILL_CHUNK = 1 << 16
JSON_PIECES = 8192  # encoder pieces per chunk of JSON text, ~0.1 MB


def _create_beside(path: Path) -> Tuple[int, Path]:
    """A new file under a random name beside ``path``, created with mode
    0666 as ``open()`` creates one, so the kernel applies the umask: the
    umask can only be read by setting it, for every thread at once."""
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def _write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to a temp file beside ``path``, then
    rename it over ``path``. On any failure the temp file is removed and
    ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_beside(path)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (see ``_write_atomic``)."""
    _write_atomic(path, (text,))


def _csv_cells(col: np.ndarray) -> list:
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    return list(map(repr, col.tolist()))


def _csv_rows(cols, start: int, stop: int) -> Iterator[str]:
    """Text of rows [start, stop), one block of CSV_BLOCK_ROWS rows at a
    time: the per-cell strings of a whole table would take several times
    the memory of its text."""
    for lo in range(start, stop, CSV_BLOCK_ROWS):
        cells = [_csv_cells(col[lo:min(lo + CSV_BLOCK_ROWS, stop)]) for col in cols]
        yield "".join(",".join(row) + "\n" for row in zip(*cells))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_row(n: int) -> int:
    """The middle row of an n-row table, where a forked child takes
    over; 0 to render the table in this process."""
    if (n < CSV_FORK_ROWS or not hasattr(os, "fork")
            # fork copies only the calling thread, whatever locks the others hold
            or threading.active_count() > 1 or _usable_cpus() < 2):
        return 0
    return n // 2


def _spill_chunks(spill) -> Iterator[bytes]:
    spill.seek(0)
    return iter(lambda: spill.read(SPILL_CHUNK), b"")


def _csv_rows_forked(cols, mid: int, n: int) -> Iterator[str]:
    """Rows [0, mid) rendered here while a forked child writes rows
    [mid, n) into an unnamed file, which is then passed on in chunks of
    SPILL_CHUNK bytes; the tail is rendered here instead if the child
    cannot start, fails, or leaves a short file. Closing this generator
    early kills and reaps the child."""
    with tempfile.TemporaryFile(buffering=0) as spill:
        try:
            pid = os.fork()
        except OSError:
            yield from _csv_rows(cols, 0, n)
            return
        if pid == 0:
            # the child calls nothing public and never returns: os._exit
            # skips the parent's finally blocks, atexit hooks and buffers
            code = 1
            try:
                with open(spill.fileno(), "w", encoding="ascii", newline="",
                          closefd=False) as out:
                    out.writelines(_csv_rows(cols, mid, n))
                code = 0
            finally:
                os._exit(code)
        status = None
        try:
            yield from _csv_rows(cols, 0, mid)
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:  # interrupted: leave no child behind
                import signal  # not otherwise loaded by the CLI
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status == 0 and sum(c.count(b"\n") for c in _spill_chunks(spill)) == n - mid:
            for chunk in _spill_chunks(spill):
                yield chunk.decode("ascii")
            return
    yield from _csv_rows(cols, mid, n)


def _csv_columns(columns) -> Tuple[list, list]:
    """Names and float64 (or bool) arrays of a table, checked up front."""
    names = list(columns)
    n = len(columns[names[0]])
    cols = []
    for name, col in columns.items():
        if len(col) != n:
            raise InputShapeError(f"column {name!r} has mismatched length")
        col = np.asarray(col)
        cols.append(col if col.dtype == np.bool_ else col.astype(np.float64, copy=False))
    return names, cols


def _csv_chunks(names: list, cols: list) -> Iterator[str]:
    yield ",".join(names) + "\n"
    n = len(cols[0])
    mid = _fork_row(n)
    yield from _csv_rows_forked(cols, mid, n) if mid else _csv_rows(cols, 0, n)


def csv_text(columns) -> str:
    """Render named columns (same length) as CSV text, in the table's key
    order; bool columns become 0/1, all others shortest round-trip floats.
    Large tables are rendered by two processes at once (see above)."""
    return "".join(_csv_chunks(*_csv_columns(columns)))


def write_csv(path, columns) -> None:
    """Write ``csv_text(columns)`` to ``path`` block by block, never
    holding the whole text."""
    with closing(_csv_chunks(*_csv_columns(columns))) as chunks:
        _write_atomic(path, chunks)


def _read_header(reader, path) -> list:
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty CSV") from None
    for i, col in enumerate(header):
        if col in header[:i]:
            raise ConfigError(f"{path}:1: duplicate column {col!r}")
    return header


def _parse_body(handle, width: int) -> Optional[np.ndarray]:
    """The rest of ``handle`` through numpy's C parser, transposed to one
    row per column; None where that parser fails or may read otherwise
    than ``_read_csv_rows``: it skips blank lines, and warns on an empty
    body."""
    first = next(handle, "")
    if not first.strip():
        return None
    lines = 1

    def body():
        nonlocal lines
        yield first
        for lines, line in enumerate(handle, start=2):
            yield line

    try:
        table = np.loadtxt(body(), delimiter=",", comments=None, quotechar=None,
                           dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return table.T if table.shape == (lines, width) else None


def read_csv_columns(path) -> Dict[str, np.ndarray]:
    """Named float64 columns of a CSV whose first line is its header.

    The body is parsed by ``np.loadtxt``. Where that fails or could
    differ (a blank line, a ragged row, a quoted cell, ``1_0``, a
    non-ASCII digit), ``_read_csv_rows`` reads the file again: it accepts
    what ``float()`` accepts and names the line of any error.
    """
    with open(path, newline="") as handle:
        header = _read_header(csv.reader(handle), path)
        table = _parse_body(handle, len(header))
    if table is None:
        return _read_csv_rows(path)
    return dict(zip(header, table))


def _read_csv_rows(path) -> Dict[str, np.ndarray]:
    """The reference reader: ``csv.reader`` and ``float()``, row by row."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
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
    if n < MIN_TRACK_SAMPLES:  # every track's optics are differentiated
        raise ConfigError(f"{path}: a track needs at least {MIN_TRACK_SAMPLES} samples")
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
    stack = lambda prefix: np.array([cols[prefix + axis] for axis in "xyz"]).T
    return KinematicTrack(grid=grid, position=stack("p"), velocity=stack("v"),
                          acceleration=stack("a"), analytic=False)


def _json_chunks(payload: dict) -> Iterator[str]:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)`` and a
    newline, in chunks of JSON_PIECES of the encoder's pieces: one
    write per piece, a number or a bracket, costs more than the join."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    while chunk := "".join(islice(pieces, JSON_PIECES)):
        yield chunk
    yield "\n"


def json_text(payload: dict) -> str:
    return "".join(_json_chunks(payload))


def write_json(path, payload: dict) -> None:
    """Write ``json_text(payload)`` to ``path`` chunk by chunk, never
    holding the whole text."""
    with closing(_json_chunks(payload)) as chunks:
        _write_atomic(path, chunks)


# ---------------------------------------------------------------------------
# run config: flat key = value text
# ---------------------------------------------------------------------------

_FLOAT, _INT, _VEC3, _STR = "float", "int", "vec3", "str"
# where a value goes; the grid keys also sample a run that has no scenario
_SCENARIO, _DETECTOR = ("scenario",), ("detector",)
_TOLERANCE, _SLOPE, _OUTPUT = ("tolerance",), ("slope",), ("output",)

# each mode: the destinations it reads. "scenario" and "detector" fill
# those configs, every other destination fills ``RunConfig``. The track
# modes read a recorded track and --object in place of a scenario
READS = {
    "generate": ("scenario", "output"),
    "analyze": ("scenario", "tolerance", "output"),
    "analyze --track": ("tolerance", "output"),
    "detect": ("scenario", "detector", "output"),
    "detect --optics-from": ("detector", "output"),
    "slope": ("scenario", "slope", "output"),
}

CONFIG_KEYS = {  # key: (type, destinations, attribute)
    "kind": (_STR, _SCENARIO, "kind"),
    "duration_s": (_FLOAT, _SCENARIO + _SLOPE, "duration"),
    "sample_rate_hz": (_FLOAT, _SCENARIO + _SLOPE, "sample_rate"),
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
    "tolerance_rel": (_FLOAT, _TOLERANCE, "tolerance"),
    "flow_q_max_radps": (_FLOAT, _DETECTOR, "flow_q_max"),
    "scale_rel_std_max": (_FLOAT, _DETECTOR, "scale_rel_std_max"),
    "window_s": (_FLOAT, _DETECTOR, "window_s"),
    "fire_fraction": (_FLOAT, _DETECTOR, "fire_fraction"),
    "gravity_mps2": (_VEC3, _SLOPE, "gravity"),
    "support_normal": (_VEC3, _SLOPE, "support_normal"),
    "support_tilt_rad": (_FLOAT, _SLOPE, "support_tilt_rad"),
    "accel_mps2": (_VEC3, _SLOPE, "accel"),  # only for a run with no scenario
    "out_dir": (_STR, _OUTPUT, "out_dir"),
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
    gravity: np.ndarray = field(default_factory=DEFAULT_GRAVITY.copy)
    support_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    support_tilt_rad: float = 0.0
    accel: Optional[np.ndarray] = None
    out_dir: Optional[str] = None
    sample_rate: float = 100.0  # ``grid`` of a run without a scenario
    duration: float = 2.0

    def __post_init__(self):
        self.grid  # checks duration, sample_rate and the sample count
        unit_vector(self.support_normal, "support_normal")  # checks its length

    @property
    def grid(self) -> TimeGrid:  # 2: the fewest samples a TimeGrid holds
        return TimeGrid.spanning(self.duration, self.sample_rate, 2, "a run")


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


def load_run_config(path, command: str) -> RunConfig:
    """The run the config at ``path`` describes to ``command``, one of the
    ``READS`` modes, which must read every key the config holds. Unknown
    or duplicate keys are errors."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
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
    unread = [key for key in values
              if not any(d in READS[command] for d in CONFIG_KEYS[key][1])]
    if unread:
        raise ConfigError(f"{', '.join(map(repr, unread))} not read by '{command}'")
    kwargs = {"scenario": {}, "detector": {}, "run": {}}
    for key, value in values.items():
        _, destinations, attribute = CONFIG_KEYS[key]
        for destination in destinations:
            kwargs.get(destination, kwargs["run"])[attribute] = value
    scenario = _scenario(kwargs["scenario"], Path(path).parent)
    return RunConfig(scenario=scenario,
                     detector=DetectorConfig(**kwargs["detector"]), **kwargs["run"])
