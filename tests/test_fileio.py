import errno
import io
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossarray import fileio
from crossarray.errors import ConfigError
from crossarray.fileio import (CSV_BLOCK_ROWS, CSV_FORK_ROWS, _read_csv_rows, csv_text,
                               read_csv_columns, read_track_csv, write_csv)

HEADER = "t,px,py\n"
ROWS = "0.0,1.0,2.0\n0.5,1.5,2.5\n1.0,2.0,3.0\n"


def _write(tmp_path, text, name="track.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def _bits(columns):
    return {name: col.view(np.int64).tolist() for name, col in columns.items()}


class TestErrors:
    @pytest.mark.parametrize("text, message", [
        (HEADER + "0.0,1.0,2.0\n0.5,1.5\n1.0,2.0,3.0\n", ":3: expected 3 fields, got 2"),
        (HEADER + "0.0,1.0,2.0\n0.5,1.5,2.5,9\n", ":3: expected 3 fields, got 4"),
        (HEADER + "0.0,1.0,2.0\n0.5,x1,2.5\n", ":3: non-numeric value 'x1' in column 'px'"),
        (HEADER + "0.0,1.0,2.0\n\n0.5,1.5,2.5\n", ":3: expected 3 fields, got 0"),
        (HEADER + ROWS + "\n", ":5: expected 3 fields, got 0"),
        (HEADER + "\n", ":2: expected 3 fields, got 0"),
        (HEADER + ROWS + "1.5,,3.5\n", ":5: non-numeric value '' in column 'px'"),
        ("", ": empty CSV"),
        ("t,px,t\n0,1,2\n", ":1: duplicate column 't'"),
    ], ids=["short-row", "long-row", "non-numeric", "blank-mid", "blank-end",
            "blank-only", "empty-cell", "empty-file", "duplicate"])
    def test_message_names_the_line(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        for reader in (read_csv_columns, _read_csv_rows):
            with pytest.raises(ConfigError) as exc:
                reader(path)
            assert str(exc.value) == f"{path}{message}"

    def test_header_only_track_needs_two_samples(self, tmp_path):
        header = "t,px,py,pz,vx,vy,vz,ax,ay,az\n"
        path = _write(tmp_path, header)
        assert all(len(col) == 0 for col in read_csv_columns(path).values())
        two_rows = _write(tmp_path, header + "0,0,0,0,1,0,0,0,0,0\n"
                          "0.01,0.01,0,0,1,0,0,0,0,0\n", "two.csv")
        for short in (path, two_rows):
            with pytest.raises(ConfigError) as exc:
                read_track_csv(short)
            assert str(exc.value) == f"{short}: a track needs at least 3 samples"


class TestAccepted:
    @pytest.mark.parametrize("body", [
        ROWS.replace("\n", "\r\n"),
        '"0.0",1.0,2.0\n0.5,"1.5",2.5\n',
        "0_0,1_0,2.0\n",
        "٠.5,١,2.0\n",
        " 0.0 ,\t1.0,2.0 \n0.5,1.5,2.5",
    ], ids=["crlf", "quoted", "underscore", "arabic-indic-digits", "spaces-no-eol"])
    def test_reads_what_float_reads(self, tmp_path, body):
        path = _write(tmp_path, HEADER + body)
        lines = body.replace("\r\n", "\n").splitlines()
        expected = np.array([[float(cell.strip('"')) for cell in line.split(",")]
                             for line in lines])
        got = read_csv_columns(path)
        assert list(got) == ["t", "px", "py"]
        for j, name in enumerate(got):
            assert got[name].dtype == np.float64
            assert got[name].tolist() == expected[:, j].tolist()
        assert _bits(got) == _bits(_read_csv_rows(path))


EDGE_VALUES = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e308]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(EDGE_VALUES))


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(floats, min_size=width, max_size=width),
                           min_size=1, max_size=30)))
def test_round_trip_is_bit_identical(tmp_path_factory, columns):
    table = np.array(columns, dtype=np.float64)
    cols = {f"c{j}": table[:, j] for j in range(table.shape[1])}
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, cols)
    got = read_csv_columns(path)
    assert list(got) == list(cols)
    for name, col in cols.items():
        nan = np.isnan(col)
        assert np.array_equal(np.isnan(got[name]), nan)
        assert got[name][~nan].view(np.int64).tolist() == col[~nan].view(np.int64).tolist()
    assert _bits(got) == _bits(_read_csv_rows(path))


def _large_table(n=CSV_FORK_ROWS + CSV_BLOCK_ROWS // 2 + 3):
    """Three columns of n rows (not a block multiple by default), with every
    edge value in both halves of the table."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    x[::97] = np.resize(EDGE_VALUES, len(x[::97]))
    return {"x": x, "y": -x[::-1], "flag": x > 0}


def _row_by_row(table):
    lines = [",".join(table)]
    for row in zip(*(col.tolist() for col in table.values())):
        lines.append(",".join(str(int(v)) if isinstance(v, bool) else repr(v) for v in row))
    return "\n".join(lines) + "\n"


class Interrupt(BaseException):
    pass


CHILD_FAILURES = ["raises", "killed", "short", "full-then-raises", "no-fork"]


def _fail_child(monkeypatch, failure):
    """The forked child raises, is killed mid-spill, exits 0 one row
    short, or spills all its rows as wrong text and then raises; or fork
    itself fails. The parent renders as usual."""
    parent = os.getpid()
    real_rows = fileio._csv_rows

    def rows(cols, start, stop):
        if os.getpid() == parent:
            yield from real_rows(cols, start, stop)
        elif failure == "raises":
            raise RuntimeError("the child fails")
        elif failure == "killed":
            yield next(real_rows(cols, start, stop))
            os.kill(os.getpid(), signal.SIGKILL)
        elif failure == "full-then-raises":
            # a spill of full length, from a child that exits 1
            yield "wrong\n" * (stop - start)
            raise RuntimeError("the child fails after its last row")
        else:  # exits 0, one row short
            yield from real_rows(cols, start, stop - 1)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(fileio, "_csv_rows", rows)
    if failure == "no-fork":
        monkeypatch.setattr(os, "fork", no_fork)


def _interrupt_parent(monkeypatch):
    """The parent's rows raise Interrupt while the child would run for 20 s."""
    parent = os.getpid()

    def rows(cols, start, stop):
        if os.getpid() != parent:
            time.sleep(20)
        raise Interrupt
        yield

    monkeypatch.setattr(fileio, "_csv_rows", rows)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Calls of os.fork, counted; rendering sees two usable CPUs."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(fileio, "_usable_cpus", lambda: 2)
    return calls


class TestForkedRender:
    def test_split_table_matches_a_row_by_row_rendering(self, forks):
        table = _large_table()
        assert csv_text(table) == _row_by_row(table)
        assert len(forks) == 1
        _assert_no_child_left()
        assert fileio._fork_row(50_001) == 25_000  # the middle row, not a block edge

    @pytest.mark.parametrize("case", ["thread", "one-cpu", "small"])
    def test_serial_cases_do_not_fork(self, monkeypatch, forks, case):
        table = _large_table(CSV_FORK_ROWS - 1 if case == "small" else CSV_FORK_ROWS)
        if case == "one-cpu":
            monkeypatch.setattr(fileio, "_usable_cpus", lambda: 1)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        if case == "thread":
            thread.start()
        try:
            text = csv_text(table)
        finally:
            release.set()
            if case == "thread":
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert forks == []
        assert text == _row_by_row(table)

    @pytest.mark.parametrize("failure", CHILD_FAILURES)
    def test_failed_child_gives_the_same_bytes_and_is_reaped(self, monkeypatch, forks,
                                                             failure):
        _fail_child(monkeypatch, failure)
        table = _large_table()
        assert csv_text(table) == _row_by_row(table)
        assert len(forks) == (0 if failure == "no-fork" else 1)
        _assert_no_child_left()

    @pytest.mark.parametrize("failure", CHILD_FAILURES)
    def test_failed_child_writes_the_same_file(self, tmp_path, monkeypatch, forks,
                                               failure):
        _fail_child(monkeypatch, failure)
        table = _large_table()
        write_csv(tmp_path / "table.csv", table)
        assert (tmp_path / "table.csv").read_bytes() == _row_by_row(table).encode()
        assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]
        assert len(forks) == (0 if failure == "no-fork" else 1)
        _assert_no_child_left()

    def test_interrupted_parent_kills_and_reaps_its_child(self, monkeypatch, forks):
        _interrupt_parent(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(Interrupt):
            csv_text(_large_table())
        assert time.perf_counter() - start < 10  # killed, not waited for
        assert len(forks) == 1
        _assert_no_child_left()

    def test_interrupted_write_leaves_no_child_and_no_file(self, tmp_path, monkeypatch,
                                                           forks):
        _interrupt_parent(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(Interrupt):
            write_csv(tmp_path / "table.csv", _large_table())
        assert time.perf_counter() - start < 10
        assert len(forks) == 1
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    def test_failed_write_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks):
        parent = os.getpid()
        real_rows = fileio._csv_rows

        def rows(cols, start, stop):
            if os.getpid() != parent:
                time.sleep(20)
            yield from real_rows(cols, start, stop)

        class FullDisk(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fdopen(fd, mode, **kwargs):
            os.close(fd)
            return io.TextIOWrapper(io.BufferedWriter(FullDisk()), **kwargs)

        monkeypatch.setattr(fileio, "_csv_rows", rows)
        monkeypatch.setattr(os, "fdopen", fdopen)
        start = time.perf_counter()
        with pytest.raises(OSError, match="No space left") as failure:
            write_csv(tmp_path / "table.csv", _large_table())
        assert time.perf_counter() - start < 10  # the stream was closed, not drained
        assert len(forks) == 1
        assert list(tmp_path.iterdir()) == []
        # reaped before the error left write_csv, though its traceback lives on
        _assert_no_child_left()
        assert failure.traceback


class TestUmask:
    def test_writes_never_set_the_umask(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it to read it would give a
        # file that another thread creates meanwhile the wrong mode
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        write_csv(tmp_path / "table.csv", {"x": np.arange(3.0)})
        fileio.write_json(tmp_path / "report.json", {"x": 1})
        assert (tmp_path / "table.csv").read_text() == "x\n0.0\n1.0\n2.0\n"
        assert (tmp_path / "report.json").read_text() == '{\n  "x": 1\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.csv"]


class TestStreamedWrite:
    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "serial"])
    def test_peak_memory_does_not_grow_with_the_table(self, tmp_path, monkeypatch,
                                                      forks, cpus):
        # the text of 40,001 rows is 1.6 MB, four times that of 10,001: a
        # writer holding the whole text peaks four times as high. The
        # child's half is copied one spill chunk at a time, so a chunk
        # smaller than that half lets these tables show the bound
        monkeypatch.setattr(fileio, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(fileio, "SPILL_CHUNK", 1 << 16)
        rng = np.random.default_rng(3)
        peaks = []
        for n in (10_001, 40_001):
            table = {"x": rng.normal(size=n), "y": rng.normal(size=n)}
            tracemalloc.start()
            try:
                write_csv(tmp_path / "table.csv", table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(forks) == (2 if cpus == 2 else 0)
        _assert_no_child_left()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_forked_write_peaks_as_the_serial_one(self, tmp_path, monkeypatch, forks):
        # the child's half is decoded chunk by chunk and the writer encodes
        # it again; with 1 MB spill chunks a forked write peaked here at
        # 2.96 MB, against 1.38 MB serial
        rng = np.random.default_rng(3)
        table = {"x": rng.normal(size=50_001), "y": rng.normal(size=50_001)}
        peaks = {}
        for cpus in (2, 1):
            monkeypatch.setattr(fileio, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                write_csv(tmp_path / f"{cpus}.csv", table)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(forks) == 1
        _assert_no_child_left()
        assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
        assert peaks[2] <= peaks[1] + 0.25e6, peaks
