import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossarray.errors import ConfigError
from crossarray.fileio import (_read_csv_rows, read_csv_columns, read_track_csv,
                               write_csv)

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
        path = _write(tmp_path, "t,px,py,pz,vx,vy,vz,ax,ay,az\n")
        assert all(len(col) == 0 for col in read_csv_columns(path).values())
        with pytest.raises(ConfigError) as exc:
            read_track_csv(path)
        assert str(exc.value) == f"{path}: a track needs at least 2 samples"


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
