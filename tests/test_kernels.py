import itertools

import numpy as np
import pytest

from crossarray import kernels


def naive_windowed_rel_std(x, valid, half, min_count):
    out = np.full(len(x), np.nan)
    for k in range(len(x)):
        window = [x[j] for j in range(max(0, k - half), min(len(x), k + half + 1))
                  if valid[j]]
        if len(window) >= min_count:
            mean = np.mean(window)
            std = np.std(window)
            if abs(mean) > 0:
                out[k] = std / abs(mean)
            elif std == 0:
                out[k] = 0.0
    return out


def gathered_windowed_rel_std(x, valid, half_width, min_count):
    """The spread kernel as index gathers: window sums ``c[hi] - c[lo]``
    taken at index arrays, with the same arithmetic as the kernel."""
    n = len(x)
    xv = np.where(valid, x, 0.0)
    c1 = np.concatenate(([0.0], np.cumsum(xv)))
    c2 = np.concatenate(([0.0], np.cumsum(xv * xv)))
    cn = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    k = np.arange(n)
    lo = np.maximum(k - half_width, 0)
    hi = np.minimum(k + half_width + 1, n)
    cnt = cn[hi] - cn[lo]
    s1 = c1[hi] - c1[lo]
    s2 = c2[hi] - c2[lo]
    out = np.full(n, np.nan)
    ok = cnt >= min_count
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(ok, s1 / np.maximum(cnt, 1), np.nan)
        var = np.where(ok, s2 / np.maximum(cnt, 1) - mean * mean, np.nan)
        var = np.where(var > 0.0, var, 0.0)
        std = np.sqrt(var)
        out = np.where(ok & (np.abs(mean) > 0.0), std / np.abs(mean), out)
        out = np.where(ok & (np.abs(mean) == 0.0) & (std == 0.0), 0.0, out)
    return out


@pytest.fixture
def random_inputs():
    rng = np.random.default_rng(321)
    return {
        "series": rng.normal(size=(400, 3)),
        "rel": rng.normal(size=(400, 3)) + 4.0,
        "vel": rng.normal(size=(400, 3)),
        "x": rng.normal(size=400) + 7.0,
        "valid": rng.random(400) > 0.25,
    }


class TestCross:
    def test_matches_numpy_bit_for_bit(self, random_inputs):
        rel, vel = random_inputs["rel"], random_inputs["vel"]
        assert np.array_equal(kernels.cross(rel, vel), np.cross(rel, vel))


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, -1e300,
           1.0, 3.0, np.nan, np.inf, -np.inf]
SPECIAL_ROWS = np.array(list(itertools.product(SPECIAL, repeat=3)))
UFUNCS = [np.add, np.subtract, np.multiply, np.divide]


def same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def special_vectors():
    """3-vectors drawn from SPECIAL, each value in every position."""
    k = len(SPECIAL)
    return [np.array([SPECIAL[i], SPECIAL[(i + 4) % k], SPECIAL[(i + 9) % k]])
            for i in range(k)]


class TestBroadcasts:
    """The call sites broadcast an (n, 3) series against a 3-vector or an
    (n,) series; on Fortran rows that keeps the order and the bits that
    the same broadcast gives on C-ordered rows."""

    @staticmethod
    def assert_layout_free(op, a, b):
        """``op`` of ``a`` and ``b`` in either order, with the (n, 3) ``a``
        in both layouts."""
        c_rows, f_rows = np.ascontiguousarray(a), np.asfortranarray(a)
        for got, want in ((op(f_rows, b), op(c_rows, b)), (op(b, f_rows), op(b, c_rows))):
            assert got.flags.f_contiguous and same_bits(got, want)

    @pytest.mark.parametrize("op", UFUNCS, ids=lambda op: op.__name__)
    def test_row_broadcast_keeps_the_layout_and_bits(self, op):
        with np.errstate(all="ignore"):
            for v in special_vectors():
                self.assert_layout_free(op, SPECIAL_ROWS, v[None, :])

    @pytest.mark.parametrize("op", UFUNCS, ids=lambda op: op.__name__)
    def test_column_broadcast_keeps_the_layout_and_bits(self, op):
        with np.errstate(all="ignore"):
            for shift in range(len(SPECIAL)):  # each row meets every value
                s = np.roll(np.resize(SPECIAL, len(SPECIAL_ROWS)), shift)
                self.assert_layout_free(op, SPECIAL_ROWS, s[:, None])


class TestPerAxisHelpers:
    """A helper that writes columns returns a new Fortran-ordered series."""

    def test_results_are_fresh_f_contiguous_arrays(self, random_inputs):
        got = kernels.cross(random_inputs["series"], random_inputs["rel"])
        assert got.flags.f_contiguous and got.flags.owndata


def same_values(got, want):
    """``same_bits`` but for the sign of a NaN, which numpy does not fix:
    ``x + y`` of two NaNs of opposite sign takes x's sign in its vector
    loop and y's in its scalar one."""
    numbers = ~np.isnan(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers])))


class TestRowDot:
    """``row_dot`` stands in for ``np.einsum("ij,ij->i")`` on C-ordered
    rows; these pin the numpy behaviour that its bits rest on."""

    @pytest.mark.parametrize("n", list(range(1, 71)) + [4097, 40001])
    def test_matches_einsum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3)) * rng.uniform(0.0, 1e3, size=(n, 3))
        b = rng.normal(size=(n, 3))
        a[rng.random(n) < 0.1] = -0.0  # einsum sums three -0.0 products to +0.0
        want = np.einsum("ij,ij->i", a, b)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert same_bits(kernels.row_dot(layout(a), layout(b)), want)

    def test_matches_einsum_on_every_special_value(self):
        a = SPECIAL_ROWS
        for shift in range(0, len(a), 97):  # each row meets other rows
            b = np.roll(a, shift, axis=0)
            # neither warns where a product overflows or is inf * 0
            assert same_values(kernels.row_dot(a, b), np.einsum("ij,ij->i", a, b))

    def test_warns_nowhere_einsum_does_not(self):
        # overflow, inf * 0, inf - inf and underflow
        a = np.array([[1e300, np.inf, 0.0], [np.inf, 1.0, -np.inf], [1e-300, 0.0, 0.0]])
        b = np.array([[1e300, 0.0, 1.0], [1.0, 1.0, 1.0], [1e-300, 1.0, 1.0]])
        with np.errstate(all="raise"):
            want = np.einsum("ij,ij->i", a, b)
            got = kernels.row_dot(a, b)
        assert same_values(got, want)


class TestRowNorm:
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_matches_numpy_bit_for_bit(self, random_inputs, scale):
        rows = random_inputs["series"] * scale
        assert np.array_equal(kernels.row_norm(rows), np.linalg.norm(rows, axis=1))

    def test_matches_numpy_on_every_special_value(self):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, -1e300,
                   1.0, 3.0, np.nan, np.inf, -np.inf]
        rows = np.array(list(itertools.product(special, repeat=3)))
        with np.errstate(over="ignore"):  # 1e300 squared overflows in both
            got, want = kernels.row_norm(rows), np.linalg.norm(rows, axis=1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWindowedSemantics:
    def test_matches_naive_oracle(self, random_inputs):
        x, valid = random_inputs["x"], random_inputs["valid"]
        got = kernels.windowed_rel_std(x, valid, 10, 3)
        want = naive_windowed_rel_std(x, valid, 10, 3)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) < 1e-10

    def test_sparse_validity_yields_nan(self):
        x = np.ones(50)
        valid = np.zeros(50, dtype=bool)
        valid[25] = True
        got = kernels.windowed_rel_std(x, valid, 3, 5)
        assert np.all(np.isnan(got))

    def test_identically_zero_window_is_consistent(self):
        x = np.zeros(50)
        valid = np.ones(50, dtype=bool)
        got = kernels.windowed_rel_std(x, valid, 5, 3)
        assert np.all(got == 0.0)


class TestWindowedBits:
    """The sliced window sums give the bits of the gathered ones."""

    @staticmethod
    def assert_same_bytes(x, valid, half_width, min_count):
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernels.windowed_rel_std(x, valid, half_width, min_count)
            want = gathered_windowed_rel_std(x, valid, half_width, min_count)
        assert got.tobytes() == want.tobytes(), (len(x), half_width, min_count)

    def test_seeded_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            half_width = int(rng.integers(0, 60))
            min_count = int(rng.integers(0, 2 * half_width + 4))
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 4) + rng.choice([0.0, 2.0, 1e4])
            x[rng.random(n) < 0.05] = 0.0
            valid = rng.random(n) < rng.uniform(0.0, 1.0)
            self.assert_same_bytes(x, valid, half_width, min_count)

    @pytest.mark.parametrize("n", [1, 2, 25, 26, 51, 52, 4001])
    def test_stream_against_window_width(self, n):
        # n <= half_width, n at and around 2 * half_width + 1, and longer
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 3.0
        self.assert_same_bytes(x, rng.random(n) > 0.2, 25, 5)

    def test_no_valid_sample(self):
        x = np.random.default_rng(1).normal(size=300)
        self.assert_same_bytes(x, np.zeros(300, dtype=bool), 10, 0)
        self.assert_same_bytes(x, np.zeros(300, dtype=bool), 10, 3)

    def test_all_zero_windows(self):
        x = np.zeros(300)
        x[200:] = np.random.default_rng(2).normal(size=100)
        self.assert_same_bytes(x, np.ones(300, dtype=bool), 10, 3)
        x[150:] = -0.0
        self.assert_same_bytes(x, np.ones(300, dtype=bool), 10, 3)

    def test_min_count_above_the_window_width(self):
        x = np.random.default_rng(3).normal(size=300) + 1.0
        out = kernels.windowed_rel_std(x, np.ones(300, dtype=bool), 10, 22)
        assert np.isnan(out).all()
        self.assert_same_bytes(x, np.ones(300, dtype=bool), 10, 22)

    def test_values_that_are_not_finite(self):
        x = np.random.default_rng(4).normal(size=300) + 2.0
        x[[40, 120, 121, 250]] = [np.inf, -np.inf, np.nan, 1e200]
        self.assert_same_bytes(x, np.ones(300, dtype=bool), 10, 3)
