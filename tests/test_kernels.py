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
