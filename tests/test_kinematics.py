import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossarray import (InputShapeError, InsufficientDataError, KinematicTrack,
                        TimeGrid, differentiate)
from crossarray.kinematics import unit_vector


def grid(rate=100.0, n=201):
    return TimeGrid(sample_rate=rate, n_samples=n)


class TestTimeGrid:
    def test_times_are_exact_multiples(self):
        g = TimeGrid(sample_rate=100.0, n_samples=5, t0=1.0)
        assert np.array_equal(g.times(), 1.0 + np.arange(5) / 100.0)

    def test_rejects_bad_rate_and_count(self):
        with pytest.raises(InputShapeError):
            TimeGrid(sample_rate=0.0, n_samples=10)
        with pytest.raises(InsufficientDataError):
            TimeGrid(sample_rate=100.0, n_samples=1)


class TestKinematicTrack:
    @pytest.mark.parametrize("name", ["position", "velocity", "acceleration"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, name, bad):
        g = grid(n=10)
        series = {key: np.zeros((10, 3))
                  for key in ("position", "velocity", "acceleration")}
        series[name][4, 2] = bad
        with pytest.raises(InputShapeError, match=f"{name} must be finite; sample 4 "):
            KinematicTrack(grid=g, **series)


class TestDifferentiate:
    def test_constant_series_has_zero_derivative(self):
        g = grid(n=50)
        series = np.tile([1.0, 2.0, 3.0], (50, 1))
        assert np.max(np.abs(differentiate(series, g))) == 0.0

    def test_linear_position_gives_unit_velocity(self):
        g = grid()
        t = g.times()
        vel = differentiate(np.column_stack([t, 0 * t, 0 * t]), g)
        assert np.max(np.abs(vel[:, 0] - 1.0)) < 1e-9
        assert np.max(np.abs(vel[:, 1:])) < 1e-12

    def test_sine_error_shrinks_4x_when_rate_doubles(self):
        # oracle: d/dt sin = cos, evaluated in closed form
        errs = {}
        for rate in (100.0, 200.0):
            g = TimeGrid(sample_rate=rate, n_samples=int(2 * rate) + 1)
            t = g.times()
            deriv = differentiate(np.sin(t), g)
            errs[rate] = np.max(np.abs(deriv - np.cos(t)))
        ratio = errs[100.0] / errs[200.0]
        assert 3.5 <= ratio <= 4.5

    @settings(deadline=None, max_examples=25)
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**32 - 1))
    @example(a=4.648789051253253, b=4.94494769989716, seed=1)
    @example(a=5e-324, b=0.0, seed=0)
    def test_linearity(self, a, b, seed):
        g = grid(n=40)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(40, 3))
        h = rng.normal(size=(40, 3))
        lhs = differentiate(a * f + b * h, g)
        rhs = a * differentiate(f, g) + b * differentiate(h, g)
        # rounding scales with the terms, down to the subnormal spacing
        fi = np.finfo(np.float64)
        scale = np.max(np.abs(a * f) + np.abs(b * h))
        bound = 8 * (fi.eps * scale + fi.smallest_subnormal) / g.dt
        assert np.max(np.abs(lhs - rhs)) <= bound

    @settings(deadline=None, max_examples=25)
    @given(c2=st.floats(-3, 3), c1=st.floats(-3, 3), c0=st.floats(-3, 3))
    def test_quadratics_are_exact(self, c2, c1, c0):
        g = grid(n=30)
        t = g.times()
        deriv = differentiate(c2 * t * t + c1 * t + c0, g)
        assert np.max(np.abs(deriv - (2 * c2 * t + c1))) < 1e-9

    def test_length_mismatch_raises(self):
        with pytest.raises(InputShapeError):
            differentiate(np.zeros((10, 3)), grid(n=11))

    def test_too_few_samples_raises(self):
        with pytest.raises(InsufficientDataError):
            differentiate(np.zeros((2, 3)), TimeGrid(sample_rate=10.0, n_samples=2))


class TestUnitVector:
    def test_keeps_the_bits_of_dividing_by_the_norm(self):
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.uniform(-150, 150, size=(2000, 1))
        vectors = rng.normal(size=(2000, 3)) * scales
        vectors[::7, 1] = -0.0
        edges = np.array([[1.5e-154, 0.0, 0.0], [0.0, -1.3e154, 0.0]])
        for v in [*vectors, *edges]:
            want = v / np.linalg.norm(v)
            assert unit_vector(v, "v").tobytes() == want.tobytes()
