from dataclasses import fields

import numpy as np

from crossarray.demo import SUITE_DRAWS, SUITE_SEED, sway3d_suite
from crossarray.generators import ScenarioConfig


def _seeded_draws(i):
    """What the sway suite drew for scenario i before it was a table."""
    rng = np.random.default_rng(SUITE_SEED + i)
    return (rng.uniform(0.02, 0.08, 3), rng.uniform(0.3, 1.2, 3),
            rng.uniform(0.0, 2.0 * np.pi, 3), rng.uniform(1.0, 2.5),
            rng.uniform(-0.6, 0.6), rng.uniform(-0.2, 0.2))


def _bits(value):
    if isinstance(value, (str, type(None))):
        return value
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


class TestSwaySuiteTable:
    def test_every_row_holds_the_seeded_draws(self):
        assert len(SUITE_DRAWS) == 10
        for i, row in enumerate(SUITE_DRAWS):
            assert [np.float64(v).tobytes() for v in np.hstack(row)] == [
                v.tobytes() for v in np.hstack(_seeded_draws(i))], i

    def test_suite_equals_the_configs_of_the_seeded_draws(self):
        suite = sway3d_suite()
        assert len(suite) == len(SUITE_DRAWS)
        for i, cfg in enumerate(suite):
            amplitude, frequency, phase, distance, azimuth, height = _seeded_draws(i)
            want = ScenarioConfig(
                kind="sway3d", duration=4.0, sample_rate=100.0,
                amplitude=amplitude, frequency=frequency, phase=phase,
                object_position=np.array([distance * np.cos(azimuth),
                                          distance * np.sin(azimuth), height]),
                rng_seed=SUITE_SEED + i)
            for field in fields(ScenarioConfig):
                assert _bits(getattr(cfg, field.name)) == _bits(
                    getattr(want, field.name)), (i, field.name)
