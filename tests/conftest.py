import warnings

import pytest

# On a failing property, hypothesis's pytest plugin imports this module for
# its patch hint, and the import warns (libcst uses the deprecated
# mypy_extensions.TypedDict). Under filterwarnings = error that warning would
# end the run in INTERNALERROR instead of printing the falsifying example, so
# the module is imported once here, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from crossarray import generate
from crossarray.demo import demo_scenarios, sway3d_suite


@pytest.fixture(scope="session")
def canonical():
    """Canonical scenario configs keyed by family name."""
    return demo_scenarios()


@pytest.fixture(scope="session")
def canonical_tracks(canonical):
    return {name: generate(cfg) for name, cfg in canonical.items()}


@pytest.fixture(scope="session")
def sway_suite():
    return sway3d_suite()


@pytest.fixture
def rect_cfg(canonical):
    return canonical["rectilinear"]


@pytest.fixture
def orbit_cfg(canonical):
    return canonical["tangential_orbit"]


@pytest.fixture
def sway3d_cfg(canonical):
    return canonical["sway3d"]


@pytest.fixture
def planar_cfg(canonical):
    return canonical["planar_sway"]
