"""Exception types shared across the package."""


class CrossArrayError(ValueError):
    """Base class for all errors raised by this package."""


class InputShapeError(CrossArrayError):
    """A series has the wrong length or dimensionality for the given grid."""


class InsufficientDataError(CrossArrayError):
    """Too few samples for the requested operation (differencing needs >= 3)."""


class ConfigError(CrossArrayError):
    """A scenario or run configuration is invalid or contains unknown keys."""


class DegenerateGeometryError(CrossArrayError):
    """The scene geometry is degenerate (object coincides with the trajectory)."""


class GridAlignmentError(CrossArrayError):
    """Two streams that must share a time grid do not."""
