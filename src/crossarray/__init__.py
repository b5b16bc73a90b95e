"""crossarray: distance and orientation invariants that span the senses.

Simulates a moving point of observation, projects its trajectory into
optical, inertial, and support streams, and evaluates the cross-stream
invariants that specify object distance, ground slope, and whether an
optical stream was produced live by this body's motion or replayed.

On glibc, importing the package fixes malloc's mmap threshold at 32 MiB
and its trim threshold at 64 MiB (see ``_keep_freed_heap``).
"""

import ctypes
import os

# glibc's mallopt parameters and the environment that already sets them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio glibc's own pair keeps
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
              "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _keep_freed_heap() -> None:
    """Keep up to TRIM_THRESHOLD of freed heap mapped, and serve blocks
    below MMAP_THRESHOLD from the heap.

    glibc's dynamic thresholds rise only to the largest block freed so
    far, about 2 MB for the arrays of a 40,001-sample run, so a run that
    drops its results hands ~20 MB back to the kernel and faults it in
    again on the next: 5,372 minor faults in each 25-34 ms pipeline call
    on a 2-CPU x86-64 host. Setting either threshold switches the
    dynamic pair off, so both are set. Nothing is done where mallopt is
    missing or where the environment already configures malloc.
    """
    if (any(name in os.environ for name in MALLOC_ENV)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no libc handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_heap()

from .analysis import (AccuracyReport, EstimatorAccuracy, accuracy,
                       exploration_summary, reach_judgment, timeline_table)
from .detector import (DetectionReport, DetectorConfig, detect,
                       VERDICT_INDETERMINATE, VERDICT_LIVE, VERDICT_SIMULATED)
from .errors import (ConfigError, CrossArrayError, DegenerateGeometryError,
                     GridAlignmentError, InputShapeError,
                     InsufficientDataError)
from .generators import (PlaybackPair, ScenarioConfig, generate,
                         make_playback)
from .invariants import (DistanceEstimateSeries, SlopeEstimate,
                         estimate_all, estimate_distance_3d, optics_only_ratio,
                         project_and_estimate, slope_invariant)
from .kinematics import (KinematicTrack, ScenePoint, TimeGrid,
                         as_differentiated, differentiate, from_positions)
from .observables import (InertialStream, OpticalStream, SupportStream,
                          constant_support, project_inertial, project_optics,
                          replay_optics, tilted_support)

__version__ = "0.1.0"
