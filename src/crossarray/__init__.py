"""crossarray: distance and orientation invariants that span the senses.

Simulates a moving point of observation, projects its trajectory into
optical, inertial, and support streams, and evaluates the cross-stream
invariants that specify object distance, ground slope, and whether an
optical stream was produced live by this body's motion or replayed.
"""

from .analysis import (AccuracyReport, EstimatorAccuracy, ExplorationSummary,
                       ReachJudgment, accuracy, accuracy_from_timeline,
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
                         as_differentiated, differentiate, from_positions,
                         resample)
from .observables import (InertialStream, OpticalStream, SupportStream,
                          constant_support, project_inertial, project_optics,
                          replay_optics, tilted_support)

__version__ = "0.1.0"
