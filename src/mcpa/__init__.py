"""Memory-centric power allocation for multi-agent embodied QA."""

from .baselines import (allocate_fairness, allocate_greedy, allocate_max_cov,
                        allocate_remember, allocate_uniform)
from .channel import (ChannelState, RadioConstants, RobotGeometry,
                      draw_channels, sinr_vector)
from .config import ConfigError, Scenario, build_scenario, load_config
from .gae import (Exam, FrameStore, GaeReport, MemoryIndex, Question,
                  SyntheticBackend, generate_exam, practice_test, run_gae,
                  sample_pilot)
from .harness import RunMetrics, run_campaign, run_sweep, write_csv
from .qom import (DatasetMeta, PilotPhaseInfeasible, accuracy_estimate, frames_uploaded,
                  pilot_overhead, qom_objective, qom_terms, qom_weights)
from .solver import (SolveTrace, SolverOptions, SurrogateContext, solve_mcpa,
                     waterfill)

__version__ = "0.1.0"
