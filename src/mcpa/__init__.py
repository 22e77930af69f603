"""Memory-centric power allocation for multi-agent embodied QA."""

from .channel import RadioConstants, RobotGeometry, draw_channels
from .config import build_scenario
from .harness import run_campaign
from .qom import DatasetMeta, qom_weights
from .solver import solve_mcpa, waterfill

__version__ = "0.1.0"
