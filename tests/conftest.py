"""Shared instance generators for the test suite."""
import os
from pathlib import Path

import numpy as np

from mcpa.channel import ChannelState, RadioConstants, RobotGeometry, draw_channels
from mcpa.gae import MemoryItem
from mcpa.qom import DatasetMeta, qom_weights

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

NOISE_W = 1e-13
BUDGET_W = 0.2


def cli_env() -> dict:
    """Environment for a ``python -m mcpa.cli`` subprocess: ``src/`` leads
    PYTHONPATH, so the CLI imports this checkout even when not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def radio(num_antennas=256, bandwidth_hz=1e7):
    return RadioConstants(bandwidth_hz=bandwidth_hz, noise_power_w=NOISE_W,
                          ref_pathloss_linear=1e-3, shadow_fading_linear=1e-2,
                          pathloss_exponent=3.0, num_antennas=num_antennas)


def random_state(rng, num_robots=10, num_antennas=256, d_range=(50.0, 250.0)):
    """One drawn channel at reference constants."""
    d = rng.uniform(*d_range, size=num_robots)
    return draw_channels(radio(num_antennas), RobotGeometry(d), rng)


def orthogonal_state(gains) -> ChannelState:
    gains = np.asarray(gains, dtype=float)
    return ChannelState(gains=gains, interference=np.diag(gains))


def random_params(rng, num_robots=10, effective_time_s=550.0, zero_fraction=0.0):
    """GAE-derived weights at reference dataset scales."""
    gae = rng.uniform(0.0, 1.0, size=num_robots)
    if zero_fraction > 0.0:
        dead = rng.random(num_robots) < zero_fraction
        gae[dead] = 1.0
    meta = DatasetMeta.uniform(num_robots)
    return qom_weights(gae, meta, effective_time_s, 1e7)


def random_feasible(rng, num_robots=10, budget=BUDGET_W):
    """A strictly interior random point of the feasible set."""
    p = rng.dirichlet(np.ones(num_robots)) * budget * rng.uniform(0.1, 1.0)
    return p


def random_memory(rng, num_items=40, num_tags=8, num_robots=4, tag_pool=None):
    """A random tagged memory for GAE round-trip tests."""
    if tag_pool is None:
        tag_pool = [f"event-{i}" for i in range(num_tags)]
    items = []
    for i in range(num_items):
        count = int(rng.integers(0, 3))
        tags = frozenset(rng.choice(tag_pool, size=count, replace=False)) if count else frozenset()
        pose = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)),
                10.0, 0.0, 0.0, float(rng.uniform(-3.14, 3.14)))
        items.append(MemoryItem(timestamp_s=float(i), pose=pose, tags=tags,
                                robot_id=int(rng.integers(0, num_robots))))
    return items
