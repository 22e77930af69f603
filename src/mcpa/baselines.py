"""Comparison allocators sharing the same feasible set as the MCPA solver.

MaxCov and Greedy size their power requests assuming zero interference (both
are defined channel-blind / coverage-greedy); achieved rates downstream are
always evaluated with full interference, so the metrics stay honest.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelState
from .qom import DatasetMeta, PowerVector, QomParams

__all__ = [
    "BASELINE_KINDS",
    "BaselineSpec",
    "unit_rate_params",
    "allocate_fairness",
    "allocate_greedy",
    "allocate_max_cov",
    "allocate_remember",
    "allocate_uniform",
]

BASELINE_KINDS = ("max_rate", "max_cov", "fairness", "greedy", "remember", "uniform")


@dataclass(frozen=True)
class BaselineSpec:
    """Which baseline to run plus its kind-specific options."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "max_cov":
            threshold = self.options.get("rate_threshold_bps")
            if threshold is not None and not np.all(np.asarray(threshold) > 0.0):
                raise ValueError("max_cov rate_threshold_bps must be positive")
        if self.kind == "fairness":
            tol = self.options.get("tol", 1e-4)
            if not tol > 0.0:
                raise ValueError("fairness tol must be positive")


def unit_rate_params(num_robots: int) -> QomParams:
    """Sum-log-rate weighting: lambda_k = 1 for every robot."""
    return QomParams(weights=np.ones(num_robots), effective_time_s=1.0,
                     gae_scores=np.zeros(num_robots))


def _fairness_fixed_point(state: ChannelState, target_sinr: float, budget: float,
                          noise_power_w: float, max_iter: int = 30000):
    """Standard power-control update p <- gamma (I_offdiag p + s2) / H from
    zero. Returns the fixed point if it converges within budget, else None.
    The iteration is monotone from zero, so crossing the budget proves the
    target infeasible."""
    offdiag = state.interference.copy()
    np.fill_diagonal(offdiag, 0.0)
    p = np.zeros(state.num_robots)
    for _ in range(max_iter):
        p_new = target_sinr * (offdiag @ p + noise_power_w) / state.gains
        if p_new.sum() > budget:
            return None
        if np.max(np.abs(p_new - p)) <= 1e-12 * (1.0 + np.max(p_new)):
            return p_new
        p = p_new
    return None


def allocate_fairness(state: ChannelState, budget: float, noise_power_w: float,
                      tol: float = 1e-4) -> PowerVector:
    """Max-min rate via bisection on a common SINR target gamma.

    gamma is feasible iff the fixed point of the standard power-control
    update converges with sum p <= budget; the returned allocation is the
    fixed point at the largest feasible gamma (interval width <= tol * gamma).
    """
    k = state.num_robots
    best = np.zeros(k)
    # ignoring interference each user needs gamma s2 / H, so this gamma
    # saturates the budget and everything feasible lies below it
    hi = budget / (noise_power_w * np.sum(1.0 / state.gains))
    lo = 0.0
    for _ in range(60):
        candidate = _fairness_fixed_point(state, hi, budget, noise_power_w)
        if candidate is None:
            break
        best, lo = candidate, hi
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        candidate = _fairness_fixed_point(state, mid, budget, noise_power_w)
        if candidate is None:
            hi = mid
        else:
            best, lo = candidate, mid
    return PowerVector(best, budget)


def allocate_greedy(state: ChannelState, gae_scores, meta: DatasetMeta, budget: float,
                    noise_power_w: float, time_s: float, bandwidth_hz: float) -> PowerVector:
    """Highest-novelty-first: fund full uploads in (1 - GAE_k) order.

    Each robot in turn gets the zero-interference power needed to push its
    whole dataset within ``time_s``, capped by whatever budget remains;
    robots after the budget runs out get nothing.
    """
    scores = np.asarray(gae_scores, dtype=float)
    order = np.argsort(scores, kind="stable")  # ascending GAE = descending novelty
    spectral = meta.item_volume_bits * meta.num_items / (time_s * bandwidth_hz)
    with np.errstate(over="ignore"):
        required = noise_power_w * (np.exp2(spectral) - 1.0) / state.gains
    powers = np.zeros(state.num_robots)
    remaining = budget
    for k in order:
        give = min(required[k], remaining)
        powers[k] = give
        remaining -= give
        if remaining <= 0.0:
            break
    return PowerVector(powers, budget)


def allocate_max_cov(state: ChannelState, budget: float, noise_power_w: float,
                     rate_threshold_bps, bandwidth_hz: float) -> PowerVector:
    """Admit as many robots as possible at a target rate.

    Computes each robot's zero-interference power for the threshold rate,
    sorts ascending and admits greedily until the budget is exhausted;
    admitted robots get exactly their required power.
    """
    threshold = np.broadcast_to(np.asarray(rate_threshold_bps, dtype=float),
                                (state.num_robots,))
    if np.any(threshold <= 0.0):
        raise ValueError("rate_threshold_bps must be positive")
    with np.errstate(over="ignore"):
        required = noise_power_w * (np.exp2(threshold / bandwidth_hz) - 1.0) / state.gains
    powers = np.zeros(state.num_robots)
    remaining = budget
    for k in np.argsort(required, kind="stable"):
        if required[k] > remaining:
            break
        powers[k] = required[k]
        remaining -= required[k]
    return PowerVector(powers, budget)


def allocate_remember(num_robots: int, budget: float) -> PowerVector:
    """No aggregation at all: every robot stays silent."""
    return PowerVector.zeros(num_robots, budget)


def allocate_uniform(num_robots: int, budget: float) -> PowerVector:
    """Even split reference point."""
    return PowerVector.uniform(num_robots, budget)
