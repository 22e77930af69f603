"""Quality-of-memory objective: frame counts, pilot overhead and GAE weighting.

The objective is QoM(p) = sum_k Theta_k(p) with
Theta_k = lambda_k * log2(1 + SINR_k) and
lambda_k = (1 - GAE_k) * T_eff * B / (Z_k * sum_j |D_j|).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, RadioConstants, sinr_vector

__all__ = [
    "DatasetMeta",
    "PilotPhaseInfeasible",
    "frames_uploaded",
    "pilot_overhead",
    "qom_weights",
    "qom_terms",
    "qom_objective",
    "accuracy_estimate",
]


class PilotPhaseInfeasible(RuntimeError):
    """Pilot upload would consume the whole time budget (dT >= T)."""


@dataclass(frozen=True)
class DatasetMeta:
    """Per-robot dataset bookkeeping: item counts and item sizes."""

    num_items: np.ndarray
    item_volume_bits: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.num_items)
        whole = np.isfinite(counts) & (counts >= 1) & (np.floor(counts) == counts)
        if counts.ndim != 1 or counts.size < 1 or not whole.all():
            raise ValueError("num_items must be a 1-D array of whole item counts, "
                             "at least one per robot")
        volumes = np.asarray(self.item_volume_bits, dtype=float)
        if volumes.shape not in ((), counts.shape):
            raise ValueError(f"item_volume_bits must be scalar or length {counts.size}, "
                             f"got shape {volumes.shape}")
        if not (np.isfinite(volumes) & (volumes > 0.0)).all():     # NaN fails too
            raise ValueError("item_volume_bits must be strictly positive and finite")
        object.__setattr__(self, "num_items", counts.astype(int))
        object.__setattr__(self, "item_volume_bits", np.full(counts.shape, volumes))

    @classmethod
    def uniform(cls, num_robots: int, num_items: int = 1050,
                item_volume_bits: float = 1.6e6) -> "DatasetMeta":
        return cls(np.full(num_robots, num_items), item_volume_bits)

    @property
    def total_items(self) -> int:
        return int(self.num_items.sum())


def frames_uploaded(state: ChannelState, p, meta: DatasetMeta, noise_power_w: float,
                    time_s: float, bandwidth_hz: float) -> np.ndarray:
    """Continuous frame counts F_k = T B log2(1 + SINR_k) / Z_k, capped at |D_k|.

    The cap models the robot running out of data; the optimization objective
    itself works on the uncapped log-rate (see :func:`qom_objective`). Stacked
    powers ``(..., K)`` give one row each.
    """
    if time_s <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("time_s and bandwidth_hz must be strictly positive")
    sinr = sinr_vector(state, p, noise_power_w)
    raw = time_s * bandwidth_hz * np.log2(1.0 + sinr) / meta.item_volume_bits
    return np.minimum(raw, meta.num_items)


def pilot_overhead(state: ChannelState, pilot_bits, constants: RadioConstants,
                   p_sum: float, time_budget_s: float | None = None) -> float:
    """Pilot upload time dT under equal power P_sum / K, max over robots.

    ``pilot_bits[k]`` is Z_k |D~_k|, the size of robot k's GAE pilot in bits.
    Every robot pilots in parallel at p_eq = P_sum / K, so the phase ends when
    the slowest robot finishes:
    dT = max_k Z_k |D~_k| / (B log2(1 + H_k p_eq / (sum_{j!=k} I_{k,j} p_eq + sigma^2))).

    If ``time_budget_s`` is given and dT >= T (or dT is NaN) the pilot phase
    cannot complete and :class:`PilotPhaseInfeasible` is raised.
    """
    k = state.num_robots
    p_eq = np.full(k, p_sum / k)
    rates = constants.bandwidth_hz * np.log2(
        1.0 + sinr_vector(state, p_eq, constants.noise_power_w))
    per_robot = pilot_bits / rates
    delta_t = float(per_robot.max())
    if time_budget_s is not None and not delta_t < time_budget_s:
        raise PilotPhaseInfeasible(
            f"pilot phase needs {delta_t:.3f} s but the time budget is {time_budget_s:.3f} s")
    return delta_t


def qom_weights(gae_scores, meta: DatasetMeta, effective_time_s: float,
                bandwidth_hz: float) -> np.ndarray:
    """lambda_k = (1 - GAE_k) * T_eff * B / (Z_k * sum_j |D_j|)."""
    scores = np.asarray(gae_scores, dtype=float)
    if not ((scores >= 0.0) & (scores <= 1.0)).all():              # NaN fails too
        raise ValueError("GAE scores must lie in [0, 1]")
    if not 0.0 < effective_time_s < np.inf:
        raise ValueError("effective_time_s must be strictly positive and finite")
    return ((1.0 - scores) * effective_time_s * bandwidth_hz
            / (meta.item_volume_bits * meta.total_items))


def qom_terms(weights, state: ChannelState, p, noise_power_w: float) -> np.ndarray:
    """Per-robot contributions Theta_k(p) = lambda_k log2(1 + SINR_k(p)), per row of ``p``."""
    return weights * np.log2(1.0 + sinr_vector(state, p, noise_power_w))


def qom_objective(weights, state: ChannelState, p, noise_power_w: float) -> float:
    """QoM(p) = sum_k Theta_k(p); zero at p = 0 and whenever every weight is zero."""
    return float(qom_terms(weights, state, p, noise_power_w).sum())


def accuracy_estimate(gae_scores, frames, meta: DatasetMeta, base_accuracy: float) -> float:
    """Model-predicted answer accuracy for a given upload outcome.

    base + sum_k (1 - GAE_k) F_k / sum_j |D_j|, clamped to [0, 1].
    """
    f = np.asarray(frames, dtype=float)
    gain = float(np.sum((1.0 - np.asarray(gae_scores, dtype=float)) * f) / meta.total_items)
    return float(np.clip(base_accuracy + gain, 0.0, 1.0))
