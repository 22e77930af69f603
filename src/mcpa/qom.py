"""Quality-of-memory objective: frame counts, pilot overhead and GAE weighting.

The objective is QoM(p) = sum_k Theta_k(p) with
Theta_k = lambda_k * log2(1 + SINR_k) and
lambda_k = (1 - GAE_k) * T_eff * B / (Z_k * sum_j |D_j|).
:func:`log_rate` is the one place log2(1 + SINR) is computed; frame counts,
QoM terms and the pilot overhead read its rate block, and each function takes
a stack of rows (budgets, allocations) as readily as one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, RadioConstants, sinr_vector

__all__ = [
    "DatasetMeta",
    "PilotPhaseInfeasible",
    "log_rate",
    "frames_uploaded",
    "pilot_overhead",
    "qom_weights",
    "qom_terms",
    "qom_objective",
]


class PilotPhaseInfeasible(RuntimeError):
    """Pilot upload would consume the whole time budget (not dT < T)."""


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


def log_rate(state: ChannelState, p, noise_power_w: float) -> np.ndarray:
    """Spectral efficiency log2(1 + SINR_k(p)) in bit/s/Hz, one row per row of
    stacked powers ``(..., K)``: the rate block every formula below reads."""
    return np.log2(1.0 + sinr_vector(state, p, noise_power_w))


def frames_uploaded(rate, meta: DatasetMeta, time_s, bandwidth_hz: float) -> np.ndarray:
    """Continuous frame counts F_k = T B log2(1 + SINR_k) / Z_k, capped at |D_k|,
    from a :func:`log_rate` block ``rate``.

    The cap models the robot running out of data; the optimization objective
    itself works on the uncapped log-rate (see :func:`qom_objective`). ``time_s``
    may be an ``(M, 1)`` column, one time per row of an ``(M, K)`` block.
    """
    if (np.asarray(time_s) <= 0.0).any() or bandwidth_hz <= 0.0:
        raise ValueError("time_s and bandwidth_hz must be strictly positive")
    raw = time_s * bandwidth_hz * rate / meta.item_volume_bits
    return np.minimum(raw, meta.num_items)


def pilot_overhead(state: ChannelState, pilot_bits, constants: RadioConstants, p_sum):
    """Pilot upload time dT under equal power P_sum / K, max over robots.

    ``pilot_bits[k]`` is Z_k |D~_k|, the size of robot k's GAE pilot in bits.
    Every robot pilots in parallel at p_eq = P_sum / K, so the phase ends when
    the slowest robot finishes:
    dT = max_k Z_k |D~_k| / (B log2(1 + H_k p_eq / (sum_{j!=k} I_{k,j} p_eq + sigma^2))).

    A scalar ``p_sum`` gives a float, a ``(B,)`` vector one dT per budget, each
    bit for bit the scalar call; whether dT fits the time budget is the caller's.
    """
    k = state.num_robots
    p_eq = np.repeat(np.asarray(p_sum, dtype=float)[..., None] / k, k, axis=-1)
    rates = constants.bandwidth_hz * log_rate(state, p_eq, constants.noise_power_w)
    delta_t = (pilot_bits / rates).max(axis=-1)
    return float(delta_t) if delta_t.ndim == 0 else delta_t


def qom_weights(gae_scores, meta: DatasetMeta, effective_time_s,
                bandwidth_hz: float) -> np.ndarray:
    """lambda_k = (1 - GAE_k) * T_eff * B / (Z_k * sum_j |D_j|); a ``(B, 1)``
    column of effective times gives a ``(B, K)`` block, one row per time."""
    scores = np.asarray(gae_scores, dtype=float)
    if not ((scores >= 0.0) & (scores <= 1.0)).all():              # NaN fails too
        raise ValueError("GAE scores must lie in [0, 1]")
    times = np.asarray(effective_time_s, dtype=float)
    if not ((times > 0.0) & (times < np.inf)).all():
        raise ValueError("effective_time_s must be strictly positive and finite")
    return ((1.0 - scores) * times * bandwidth_hz
            / (meta.item_volume_bits * meta.total_items))


def qom_terms(weights, rate) -> np.ndarray:
    """Per-robot contributions Theta_k = lambda_k log2(1 + SINR_k), per row of a
    :func:`log_rate` block."""
    return weights * rate


def qom_objective(weights, state: ChannelState, p, noise_power_w: float) -> float:
    """QoM(p) = sum_k Theta_k(p); zero at p = 0 and whenever every weight is zero."""
    return float(qom_terms(weights, log_rate(state, p, noise_power_w)).sum())
