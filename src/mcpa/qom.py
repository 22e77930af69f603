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
    "QomParams",
    "PowerVector",
    "PilotPhaseInfeasible",
    "frames_uploaded",
    "pilot_overhead",
    "qom_weights",
    "qom_terms",
    "qom_objective",
    "accuracy_estimate",
    "round_half_up",
]


class PilotPhaseInfeasible(RuntimeError):
    """Pilot upload would consume the whole time budget (dT >= T)."""


def round_half_up(x: float) -> int:
    """Round to nearest integer with halves going up (0.5 -> 1, 10.5 -> 11)."""
    return int(np.floor(x + 0.5))


def _broadcast(values, k: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(k, float(arr))
    if arr.shape != (k,):
        raise ValueError(f"{name} must be scalar or length {k}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DatasetMeta:
    """Per-robot dataset bookkeeping: item counts, item size and pilot ratio."""

    num_items: np.ndarray
    item_volume_bits: np.ndarray
    pilot_ratio: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.num_items)
        k = counts.size
        if k < 1 or np.any(counts < 1):
            raise ValueError("num_items must hold at least one item per robot")
        volumes = _broadcast(self.item_volume_bits, k, "item_volume_bits")
        ratios = _broadcast(self.pilot_ratio, k, "pilot_ratio")
        if np.any(volumes <= 0.0):
            raise ValueError("item_volume_bits must be strictly positive")
        if np.any(ratios <= 0.0) or np.any(ratios > 1.0):
            raise ValueError("pilot_ratio must lie in (0, 1]")
        object.__setattr__(self, "num_items", counts.astype(int))
        object.__setattr__(self, "item_volume_bits", volumes)
        object.__setattr__(self, "pilot_ratio", ratios)

    @classmethod
    def uniform(cls, num_robots: int, num_items: int = 1050,
                item_volume_bits: float = 1.6e6, pilot_ratio: float = 0.01) -> "DatasetMeta":
        return cls(np.full(num_robots, num_items), item_volume_bits, pilot_ratio)

    @property
    def num_robots(self) -> int:
        return self.num_items.size

    @property
    def total_items(self) -> int:
        return int(self.num_items.sum())

    @property
    def pilot_counts(self) -> np.ndarray:
        """Pilot sizes |D~_k| = round(rho_k |D_k|), at least one item each."""
        raw = self.pilot_ratio * self.num_items
        return np.maximum(1, np.floor(raw + 0.5).astype(int))


@dataclass(frozen=True)
class PowerVector:
    """Candidate uplink allocation p with its sum-power budget."""

    powers: np.ndarray
    budget: float

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("powers must be a nonempty 1-D array")
        if np.any(p < 0.0):
            raise ValueError("powers must be nonnegative")
        if p.sum() > self.budget * (1.0 + 1e-9):
            raise ValueError(
                f"sum power {p.sum():.6g} exceeds budget {self.budget:.6g}")
        object.__setattr__(self, "powers", p)

    @property
    def num_robots(self) -> int:
        return self.powers.size

    @classmethod
    def uniform(cls, num_robots: int, budget: float) -> "PowerVector":
        return cls(np.full(num_robots, budget / num_robots), budget)

    @classmethod
    def zeros(cls, num_robots: int, budget: float) -> "PowerVector":
        return cls(np.zeros(num_robots), budget)


@dataclass(frozen=True)
class QomParams:
    """QoM weights lambda_k plus the inputs they were derived from."""

    weights: np.ndarray
    effective_time_s: float
    gae_scores: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        g = np.asarray(self.gae_scores, dtype=float)
        if w.shape != g.shape:
            raise ValueError("weights and gae_scores must have matching shapes")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if np.any((w == 0.0) != (g == 1.0)):
            raise ValueError("a weight is zero exactly when its GAE score is 1")
        if self.effective_time_s <= 0.0:
            raise ValueError("effective_time_s must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "gae_scores", g)

    @property
    def num_robots(self) -> int:
        return self.weights.size


def _powers_of(p) -> np.ndarray:
    return np.asarray(getattr(p, "powers", p), dtype=float)


def frames_uploaded(state: ChannelState, p, meta: DatasetMeta, noise_power_w: float,
                    time_s: float, bandwidth_hz: float) -> np.ndarray:
    """Continuous frame counts F_k = T B log2(1 + SINR_k) / Z_k, capped at |D_k|.

    The cap models the robot running out of data; the optimization objective
    itself works on the uncapped log-rate (see :func:`qom_objective`).
    """
    if time_s <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("time_s and bandwidth_hz must be strictly positive")
    sinr = sinr_vector(state, _powers_of(p), noise_power_w)
    raw = time_s * bandwidth_hz * np.log2(1.0 + sinr) / meta.item_volume_bits
    return np.minimum(raw, meta.num_items)


def pilot_overhead(state: ChannelState, meta: DatasetMeta, constants: RadioConstants,
                   p_sum: float, time_budget_s: float | None = None) -> float:
    """Pilot upload time dT under equal power P_sum / K, max over robots.

    Every robot pilots in parallel at p_eq = P_sum / K, so the phase ends when
    the slowest robot finishes:
    dT = max_k Z_k |D~_k| / (B log2(1 + H_k p_eq / (sum_{j!=k} I_{k,j} p_eq + sigma^2))).

    If ``time_budget_s`` is given and dT >= T the pilot phase cannot complete
    and :class:`PilotPhaseInfeasible` is raised.
    """
    k = state.num_robots
    p_eq = np.full(k, p_sum / k)
    rates = constants.bandwidth_hz * np.log2(
        1.0 + sinr_vector(state, p_eq, constants.noise_power_w))
    per_robot = meta.item_volume_bits * meta.pilot_counts / rates
    delta_t = float(per_robot.max())
    if time_budget_s is not None and delta_t >= time_budget_s:
        raise PilotPhaseInfeasible(
            f"pilot phase needs {delta_t:.3f} s but the time budget is {time_budget_s:.3f} s")
    return delta_t


def qom_weights(gae_scores, meta: DatasetMeta, effective_time_s: float,
                bandwidth_hz: float) -> QomParams:
    """lambda_k = (1 - GAE_k) * T_eff * B / (Z_k * sum_j |D_j|)."""
    scores = np.asarray(gae_scores, dtype=float)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise ValueError("GAE scores must lie in [0, 1]")
    weights = ((1.0 - scores) * effective_time_s * bandwidth_hz
               / (meta.item_volume_bits * meta.total_items))
    return QomParams(weights=weights, effective_time_s=effective_time_s,
                     gae_scores=scores)


def qom_terms(params: QomParams, state: ChannelState, p, noise_power_w: float) -> np.ndarray:
    """Per-robot contributions Theta_k(p) = lambda_k log2(1 + SINR_k(p))."""
    powers = _powers_of(p)
    return params.weights * np.log2(1.0 + sinr_vector(state, powers, noise_power_w))


def qom_objective(params: QomParams, state: ChannelState, p, noise_power_w: float) -> float:
    """QoM(p) = sum_k Theta_k(p); zero at p = 0 and whenever every weight is zero."""
    return float(qom_terms(params, state, p, noise_power_w).sum())


def accuracy_estimate(params: QomParams, frames, meta: DatasetMeta,
                      base_accuracy: float) -> float:
    """Model-predicted answer accuracy for a given upload outcome.

    base + sum_k (1 - GAE_k) F_k / sum_j |D_j|, clamped to [0, 1].
    """
    f = np.asarray(frames, dtype=float)
    gain = float(np.sum((1.0 - params.gae_scores) * f) / meta.total_items)
    return float(np.clip(base_accuracy + gain, 0.0, 1.0))
