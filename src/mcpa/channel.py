"""Multi-antenna Rayleigh uplink channels reduced to MRC gain/interference terms.

All quantities are linear SI units (W, Hz, m). dB / dBm conversion happens at
config parsing only, never inside the model. Random draws use numpy's seeded
``default_rng`` (PCG64) so identical seeds reproduce bit-identical channels
across platforms.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadioConstants",
    "RobotGeometry",
    "ChannelState",
    "draw_channels",
    "sinr_vector",
]


@dataclass(frozen=True)
class RadioConstants:
    """Radio-layer constants shared by every robot.

    Attributes
    ----------
    bandwidth_hz : float
        System bandwidth B.
    noise_power_w : float
        Receiver noise power sigma^2 (linear watts, total over B).
    ref_pathloss_linear : float
        Path gain at 1 m (linear, e.g. -30 dB -> 1e-3).
    shadow_fading_linear : float
        Shadow fading gain (linear), one value per scenario.
    pathloss_exponent : float
        Path-loss exponent alpha >= 1.
    num_antennas : int
        Number of server antennas N >= 1.
    """

    bandwidth_hz: float
    noise_power_w: float
    ref_pathloss_linear: float
    shadow_fading_linear: float
    pathloss_exponent: float
    num_antennas: int

    def __post_init__(self):
        for name in ("bandwidth_hz", "noise_power_w", "ref_pathloss_linear",
                     "shadow_fading_linear", "pathloss_exponent"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"RadioConstants.{name} must be strictly positive")
        if self.pathloss_exponent < 1.0:
            raise ValueError("RadioConstants.pathloss_exponent must be >= 1")
        n = self.num_antennas
        if isinstance(n, bool) or not hasattr(n, "__index__") or operator.index(n) < 1:
            raise ValueError("RadioConstants.num_antennas must be an integer >= 1")


@dataclass(frozen=True)
class RobotGeometry:
    """Robot-server link distances (m)."""

    distance_m: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distance_m, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("distance_m must be a 1-D array with at least one robot")
        if np.any(d <= 0.0):
            raise ValueError("all robot distances must be strictly positive")
        object.__setattr__(self, "distance_m", d)


@dataclass(frozen=True)
class ChannelState:
    """MRC channel gains H_k and interference couplings I_{k,j}.

    ``gains[k]`` is ||h_k||^2 and ``interference[k, j]`` is
    |h_k^H h_j|^2 / ||h_k||^2, so the diagonal equals ``gains`` exactly and
    every column obeys the Cauchy-Schwarz bound I_{k,j} <= H_j.
    """

    gains: np.ndarray
    interference: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        m = np.asarray(self.interference, dtype=float)
        k = g.size
        if m.shape != (k, k):
            raise ValueError(f"interference must be {k}x{k}, got {m.shape}")
        if np.any(g < 0.0) or np.any(m < 0.0):
            raise ValueError("channel gains and interference must be nonnegative")
        if not np.array_equal(np.diagonal(m), g):
            raise ValueError("interference diagonal must equal the gains exactly")
        if np.any(m > g[None, :] * (1.0 + 1e-9) + 1e-300):
            raise ValueError("interference violates the Cauchy-Schwarz bound I_{k,j} <= H_j")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "interference", m)

    @property
    def num_robots(self) -> int:
        return self.gains.size


def draw_channels(constants: RadioConstants, geometry: RobotGeometry, seed) -> ChannelState:
    """Draw one Rayleigh-fading channel realization.

    Each robot gets h_k = sqrt(h0 * omega * d_k^-alpha) * g_k with
    g_k ~ CN(0, I_N) (real/imag parts N(0, 1/2) per antenna, so
    E||g_k||^2 = N). Returns the MRC reduction (H_k, I_{k,j}).

    ``seed`` is anything ``numpy.random.default_rng`` accepts; identical
    (constants, geometry, seed) triples give bit-identical output.
    """
    d = geometry.distance_m
    k = d.size

    rng = np.random.default_rng(seed)
    large_scale = (constants.ref_pathloss_linear * constants.shadow_fading_linear
                   * d ** (-constants.pathloss_exponent))
    parts = rng.standard_normal((2, k, constants.num_antennas))
    g = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    h = np.sqrt(large_scale)[:, None] * g

    gains = np.sum(np.abs(h) ** 2, axis=1)
    # gram[k, j] = h_k^H h_j
    gram = np.conjugate(h) @ h.T
    interference = np.abs(gram) ** 2 / gains[:, None]
    np.fill_diagonal(interference, gains)
    return ChannelState(gains=gains, interference=interference)


def sinr_vector(state: ChannelState, powers: np.ndarray, noise_power_w: float) -> np.ndarray:
    """SINR_k = H_k p_k / (sum_{j != k} I_{k,j} p_j + sigma^2) for all k. Stacked
    powers ``(..., K)`` give one row each, bit for bit the row's own SINR."""
    p = np.asarray(powers, dtype=float)
    signal = state.gains * p
    interference = (state.interference @ p[..., None])[..., 0] - signal
    return signal / (interference + noise_power_w)

