"""Comparison allocators sharing the same feasible set as the MCPA solver.

MaxCov and Greedy size their power requests assuming zero interference (both
are defined channel-blind / coverage-greedy); achieved rates downstream are
always evaluated with full interference, so the metrics stay honest.
Fairness runs one bisection for one budget or many, so the harness makes one
call per seed over all its budgets.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelState
from .qom import DatasetMeta

__all__ = [
    "unit_rate_params",
    "allocate_fairness",
    "allocate_greedy",
    "allocate_max_cov",
    "allocate_remember",
    "allocate_uniform",
]

def unit_rate_params(num_robots: int) -> np.ndarray:
    """Sum-log-rate weighting: lambda_k = 1 for every robot."""
    return np.ones(num_robots)


def _fairness_powers(state: ChannelState, target_sinr: float, budget: float,
                     noise_power_w: float, system: np.ndarray):
    """Fixed point of the standard power-control update p <- gamma (I_offdiag p
    + s2) / H (Yates 1995) by one solve of (diag(H) - gamma I_offdiag) p =
    gamma s2 1, assembled in the (K, K) buffer ``system``. Its solution is positive
    iff the update converges from zero; returns it if so and sum p <= budget, else None.
    :func:`allocate_fairness` probes one system at a time this way only when
    a stack of them holds a singular one."""
    np.multiply(-target_sinr, state.interference, out=system)
    system.reshape(-1)[::state.num_robots + 1] = state.gains     # the diagonal, as a view
    try:
        p = np.linalg.solve(system, np.full(state.num_robots, target_sinr * noise_power_w))
    except np.linalg.LinAlgError:
        return None
    return p if p.min() > 0.0 and np.add.reduce(p) <= budget else None


def allocate_fairness(state: ChannelState, budget, noise_power_w: float,
                      tol: float = 1e-4) -> np.ndarray:
    """Max-min rate via bisection on a common SINR target gamma.

    gamma is feasible iff its power-control fixed point is positive with
    sum p <= budget; the returned allocation is the fixed point at the largest
    feasible gamma (interval width <= tol * gamma). Without interference
    gamma_hi = budget / (s2 sum 1/H_k) spends the whole budget, and
    interference only raises the powers, so gamma_hi bounds every feasible
    gamma: it is probed first and returned if feasible (orthogonal channels,
    roundoff permitting), else the bisection runs on [0, gamma_hi]. A zero
    gain makes every max-min rate 0, so that channel gets all-zero powers.

    One budget gives one allocation ``(K,)``; an array of budgets gives one
    row per budget, each bit for bit the call at that budget alone. The
    bisections run in lockstep: each step assembles the probes of the budgets
    still bisecting in one (B, K, K) buffer and solves them in one stacked
    solve; a stack holding a singular system is probed one system at a time
    (:func:`_fairness_powers`), so that system is infeasible for its own
    budget only.
    """
    budgets = np.ravel(budget).tolist()
    k, n = state.num_robots, len(budgets)
    shape = np.shape(budget) + (k,)
    if not (state.gains > 0.0).all():
        return np.zeros(shape)
    systems = np.empty((n, k, k))
    scale = float(noise_power_w * np.add.reduce(1.0 / state.gains))
    his, los, best = [b / scale for b in budgets], [0.0] * n, [np.zeros(k)] * n
    probing, targets = list(range(n)), his[:]          # gamma_hi, then the bisection
    for _ in range(201):
        if not probing:
            break
        m = len(probing)
        stack = np.multiply(np.negative(targets).reshape(m, 1, 1), state.interference,
                            out=systems[:m])
        stack.reshape(m, -1)[:, ::k + 1] = state.gains            # the diagonals, as a view
        try:
            solved = np.linalg.solve(
                stack, np.multiply(targets, noise_power_w).reshape(m, 1, 1).repeat(k, 1))
            probes = [p if p.min() > 0.0 and np.add.reduce(p) <= budgets[i] else None
                      for i, p in zip(probing, solved[..., 0])]
        except np.linalg.LinAlgError:
            probes = [_fairness_powers(state, target, budgets[i], noise_power_w, systems[0])
                      for i, target in zip(probing, targets)]
        for i, target, p in zip(probing, targets, probes):
            if p is None:
                his[i] = target
            else:
                best[i], los[i] = p, target
        probing = [i for i in probing if not his[i] - los[i] <= tol * max(his[i], 1e-300)]
        targets = [0.5 * (los[i] + his[i]) for i in probing]
    return np.array(best).reshape(shape)


def _zero_interference_power(state: ChannelState, spectral, noise_power_w: float) -> np.ndarray:
    """sigma^2 (2^x_k - 1) / H_k, robot k's power for x_k b/s/Hz without interference."""
    with np.errstate(over="ignore"):
        return noise_power_w * (np.exp2(spectral) - 1.0) / state.gains


def allocate_greedy(state: ChannelState, gae_scores, meta: DatasetMeta, budget: float,
                    noise_power_w: float, time_s: float, bandwidth_hz: float) -> np.ndarray:
    """Highest-novelty-first: fund full uploads in (1 - GAE_k) order.

    Each robot in turn gets the zero-interference power needed to push its
    whole dataset within ``time_s``, capped by whatever budget remains;
    robots after the budget runs out get nothing.
    """
    scores = np.asarray(gae_scores, dtype=float)
    order = np.argsort(scores, kind="stable")  # ascending GAE = descending novelty
    spectral = meta.item_volume_bits * meta.num_items / (time_s * bandwidth_hz)
    required = _zero_interference_power(state, spectral, noise_power_w)
    powers = np.zeros(state.num_robots)
    remaining = budget
    for k in order:
        give = min(required[k], remaining)
        powers[k] = give
        remaining -= give
        if remaining <= 0.0:
            break
    return powers


def allocate_max_cov(state: ChannelState, budget: float, noise_power_w: float,
                     rate_threshold_bps, bandwidth_hz: float) -> np.ndarray:
    """Admit as many robots as possible at a target rate.

    Computes each robot's zero-interference power for the threshold rate,
    sorts ascending and admits greedily until the budget is exhausted;
    admitted robots get exactly their required power.
    """
    threshold = np.broadcast_to(np.asarray(rate_threshold_bps, dtype=float),
                                (state.num_robots,))
    if np.any(threshold <= 0.0):
        raise ValueError("rate_threshold_bps must be positive")
    required = _zero_interference_power(state, threshold / bandwidth_hz, noise_power_w)
    powers = np.zeros(state.num_robots)
    remaining = budget
    for k in np.argsort(required, kind="stable"):
        if required[k] > remaining:
            break
        powers[k] = required[k]
        remaining -= required[k]
    return powers


def allocate_remember(num_robots: int, budget: float) -> np.ndarray:
    """No aggregation at all: every robot stays silent."""
    return np.zeros(num_robots)


def allocate_uniform(num_robots: int, budget: float) -> np.ndarray:
    """Even split reference point."""
    return np.full(num_robots, budget / num_robots)
