"""Power allocation solvers: MM/SCA loop with a projected-gradient inner
maximizer, plus the asymptotic water-filling closed form.

The surrogate around an anchor p* is, per user k,

    That_k(p|p*) = (lambda_k/ln 2) * [ ln(sum_l I_{k,l} p_l / s2 + 1)
                                       - ln(S*_k) - S_k(p)/S*_k + 1 ]

with S_k(p) = sum_{l!=k} I_{k,l} p_l / s2 + 1 and S*_k = S_k(p*). The first
term is concave in p and the rest is affine, so That is concave; by
ln x <= x - 1 it minorizes Theta_k with equality (in value and gradient) at
p = p*, which is what makes the outer loop a monotone ascent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelState
from .qom import PowerVector, QomParams, qom_objective

__all__ = [
    "SurrogateContext",
    "SolveTrace",
    "SolverOptions",
    "WaterfillResult",
    "surrogate_value",
    "surrogate_total",
    "surrogate_gradient",
    "qom_gradient",
    "project_feasible",
    "solve_mcpa",
    "waterfill",
]

_LN2 = math.log(2.0)


@dataclass
class SolverOptions:
    """Default tolerances for the MM/SCA loop."""

    inner_tol: float = 1e-8
    outer_tol: float = 1e-7
    max_outer: int = 200
    max_inner: int = 5000


@dataclass
class SurrogateContext:
    """Anchor point plus the constants appearing in every surrogate term.

    Precomputes the scaled coupling matrix A = I / sigma^2, its zero-diagonal
    copy B (the interference-only rows), the anchored denominators
    S*_k = (B p*)_k + 1 and the other per-anchor constants: ln S*_k,
    lambda_k / ln 2 and the constant gradient term B^T (lambda / (ln 2 S*)).
    """

    anchor: PowerVector
    params: QomParams
    state: ChannelState
    noise_power_w: float
    coupling: np.ndarray = field(init=False, repr=False)
    coupling_offdiag: np.ndarray = field(init=False, repr=False)
    anchor_denominators: np.ndarray = field(init=False, repr=False)
    log_anchor_denominators: np.ndarray = field(init=False, repr=False)
    scaled_weights: np.ndarray = field(init=False, repr=False)
    anchor_gradient: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.anchor.num_robots != self.state.num_robots:
            raise ValueError("anchor and channel state disagree on the number of robots")
        self.coupling = self.state.interference / self.noise_power_w
        self.coupling_offdiag = self.coupling.copy()
        np.fill_diagonal(self.coupling_offdiag, 0.0)
        self.anchor_denominators = self.coupling_offdiag @ self.anchor.powers + 1.0
        self.log_anchor_denominators = np.log(self.anchor_denominators)
        weights = self.params.weights
        self.scaled_weights = weights / _LN2
        self.anchor_gradient = self.coupling_offdiag.T @ (
            weights / (_LN2 * self.anchor_denominators))

    @property
    def num_robots(self) -> int:
        return self.state.num_robots

    def total_and_full(self, powers: np.ndarray) -> tuple[float, np.ndarray]:
        """sum_k That_k(p|p*) plus A p + 1, which the gradient at p reuses."""
        full = self.coupling.dot(powers) + 1.0
        cross = self.coupling_offdiag.dot(powers) + 1.0
        terms = self.scaled_weights * (np.log(full) - self.log_anchor_denominators
                                       - cross / self.anchor_denominators + 1.0)
        return float(np.add.reduce(terms)), full

    def gradient_from_full(self, full: np.ndarray) -> np.ndarray:
        """Surrogate gradient at the point p whose A p + 1 is ``full``."""
        return (self.coupling.T.dot(self.params.weights / (_LN2 * full))
                - self.anchor_gradient)


def _powers_of(p) -> np.ndarray:
    return np.asarray(getattr(p, "powers", p), dtype=float)


def surrogate_value(ctx: SurrogateContext, p, k: int) -> float:
    """That_k(p|p*) evaluated exactly as defined above."""
    powers = _powers_of(p)
    lam = ctx.params.weights[k]
    full = ctx.coupling[k] @ powers + 1.0
    cross = ctx.coupling_offdiag[k] @ powers + 1.0
    s_star = ctx.anchor_denominators[k]
    return float(lam / _LN2 * (np.log(full) - np.log(s_star) - cross / s_star + 1.0))


def surrogate_total(ctx: SurrogateContext, p) -> float:
    """sum_k That_k(p|p*), vectorized."""
    return ctx.total_and_full(_powers_of(p))[0]


def surrogate_gradient(ctx: SurrogateContext, p) -> np.ndarray:
    """Analytic gradient of sum_k That_k(p|p*) w.r.t. p."""
    return ctx.gradient_from_full(ctx.coupling @ _powers_of(p) + 1.0)


def qom_gradient(params: QomParams, state: ChannelState, p, noise_power_w: float) -> np.ndarray:
    """Analytic gradient of the true objective sum_k Theta_k(p)."""
    powers = _powers_of(p)
    coupling = state.interference / noise_power_w
    offdiag = coupling.copy()
    np.fill_diagonal(offdiag, 0.0)
    full = coupling @ powers + 1.0
    cross = offdiag @ powers + 1.0
    w_full = params.weights / (_LN2 * full)
    w_cross = params.weights / (_LN2 * cross)
    return coupling.T @ w_full - offdiag.T @ w_cross


def project_feasible(p_raw, budget: float) -> PowerVector:
    """Euclidean projection onto {p >= 0, sum p <= budget}.

    Clips negatives; if the clipped vector fits the budget it is already the
    projection, otherwise the point is projected onto the simplex
    {q >= 0, sum q = budget} by the sorted-threshold method.
    """
    if budget <= 0.0:
        raise ValueError("budget must be strictly positive")
    return PowerVector(_project_array(np.asarray(p_raw, dtype=float), budget), budget)


def _project_array(p_raw: np.ndarray, budget: float) -> np.ndarray:
    """Array kernel of :func:`project_feasible` for a float array and a
    positive budget; it skips the PowerVector checks."""
    v = np.maximum(p_raw, 0.0)
    if np.add.reduce(v) <= budget:
        return v
    u = v.copy()
    u.sort()
    u = u[::-1]
    thresholds = (np.add.accumulate(u) - budget) / np.arange(1, v.size + 1)
    q = np.maximum(v - thresholds[(u > thresholds).nonzero()[0][-1]], 0.0)
    # guard against the roundoff the feasibility invariant will not tolerate
    excess = np.add.reduce(q) - budget
    if excess > 0.0:
        q = np.maximum(q - excess / np.count_nonzero(q), 0.0)
    return q


class _InnerResult(NamedTuple):
    powers: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _inner_ascent(ctx: SurrogateContext, budget: float, tol: float,
                  max_iter: int) -> _InnerResult:
    """Projected gradient ascent with Armijo backtracking along the
    projection arc, started at the anchor (so the returned surrogate value
    never drops below the anchor's). ``converged`` is False only when
    ``max_iter`` steps ran out before a stopping test fired."""
    value = ctx.total_and_full
    gradient = ctx.gradient_from_full
    p = ctx.anchor.powers.copy()
    f, full = value(p)
    step = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = gradient(full)
        gnorm = math.sqrt(g.dot(g))
        if gnorm == 0.0:
            return _InnerResult(p, f, iterations, True)
        # fixed-step stationarity probe: p is optimal iff it is a fixed
        # point of p -> proj(p + a g) for every a > 0
        d = _project_array(p + g, budget) - p
        if math.sqrt(d.dot(d)) <= tol * (1.0 + abs(f)):
            return _InnerResult(p, f, iterations, True)
        if step is None:
            step = budget / gnorm
        s = step
        for _ in range(60):
            q = _project_array(p + s * g, budget)
            fq, full_q = value(q)
            predicted = float(g.dot(q - p))
            if fq >= f + 1e-4 * predicted and predicted > 0.0:
                p, f, full = q, fq, full_q
                step = s * 2.0
                break
            s *= 0.5
        else:
            # line search cannot improve: numerically stationary
            return _InnerResult(p, f, iterations, True)
    return _InnerResult(p, f, iterations, False)


@dataclass
class SolveTrace:
    """Iterate history of one MM solve.

    ``iterates`` holds (power vector, true objective, surrogate objective)
    per outer iteration, starting at the initial point. The true-objective
    sequence is nondecreasing up to 1e-10 * (1 + |value|).
    ``inner_iterations`` and ``inner_converged`` hold, per outer iteration,
    the inner ascent's step count and whether it stopped before
    ``max_inner``.
    """

    iterates: list[tuple[PowerVector, float, float]]
    stop_reason: str
    inner_iterations: list[int]
    inner_converged: list[bool]

    @property
    def final(self) -> PowerVector:
        return self.iterates[-1][0]

    @property
    def objective(self) -> float:
        return self.iterates[-1][1]

    @property
    def objectives(self) -> np.ndarray:
        return np.array([obj for _, obj, _ in self.iterates])

    @property
    def outer_iterations(self) -> int:
        return len(self.iterates) - 1


def solve_mcpa(params: QomParams, state: ChannelState, budget: float,
               noise_power_w: float, opts: SolverOptions | None = None,
               start: PowerVector | None = None) -> SolveTrace:
    """MM/SCA loop: re-anchor the surrogate at each iterate and maximize it.

    Stops once the true objective changes by at most
    outer_tol * (1 + |QoM|) between consecutive iterates (``converged``,
    or ``inexact`` if any inner ascent of the solve stopped at
    ``max_inner``), after ``max_outer`` iterations (``max_iterations``), or
    if the true objective ever slips below the ascent slack (``stalled``;
    defensive, the minorization property rules it out analytically).
    """
    if budget <= 0.0:
        raise ValueError("budget must be strictly positive")
    opts = opts or SolverOptions()
    k = state.num_robots
    if start is None:
        current = PowerVector.uniform(k, budget)
    else:
        if start.powers.sum() > budget * (1.0 + 1e-9) or np.any(start.powers < 0.0):
            raise ValueError("infeasible starting point")
        current = PowerVector(start.powers.copy(), budget)

    obj = qom_objective(params, state, current, noise_power_w)
    iterates = [(current, obj, obj)]
    inner_counts: list[int] = []
    inner_flags: list[bool] = []
    reason = "max_iterations"
    for _ in range(opts.max_outer):
        ctx = SurrogateContext(anchor=current, params=params, state=state,
                               noise_power_w=noise_power_w)
        inner = _inner_ascent(ctx, budget, opts.inner_tol, opts.max_inner)
        candidate = PowerVector(inner.powers, budget)
        new_obj = qom_objective(params, state, candidate, noise_power_w)
        iterates.append((candidate, new_obj, inner.objective))
        inner_counts.append(inner.iterations)
        inner_flags.append(inner.converged)
        if new_obj < obj - 1e-10 * (1.0 + abs(obj)):
            reason = "stalled"
            break
        if abs(new_obj - obj) <= opts.outer_tol * (1.0 + abs(new_obj)):
            reason = "converged" if all(inner_flags) else "inexact"
            current, obj = candidate, new_obj
            break
        current, obj = candidate, new_obj
    return SolveTrace(iterates=iterates, stop_reason=reason,
                      inner_iterations=inner_counts, inner_converged=inner_flags)


class WaterfillResult(NamedTuple):
    """Closed-form allocation plus the water level nu (None when every
    weight is zero and the budget is intentionally left unspent)."""

    power: PowerVector
    level: float | None


def waterfill(params: QomParams, gains, noise_power_w: float, budget: float,
              tol: float = 1e-10) -> WaterfillResult:
    """Asymptotic (interference-free) optimum p_k = [nu lambda_k - s2/H_k]^+.

    The water level nu solves sum_k max(0, nu lambda_k - s2/H_k) = budget by
    bisection; the mapping is nondecreasing in nu and strictly increasing
    once any user is active, so the bracket
    [0, (budget + sum_k s2/H_k) / min_{lambda_k>0} lambda_k] pins it down.
    """
    h = np.asarray(gains, dtype=float)
    lam = params.weights
    if lam.shape != h.shape:
        raise ValueError("weights and gains must have matching shapes")
    floors = np.where(h > 0.0, noise_power_w / np.where(h > 0.0, h, 1.0), np.inf)
    usable = (lam > 0.0) & np.isfinite(floors)
    if not np.any(usable):
        return WaterfillResult(PowerVector.zeros(h.size, budget), None)

    def spent(nu: float) -> np.ndarray:
        return np.maximum(0.0, nu * lam - floors)

    lo = 0.0
    hi = (budget + floors[np.isfinite(floors)].sum()) / lam[usable].min()
    for _ in range(200):
        if spent(hi).sum() >= budget:
            break
        hi *= 2.0
    nu = hi
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        total = spent(mid).sum()
        if abs(total - budget) <= tol * budget:
            nu = mid
            break
        if total < budget:
            lo = mid
        else:
            hi = mid
        nu = mid
    powers = spent(nu)
    return WaterfillResult(PowerVector(powers, budget), float(nu))
