"""Power allocation solvers: MM/SCA loop with an active-set Newton inner
maximizer, plus the asymptotic water-filling closed form.

The surrogate around an anchor p* is, per user k,

    That_k(p|p*) = (lambda_k/ln 2) * [ ln(sum_l I_{k,l} p_l / s2 + 1)
                                       - ln(S*_k) - S_k(p)/S*_k + 1 ]

with S_k(p) = sum_{l!=k} I_{k,l} p_l / s2 + 1 and S*_k = S_k(p*). The first
term is concave in p and the rest is affine, so That is concave; by
ln x <= x - 1 it minorizes Theta_k with equality (in value and gradient) at
p = p*, which is what makes the outer loop a monotone ascent.

Each surrogate is maximized over {p >= 0, sum p <= P_sum} by a primal
active-set Newton method (Bertsekas, "Projected Newton Methods for
Optimization Problems with Simple Constraints", SIAM J. Control Optim.
1982): the K x K surrogate Hessian is cheap, and Newton steps converge in a
few iterations where gradient steps crawl at high SNR. A solve stops once
its Newton step is at most ``inner_tol * P_sum`` watts, or its decrement at
most 1e-15 (1 + |f|), with every multiplier nonnegative: that leaves a
surrogate KKT residual of up to about 2e-7 (1 + |f|), not roundoff. Newton
paths start at the anchor; the first may start at the water-filling split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelState
from .qom import qom_objective

__all__ = [
    "SurrogateContext",
    "SolveTrace",
    "SolverOptions",
    "WaterfillResult",
    "solve_mcpa",
    "waterfill",
]

_LN2 = math.log(2.0)
_NO_STEP = np.zeros(0)   # the Newton step when every robot is held at zero


@dataclass
class SolverOptions:
    """Default tolerances for the MM/SCA loop.

    The outer loop stops once QoM changes by at most
    ``outer_tol * (1 + |QoM|)``, or after ``max_outer`` surrogates. Each
    surrogate's Newton maximizer stops by the module docstring's rule on
    ``inner_tol``; ``max_inner`` caps its Newton iterations, and a capped
    solve makes the result ``inexact``.
    """

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

    anchor: np.ndarray
    weights: np.ndarray
    state: ChannelState
    noise_power_w: float
    coupling: np.ndarray = field(init=False, repr=False)
    coupling_offdiag: np.ndarray = field(init=False, repr=False)
    anchor_denominators: np.ndarray = field(init=False, repr=False)
    log_anchor_denominators: np.ndarray = field(init=False, repr=False)
    scaled_weights: np.ndarray = field(init=False, repr=False)
    anchor_gradient: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.shape(self.anchor) != (self.state.num_robots,):
            raise ValueError("anchor and channel state disagree on the number of robots")
        self.weights = _checked_weights(self.weights, self.state.num_robots)
        self.coupling = self.state.interference / self.noise_power_w
        self.coupling_offdiag = self.coupling.copy()
        np.fill_diagonal(self.coupling_offdiag, 0.0)
        self.scaled_weights = self.weights / _LN2
        self._anchor_at(self.anchor)

    def _anchor_at(self, anchor: np.ndarray) -> None:
        """Move the anchor to ``anchor``: only the terms that depend on it change."""
        self.anchor = np.asarray(anchor, dtype=float)
        self.anchor_denominators = self.coupling_offdiag @ self.anchor + 1.0
        self.log_anchor_denominators = np.log(self.anchor_denominators)
        self.anchor_gradient = self.coupling_offdiag.T @ (
            self.weights / (_LN2 * self.anchor_denominators))

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
        return (self.coupling.T.dot(self.weights / (_LN2 * full))
                - self.anchor_gradient)


class _InnerResult(NamedTuple):
    powers: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _newton_direction(ctx: SurrogateContext, full: np.ndarray, g_free: np.ndarray,
                      free: np.ndarray, on_budget: bool) -> tuple[np.ndarray, float]:
    """Newton step d on the free coordinates and the budget multiplier nu.

    Maximizes the surrogate's local model g^T d - d^T M d / 2, with the
    curvature M = A_F^T diag(lambda / (ln 2 (A p + 1)^2)) A_F, subject to
    1^T d = 0 when the budget binds, by one LAPACK solve of the KKT system
    M d + nu 1 = g, 1^T d = 0 (nu = 0 off the budget). M is positive
    semidefinite, and singular when K > N or weights are zero, so it is
    Jacobi-scaled and shifted by 1e-10 I, which bends the path, not the fixed
    point d = 0. No definiteness probe is needed: A and lambda are
    nonnegative, so the computed M is off by at most about K u M entrywise
    (u the unit roundoff) and the scaled one's eigenvalues stay above about
    -K^2 u (-4e-12 at K = 200), under the shift for K up to several hundred.
    """
    n = free.size
    cols = ctx.coupling[:, free]
    curvature = cols.T.dot(cols * (ctx.scaled_weights / (full * full))[:, None])
    # a zero diagonal entry has a zero row and a zero gradient: any scale serves it
    scale = np.sqrt(curvature.diagonal())
    scale[scale == 0.0] = 1.0
    # one buffer holds the bordered KKT matrix [[M_s + 1e-10 I, b], [b^T, 0]],
    # b = 1/scale; the block's diagonal is every (n + 2)-th entry of the buffer
    kkt = np.zeros((n + 1, n + 1))
    shifted = np.divide(curvature, np.multiply.outer(scale, scale), out=kkt[:n, :n])
    kkt.reshape(-1)[:n * (n + 2):n + 2] += 1e-10
    rhs = np.zeros(n + 1)
    np.divide(g_free, scale, out=rhs[:n])
    if not on_budget:
        return np.linalg.solve(shifted, rhs[:n]) / scale, 0.0
    kkt[:n, n] = kkt[n, :n] = 1.0 / scale
    solution = np.linalg.solve(kkt, rhs)
    return solution[:-1] / scale, float(solution[-1])


def _inner_ascent(ctx: SurrogateContext, budget: float, tol: float,
                  max_iter: int, start: np.ndarray | None = None) -> _InnerResult:
    """Primal active-set Newton maximizer of the surrogate over
    {p >= 0, sum p <= budget}, started at the feasible ``start`` or else the
    anchor (so the returned surrogate value never drops below the start's).

    The working set holds the bounds held at zero, plus the budget once it
    binds; it starts as the start's zeros and spent budget. Each iteration
    takes the equality-constrained Newton step on the free coordinates
    (:func:`_newton_direction`), cuts it at the first blocking constraint
    (which joins the working set) and backtracks by Armijo. When the step
    is negligible -- at most ``tol * budget`` watts, or a Newton decrement
    g^T d at most 1e-15 (1 + |f|) -- the constraint with the most negative
    multiplier leaves the working set; if every multiplier is nonnegative,
    p satisfies the surrogate's KKT conditions.
    ``converged`` is False only when ``max_iter`` iterations ran out first.
    """
    value = ctx.total_and_full
    p = (ctx.anchor if start is None else start).copy()
    f, full = value(p)
    at_zero = p == 0.0
    on_budget = np.add.reduce(p) >= budget * (1.0 - 1e-12)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = ctx.gradient_from_full(full)
        free = (~at_zero).nonzero()[0]
        d, nu, decrement = _NO_STEP, 0.0, 0.0
        if free.size:
            g_free = g[free]
            d, nu = _newton_direction(ctx, full, g_free, free, on_budget)
            decrement = float(g_free.dot(d))
        if (math.sqrt(d.dot(d)) <= tol * budget
                or decrement <= 1e-15 * (1.0 + abs(f))):
            # the working-set problem is solved: check the multipliers
            bound_mult = nu - g[at_zero]
            worst_bound = float(bound_mult.min()) if bound_mult.size else math.inf
            worst_budget = nu if on_budget else math.inf
            if min(worst_bound, worst_budget) >= 0.0:
                return _InnerResult(p, f, iterations, True)
            if worst_budget < worst_bound:
                on_budget = False
            else:
                at_zero[at_zero.nonzero()[0][bound_mult.argmin()]] = False
            continue
        # ratio test: the step length at which each constraint outside the
        # working set becomes active
        p_free = p[free]
        limits = np.full(free.size, math.inf)
        shrinking = d < 0.0
        limits[shrinking] = p_free[shrinking] / -d[shrinking]
        j = int(limits.argmin())
        growth = np.add.reduce(d)
        room = math.inf
        if not on_budget and growth > 0.0:
            room = max((budget - np.add.reduce(p)) / growth, 0.0)
        alpha_max = alpha = min(1.0, limits[j], room)
        for _ in range(60):
            q = p.copy()
            q[free] = np.maximum(p_free + alpha * d, 0.0)
            if alpha == limits[j]:
                q[free[j]] = 0.0
            fq, full_q = value(q)
            if fq >= f + 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            # no step improves on p: it is stationary up to roundoff
            return _InnerResult(p, f, iterations, True)
        p, f, full = q, fq, full_q
        if alpha == alpha_max < 1.0:   # the step reached a blocking constraint
            if alpha == limits[j]:
                at_zero[free[j]] = True
            if alpha == room:
                on_budget = True
    return _InnerResult(p, f, iterations, False)


@dataclass
class SolveTrace:
    """Iterate history of one MM solve.

    ``iterates`` holds (power vector, true objective, surrogate objective)
    per outer iteration, starting at the initial point. The true-objective
    sequence is nondecreasing up to 1e-10 * (1 + |value|).
    ``inner_iterations`` and ``inner_converged`` hold, per outer iteration,
    the inner maximizer's Newton iterations and whether it stopped before
    ``max_inner``. ``warm_start`` is whether the first one started at
    :func:`_waterfill_start`'s water-filling split.
    """

    iterates: list[tuple[np.ndarray, float, float]]
    stop_reason: str
    inner_iterations: list[int]
    inner_converged: list[bool]
    warm_start: bool

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1][0]

    @property
    def objective(self) -> float:
        return self.iterates[-1][1]

    @property
    def outer_iterations(self) -> int:
        return len(self.iterates) - 1


def _checked_weights(weights, k: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,) or not ((w >= 0.0) & (w < np.inf)).all():
        raise ValueError(f"weights must be K = {k} finite, nonnegative numbers, one per robot")
    return w


def solve_mcpa(weights, state: ChannelState, budget: float,
               noise_power_w: float, opts: SolverOptions | None = None) -> SolveTrace:
    """MM/SCA loop from the uniform split: re-anchor the surrogate at each
    iterate and maximize it.

    Stops once the true objective changes by at most
    outer_tol * (1 + |QoM|) between consecutive iterates (``converged``,
    or ``inexact`` if any inner solve of the solve stopped at
    ``max_inner``), after ``max_outer`` iterations (``max_iterations``), or
    if the true objective ever slips below the ascent slack (``stalled``;
    defensive, the minorization property rules it out analytically).
    ``weights`` must be K finite, nonnegative numbers, one per robot.
    """
    if budget <= 0.0:
        raise ValueError("budget must be strictly positive")
    k = state.num_robots
    current = np.full(k, budget / k)
    ctx = SurrogateContext(current, weights, state, noise_power_w)
    opts = opts or SolverOptions()
    obj = qom_objective(ctx.weights, state, current, noise_power_w)
    iterates = [(current, obj, obj)]
    inner_counts: list[int] = []
    inner_flags: list[bool] = []
    reason = "max_iterations"
    warm_start = False
    for _ in range(opts.max_outer):
        start = None if inner_counts else _waterfill_start(ctx, budget)
        warm_start = warm_start or start is not None
        inner = _inner_ascent(ctx, budget, opts.inner_tol, opts.max_inner, start)
        candidate = inner.powers
        new_obj = qom_objective(ctx.weights, state, candidate, noise_power_w)
        iterates.append((candidate, new_obj, inner.objective))
        inner_counts.append(inner.iterations)
        inner_flags.append(inner.converged)
        if new_obj < obj - 1e-10 * (1.0 + abs(obj)):
            reason = "stalled"
            break
        if abs(new_obj - obj) <= opts.outer_tol * (1.0 + abs(new_obj)):
            reason = "converged" if all(inner_flags) else "inexact"
            break
        current, obj = candidate, new_obj
        ctx._anchor_at(current)      # the weights and constants are the first iteration's
    return SolveTrace(iterates=iterates, stop_reason=reason, inner_iterations=inner_counts,
                      inner_converged=inner_flags, warm_start=warm_start)


def _waterfill_start(ctx: SurrogateContext, budget: float) -> np.ndarray | None:
    """Water-filling over the gains H_k / (s2 S*_k) at unit noise, the
    surrogate's maximizer with the interference frozen at the anchor, scaled
    into the budget: the Newton start when it beats the anchor, else None."""
    guess = _waterfill(ctx.weights, ctx.coupling.diagonal() / ctx.anchor_denominators,
                       1.0, budget).power
    spent = np.add.reduce(guess)
    if spent > budget * (1.0 + 1e-12):
        guess *= budget / spent
    return guess if ctx.total_and_full(guess)[0] > ctx.total_and_full(ctx.anchor)[0] else None


class WaterfillResult(NamedTuple):
    """Closed-form allocation plus the water level nu (None when every
    weight is zero and the budget is intentionally left unspent)."""

    power: np.ndarray
    level: float | None


def waterfill(weights, gains, noise_power_w: float, budget: float) -> WaterfillResult:
    """Asymptotic (interference-free) optimum p_k = [nu lambda_k - s2/H_k]^+,
    in the exact finite-step form (Palomar & Fonollosa, "Practical
    algorithms for a family of waterfilling solutions", IEEE Trans. Signal
    Process. 2005).

    With the usable robots (lambda_k > 0, H_k > 0) sorted by threshold
    t_k = s2 / (H_k lambda_k), the level that spends the budget on the first
    m of them is nu_m = (budget + sum_{i<=m} s2/H_i) / sum_{i<=m} lambda_i,
    and nu is the nu_m of the largest m whose nu_m clears t_m. Levels are
    taken relative to the lowest threshold, so powers far below the floors
    s2/H_k keep their precision.
    """
    h = np.asarray(gains, dtype=float)
    return _waterfill(_checked_weights(weights, h.size), h, noise_power_w, budget)


def _waterfill(lam, h, noise_power_w: float, budget: float) -> WaterfillResult:
    """:func:`waterfill` on already checked weights ``lam`` and float gains ``h``."""
    usable = (lam > 0.0) & (h > 0.0)
    if not usable.any():
        return WaterfillResult(np.zeros(h.size), None)
    lam = lam[usable]
    thresholds = noise_power_w / (h[usable] * lam)
    lowest = thresholds.min()
    rise = thresholds - lowest
    order = rise.argsort(kind="stable")
    levels = (budget + (lam * rise)[order].cumsum()) / lam[order].cumsum()
    level = levels[(levels > rise[order]).nonzero()[0][-1]]
    powers = np.zeros(h.size)
    powers[usable] = lam * np.maximum(0.0, level - rise)
    return WaterfillResult(powers, float(lowest + level))
