"""Power allocation solvers: MM/SCA loop with an active-set Newton inner
maximizer, plus the asymptotic water-filling closed form.

The surrogate around an anchor p* is, per user k,

    That_k(p|p*) = (lambda_k/ln 2) * [ ln(sum_l I_{k,l} p_l / s2 + 1)
                                       - ln(S*_k) - S_k(p)/S*_k + 1 ]

with S_k(p) = sum_{l!=k} I_{k,l} p_l / s2 + 1 and S*_k = S_k(p*). The first
term is concave in p and the rest is affine, so That is concave; by
ln x <= x - 1 it minorizes Theta_k with equality (in value and gradient) at
p = p*, which is what makes the outer loop a monotone ascent.

Each surrogate is maximized over {p >= 0, sum p <= P_sum} to roundoff by a
primal active-set Newton method (Bertsekas, "Projected Newton Methods for
Optimization Problems with Simple Constraints", SIAM J. Control Optim.
1982): the K x K surrogate Hessian is cheap, and Newton steps converge in a
few iterations where gradient steps crawl at high SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelState
from .qom import PowerVector, QomParams, _powers_of, qom_objective

__all__ = [
    "SurrogateContext",
    "SolveTrace",
    "SolverOptions",
    "WaterfillResult",
    "surrogate_value",
    "surrogate_total",
    "surrogate_gradient",
    "qom_gradient",
    "solve_mcpa",
    "waterfill",
]

_LN2 = math.log(2.0)


@dataclass
class SolverOptions:
    """Default tolerances for the MM/SCA loop.

    The outer loop stops once QoM changes by at most
    ``outer_tol * (1 + |QoM|)``, or after ``max_outer`` surrogates. Each
    surrogate's active-set Newton maximizer stops when its Newton step is at
    most ``inner_tol * P_sum`` watts (or its Newton decrement reaches
    roundoff) and every constraint multiplier is nonnegative; ``max_inner``
    caps its Newton iterations, and a capped solve makes the result
    ``inexact``.
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
    1^T d = 0 when the budget binds, by solving the KKT system
    M d + nu 1 = g, 1^T d = 0 (nu = 0 off the budget). M is positive
    semidefinite, and singular when K > N or weights are zero, so it is
    Jacobi-scaled and shifted by 1e-10 times the identity, a shift grown
    until a Cholesky factorization succeeds. The shift bends the path, not
    the fixed point d = 0.
    """
    cols = ctx.coupling[:, free]
    curvature = cols.T.dot(cols * (ctx.scaled_weights / (full * full))[:, None])
    # a zero diagonal entry has a zero row and a zero gradient: any scale serves it
    scale = np.sqrt(curvature.diagonal())
    scale[scale == 0.0] = 1.0
    scaled = curvature / np.multiply.outer(scale, scale)
    shift = 1e-10
    while True:
        shifted = scaled + shift * np.eye(free.size)
        try:
            np.linalg.cholesky(shifted)
            break
        except np.linalg.LinAlgError:
            if shift >= 1.0:   # a unit diagonal: only a non-finite M gets here
                raise
            shift *= 100.0
    if not on_budget:
        return np.linalg.solve(shifted, g_free / scale) / scale, 0.0
    border = 1.0 / scale
    kkt = np.block([[shifted, border[:, None]], [border, 0.0]])
    solution = np.linalg.solve(kkt, np.append(g_free / scale, 0.0))
    return solution[:-1] / scale, float(solution[-1])


def _inner_ascent(ctx: SurrogateContext, budget: float, tol: float,
                  max_iter: int) -> _InnerResult:
    """Primal active-set Newton maximizer of the surrogate over
    {p >= 0, sum p <= budget}, started at the anchor (so the returned
    surrogate value never drops below the anchor's).

    The working set holds the bounds held at zero, plus the budget once it
    binds. Each iteration takes the equality-constrained Newton step on the
    free coordinates (:func:`_newton_direction`), cuts it at the first
    blocking constraint (which joins the working set) and backtracks by
    Armijo. When the step is negligible -- at most ``tol * budget`` watts, or
    a Newton decrement g^T d at most 1e-15 (1 + |f|) -- the constraint with
    the most negative multiplier leaves the working set; if every
    multiplier is nonnegative, p satisfies the surrogate's KKT conditions.
    ``converged`` is False only when ``max_iter`` iterations ran out first.
    """
    value = ctx.total_and_full
    p = ctx.anchor.powers.copy()
    f, full = value(p)
    at_zero = p == 0.0
    on_budget = np.add.reduce(p) >= budget * (1.0 - 1e-12)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = ctx.gradient_from_full(full)
        free = (~at_zero).nonzero()[0]
        d, nu, decrement = np.zeros(0), 0.0, 0.0
        if free.size:
            d, nu = _newton_direction(ctx, full, g[free], free, on_budget)
            decrement = float(g[free].dot(d))
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
               noise_power_w: float, opts: SolverOptions | None = None) -> SolveTrace:
    """MM/SCA loop from the uniform split: re-anchor the surrogate at each
    iterate and maximize it.

    Stops once the true objective changes by at most
    outer_tol * (1 + |QoM|) between consecutive iterates (``converged``,
    or ``inexact`` if any inner solve of the solve stopped at
    ``max_inner``), after ``max_outer`` iterations (``max_iterations``), or
    if the true objective ever slips below the ascent slack (``stalled``;
    defensive, the minorization property rules it out analytically).
    """
    if budget <= 0.0:
        raise ValueError("budget must be strictly positive")
    opts = opts or SolverOptions()
    current = PowerVector.uniform(state.num_robots, budget)
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
