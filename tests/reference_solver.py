"""The projected-gradient inner ascent that ``mcpa.solver._inner_ascent``
replaced, kept as the reference the active-set Newton maximizer is tested
against.

It maximizes the same surrogate over {p >= 0, sum p <= budget}, but its
stationarity probe compares watts with 1/W gradient magnitudes, so at high
SNR it often runs into ``max_iter``. Its value is still a feasible lower
bound on the surrogate maximum. ``solve_mcpa`` with this function patched in
for ``mcpa.solver._inner_ascent`` is the reference MM loop.

The Euclidean projection onto the feasible set that it steps through lives
here too: no solve in ``mcpa`` projects. So do the surrogate's value and
gradient evaluated straight from their definitions, which the tests check
the solver's fused ``SurrogateContext`` evaluations and the minorization
property against, and the bisection on the water level that
``mcpa.solver.waterfill``'s finite-step form replaced.

The Newton step that probes definiteness with a Cholesky retry loop and
assembles its bordered KKT system with ``np.block`` is kept as a bit-level
oracle for its one-solve version in ``mcpa``. The max-min fairness
bisection whose every probe runs the standard power-control iteration sweep
by sweep, up to 30,000 sweeps, is kept as the reference that
``mcpa.baselines.allocate_fairness``'s one-solve probes must agree with on
the shipped scenarios; the one with one-solve probes that doubled its upper
bound until infeasible is its bit-level oracle. Its probe assembles a fresh
(K, K) system per target and tests it with ``np.all`` and ``sum``, where
``mcpa`` solves the probes of all budgets still bisecting as one stack.
"""
import math

import numpy as np

from mcpa.channel import ChannelState
from mcpa.solver import _LN2, SurrogateContext, WaterfillResult, _InnerResult


def surrogate_value(ctx: SurrogateContext, p, k: int) -> float:
    """That_k(p|p*) evaluated exactly as defined in ``mcpa.solver``."""
    powers = np.asarray(p, dtype=float)
    lam = ctx.weights[k]
    full = ctx.coupling[k] @ powers + 1.0
    cross = ctx.coupling_offdiag[k] @ powers + 1.0
    s_star = ctx.anchor_denominators[k]
    return float(lam / _LN2 * (np.log(full) - np.log(s_star) - cross / s_star + 1.0))


def surrogate_total(ctx: SurrogateContext, p) -> float:
    """sum_k That_k(p|p*), vectorized."""
    return ctx.total_and_full(np.asarray(p, dtype=float))[0]


def surrogate_gradient(ctx: SurrogateContext, p) -> np.ndarray:
    """Analytic gradient of sum_k That_k(p|p*) w.r.t. p."""
    return ctx.gradient_from_full(ctx.coupling @ np.asarray(p, dtype=float) + 1.0)


def project_feasible(p_raw, budget: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p <= budget}.

    Clips negatives; if the clipped vector fits the budget it is already the
    projection, otherwise the point is projected onto the simplex
    {q >= 0, sum q = budget} by the sorted-threshold method.
    """
    if budget <= 0.0:
        raise ValueError("budget must be strictly positive")
    return _project_array(np.asarray(p_raw, dtype=float), budget)


def _project_array(p_raw: np.ndarray, budget: float) -> np.ndarray:
    """Array kernel of :func:`project_feasible` for a float array and a
    positive budget; it skips the budget check."""
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


def _inner_ascent(ctx: SurrogateContext, budget: float, tol: float,
                  max_iter: int, start: np.ndarray | None = None) -> _InnerResult:
    """Projected gradient ascent with Armijo backtracking along the
    projection arc, started at the feasible ``start`` or else the anchor (so
    the returned surrogate value never drops below the start's).
    ``converged`` is False only when ``max_iter`` steps ran out before a
    stopping test fired."""
    value = ctx.total_and_full
    gradient = ctx.gradient_from_full
    p = (ctx.anchor if start is None else start).copy()
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


def bisection_waterfill(weights, gains, noise_power_w: float, budget: float,
                        tol: float = 1e-10) -> WaterfillResult:
    """Asymptotic (interference-free) optimum p_k = [nu lambda_k - s2/H_k]^+.

    The water level nu solves sum_k max(0, nu lambda_k - s2/H_k) = budget by
    bisection; the mapping is nondecreasing in nu and strictly increasing
    once any user is active, so the bracket
    [0, (budget + sum_k s2/H_k) / min_{lambda_k>0} lambda_k] pins it down.
    """
    h = np.asarray(gains, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != h.shape:
        raise ValueError("weights and gains must have matching shapes")
    floors = np.where(h > 0.0, noise_power_w / np.where(h > 0.0, h, 1.0), np.inf)
    usable = (lam > 0.0) & np.isfinite(floors)
    if not np.any(usable):
        return WaterfillResult(np.zeros(h.size), None)

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
    return WaterfillResult(powers, float(nu))


def newton_direction(ctx: SurrogateContext, full: np.ndarray, g_free: np.ndarray,
                     free: np.ndarray, on_budget: bool) -> tuple[np.ndarray, float]:
    """``mcpa.solver._newton_direction`` as it was before its KKT system
    moved into one buffer: the shifted block is rebuilt with ``np.eye`` on
    every Cholesky retry and the bordered system with ``np.block``."""
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
                      tol: float = 1e-4) -> np.ndarray:
    """``mcpa.baselines.allocate_fairness`` as it was when each probe
    iterated the power-control update: max-min rate by bisection on a common
    SINR target gamma. A probe that hits the sweep cap counts as infeasible,
    so at high SNR the answer can fall more than ``tol`` below the optimum."""
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
    return best


def fairness_powers(state: ChannelState, target_sinr: float, budget: float,
                    noise_power_w: float):
    """The one-solve probe of :func:`doubling_allocate_fairness`: the fixed
    point of the power-control update at ``target_sinr`` if it is positive
    and spends at most ``budget``, else None."""
    system = -target_sinr * state.interference
    system.flat[::state.num_robots + 1] = state.gains
    try:
        p = np.linalg.solve(system, np.full(state.num_robots, target_sinr * noise_power_w))
    except np.linalg.LinAlgError:
        return None
    return p if np.all(p > 0.0) and p.sum() <= budget else None


def doubling_allocate_fairness(state: ChannelState, budget: float, noise_power_w: float,
                               tol: float = 1e-4) -> np.ndarray:
    """``mcpa.baselines.allocate_fairness`` as it was before it returned at
    its proven upper bound: when that bound is feasible, the target doubles
    until a probe fails, and the bisection then runs on the last doubling."""
    if not np.all(state.gains > 0.0):
        return np.zeros(state.num_robots)
    best = np.zeros(state.num_robots)
    hi = budget / (noise_power_w * np.sum(1.0 / state.gains))
    lo = 0.0
    for _ in range(60):
        candidate = fairness_powers(state, hi, budget, noise_power_w)
        if candidate is None:
            break
        best, lo = candidate, hi
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        candidate = fairness_powers(state, mid, budget, noise_power_w)
        if candidate is None:
            hi = mid
        else:
            best, lo = candidate, mid
    return best
