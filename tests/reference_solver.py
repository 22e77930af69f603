"""The projected-gradient inner ascent that ``mcpa.solver._inner_ascent``
replaced, kept as the reference the active-set Newton maximizer is tested
against.

It maximizes the same surrogate over {p >= 0, sum p <= budget}, but its
stationarity probe compares watts with 1/W gradient magnitudes, so at high
SNR it often runs into ``max_iter``. Its value is still a feasible lower
bound on the surrogate maximum. ``solve_mcpa`` with this function patched in
for ``mcpa.solver._inner_ascent`` is the reference MM loop.

The Euclidean projection onto the feasible set that it steps through lives
here too: no solve in ``mcpa`` projects.
"""
import math

import numpy as np

from mcpa.qom import PowerVector
from mcpa.solver import SurrogateContext, _InnerResult


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
