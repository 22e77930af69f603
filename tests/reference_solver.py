"""The projected-gradient inner ascent that ``mcpa.solver._inner_ascent``
replaced, kept as the reference the active-set Newton maximizer is tested
against.

It maximizes the same surrogate over {p >= 0, sum p <= budget}, but its
stationarity probe compares watts with 1/W gradient magnitudes, so at high
SNR it often runs into ``max_iter``. Its value is still a feasible lower
bound on the surrogate maximum. ``solve_mcpa`` with this function patched in
for ``mcpa.solver._inner_ascent`` is the reference MM loop.
"""
import math

from mcpa.solver import SurrogateContext, _InnerResult, _project_array


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
