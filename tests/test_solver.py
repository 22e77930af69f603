import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpa.solver
from conftest import (BUDGET_W, NOISE_W, orthogonal_state, random_feasible,
                      random_params, random_state)
from mcpa.baselines import unit_rate_params
from mcpa.qom import DatasetMeta, PowerVector, QomParams, qom_objective, qom_weights
from mcpa.solver import (SolverOptions, SurrogateContext, _inner_ascent,
                         _project_array, project_feasible, qom_gradient,
                         solve_mcpa, surrogate_gradient, surrogate_total,
                         surrogate_value, waterfill)


def make_ctx(rng, num_robots=6, num_antennas=16, anchor=None):
    state = random_state(rng, num_robots=num_robots, num_antennas=num_antennas)
    params = random_params(rng, num_robots=num_robots)
    if anchor is None:
        anchor = random_feasible(rng, num_robots)
    ctx = SurrogateContext(anchor=PowerVector(anchor, BUDGET_W), params=params,
                           state=state, noise_power_w=NOISE_W)
    return ctx


def finite_difference_gradient(params, state, p, step):
    grad = np.zeros(p.size)
    for m in range(p.size):
        up, down = p.copy(), p.copy()
        up[m] += step
        down[m] -= step
        grad[m] = (qom_objective(params, state, up, NOISE_W)
                   - qom_objective(params, state, down, NOISE_W)) / (2 * step)
    return grad


# --- surrogate ---------------------------------------------------------------

def test_surrogate_equals_objective_at_anchor():
    rng = np.random.default_rng(1)
    for _ in range(30):
        ctx = make_ctx(rng)
        p_star = ctx.anchor.powers
        for k in range(ctx.num_robots):
            theta = ctx.params.weights[k] * np.log2(
                1.0 + ctx.state.gains[k] * p_star[k]
                / (ctx.coupling_offdiag[k] @ p_star * NOISE_W + NOISE_W))
            assert abs(surrogate_value(ctx, p_star, k) - theta) <= 1e-12 * (1 + abs(theta))


def test_surrogate_zero_weight_is_zero():
    rng = np.random.default_rng(2)
    state = random_state(rng, num_robots=4, num_antennas=8)
    params = QomParams(weights=np.zeros(4), effective_time_s=1.0,
                       gae_scores=np.ones(4))
    ctx = SurrogateContext(anchor=PowerVector.uniform(4, BUDGET_W), params=params,
                           state=state, noise_power_w=NOISE_W)
    p = random_feasible(rng, 4)
    assert surrogate_total(ctx, p) == 0.0
    assert np.all(surrogate_gradient(ctx, p) == 0.0)


def test_surrogate_exact_on_orthogonal_channels():
    rng = np.random.default_rng(3)
    gains = rng.uniform(1e-11, 1e-9, 5)
    state = orthogonal_state(gains)
    params = random_params(rng, 5)
    ctx = SurrogateContext(anchor=PowerVector.uniform(5, BUDGET_W), params=params,
                           state=state, noise_power_w=NOISE_W)
    for _ in range(10):
        p = random_feasible(rng, 5)
        truth = qom_objective(params, state, p, NOISE_W)
        assert surrogate_total(ctx, p) == pytest.approx(truth, rel=1e-12)
        gk = params.weights * gains / (np.log(2) * (NOISE_W + gains * p))
        assert surrogate_gradient(ctx, p) == pytest.approx(gk, rel=1e-10)


def test_surrogate_gradient_matches_finite_differences_at_anchor():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ctx = make_ctx(rng)
        p_star = ctx.anchor.powers
        analytic = surrogate_gradient(ctx, p_star)
        numeric = finite_difference_gradient(ctx.params, ctx.state, p_star,
                                             step=1e-6 * BUDGET_W)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * np.linalg.norm(numeric)
        # and the dedicated true-objective gradient agrees too
        assert qom_gradient(ctx.params, ctx.state, p_star, NOISE_W) == \
            pytest.approx(analytic, rel=1e-10)


def test_surrogate_minorizes_and_is_midpoint_concave():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ctx = make_ctx(rng)
        for _ in range(25):
            p = random_feasible(rng, ctx.num_robots)
            q = random_feasible(rng, ctx.num_robots)
            for k in range(ctx.num_robots):
                theta = ctx.params.weights[k] * np.log2(
                    1.0 + ctx.state.gains[k] * p[k]
                    / (ctx.coupling_offdiag[k] @ p * NOISE_W + NOISE_W))
                assert surrogate_value(ctx, p, k) <= theta + 1e-12
            mid = 0.5 * (p + q)
            assert surrogate_total(ctx, mid) >= \
                0.5 * (surrogate_total(ctx, p) + surrogate_total(ctx, q)) - 1e-12


# --- projection ---------------------------------------------------------------

def test_project_feasible_known_cases():
    assert np.allclose(project_feasible(np.array([0.05, 0.1]), 0.2).powers,
                       [0.05, 0.1])  # already feasible: unchanged
    assert np.allclose(project_feasible(np.array([0.3, 0.3]), 0.2).powers,
                       [0.1, 0.1])
    assert np.allclose(project_feasible(np.array([-1.0, 0.1]), 0.2).powers,
                       [0.0, 0.1])


def qp_projection_oracle(raw, budget):
    """The projection as a generic QP, solved by SLSQP."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    n = raw.size
    res = scipy_optimize.minimize(
        lambda q: 0.5 * np.sum((q - raw) ** 2), np.full(n, budget / n),
        jac=lambda q: q - raw, method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": lambda q: budget - q.sum()}],
        options={"ftol": 1e-14, "maxiter": 400})
    return res.x


def test_project_feasible_against_qp_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        raw = rng.normal(0.0, 0.3, n)
        budget = float(rng.uniform(0.05, 0.5))
        ours = project_feasible(raw, budget).powers
        assert np.allclose(ours, qp_projection_oracle(raw, budget), atol=5e-7)


@st.composite
def projection_cases(draw):
    """(raw point, budget) with the clipped sum below, at or above the
    budget, all-negative points, and ties drawn from a small value pool."""
    k = draw(st.integers(1, 8))
    value = st.one_of(st.floats(-0.5, 0.5, allow_subnormal=False),
                      st.sampled_from([-0.1, 0.0, 0.05, 0.1]))
    raw = np.array(draw(st.lists(value, min_size=k, max_size=k)))
    regime = draw(st.sampled_from(["below", "at", "above", "negative"]))
    if regime == "negative":
        raw = -np.abs(raw) - 1e-3
    clipped = float(np.add.reduce(np.maximum(raw, 0.0)))
    if regime == "at" and clipped > 0.0:
        return raw, clipped
    if regime == "above" and clipped > 0.0:
        return raw, clipped * draw(st.floats(0.05, 0.95))
    return raw, clipped + draw(st.floats(0.01, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(projection_cases())
def test_projection_kernel_properties(case):
    raw, budget = case
    q = _project_array(raw, budget)
    # feasible within the PowerVector tolerance; the simplex branch may
    # overshoot the budget by about one ulp of roundoff
    assert np.all(q >= 0.0)
    assert np.add.reduce(q) <= budget * (1.0 + 1e-9)
    again = _project_array(q, budget)
    if np.add.reduce(q) <= budget:
        assert np.array_equal(again, q)
    else:
        assert np.max(np.abs(again - q)) <= 4.0 * np.finfo(float).eps * budget
    assert project_feasible(raw, budget).powers.tobytes() == q.tobytes()
    assert np.allclose(q, qp_projection_oracle(raw, budget), atol=5e-7)


# --- inner solver -------------------------------------------------------------

def test_solve_inner_single_user_takes_whole_budget():
    state = orthogonal_state(np.array([1e-10]))
    params = QomParams(weights=np.array([0.3]), effective_time_s=1.0,
                       gae_scores=np.array([0.0]))
    ctx = SurrogateContext(anchor=PowerVector(np.array([0.01]), BUDGET_W),
                           params=params, state=state, noise_power_w=NOISE_W)
    result = _inner_ascent(ctx, BUDGET_W, tol=1e-10, max_iter=5000)
    assert result.powers[0] == pytest.approx(BUDGET_W, rel=1e-6)


def test_solve_inner_matches_waterfill_on_orthogonal_instance():
    rng = np.random.default_rng(7)
    gains = rng.uniform(1e-10, 2e-8, 10)
    state = orthogonal_state(gains)
    params = random_params(rng, 10)
    ctx = SurrogateContext(anchor=PowerVector.uniform(10, BUDGET_W), params=params,
                           state=state, noise_power_w=NOISE_W)
    inner = _inner_ascent(ctx, BUDGET_W, tol=1e-8, max_iter=5000)
    reference, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    assert np.max(np.abs(inner.powers - reference.powers)) <= 1e-3 * BUDGET_W
    # never worse than the anchor it started from
    assert surrogate_total(ctx, inner.powers) >= surrogate_total(ctx, ctx.anchor.powers)


def test_solve_inner_zero_weights_any_feasible():
    state = orthogonal_state(np.array([1e-10, 1e-10]))
    params = QomParams(weights=np.zeros(2), effective_time_s=1.0,
                       gae_scores=np.ones(2))
    ctx = SurrogateContext(anchor=PowerVector.uniform(2, BUDGET_W), params=params,
                           state=state, noise_power_w=NOISE_W)
    result = _inner_ascent(ctx, BUDGET_W, 1e-8, 100)
    assert surrogate_total(ctx, result.powers) == 0.0
    assert result.powers.sum() <= BUDGET_W * (1 + 1e-9)


# --- outer MM loop ------------------------------------------------------------

def test_solve_mcpa_all_weights_zero_converges_immediately():
    rng = np.random.default_rng(8)
    state = random_state(rng, num_robots=5, num_antennas=8)
    params = qom_weights(np.ones(5), DatasetMeta.uniform(5), 550.0, 1e7)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
    assert trace.stop_reason == "converged"
    assert trace.outer_iterations == 1
    assert trace.objective == 0.0
    assert np.allclose(trace.final.powers, BUDGET_W / 5)


def test_solve_mcpa_orthogonal_matches_waterfill():
    rng = np.random.default_rng(9)
    for _ in range(5):
        gains = rng.uniform(1e-10, 2e-8, 10)
        state = orthogonal_state(gains)
        params = random_params(rng, 10)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        reference, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
        assert np.max(np.abs(trace.final.powers - reference.powers)) <= 1e-3 * BUDGET_W


def test_solve_mcpa_monotone_ascent_over_seeds():
    converged = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        state = random_state(rng, num_robots=8, num_antennas=16,
                             d_range=(800.0, 4000.0))
        params = random_params(rng, 8, zero_fraction=0.3)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        objs = trace.objectives
        assert np.all(np.diff(objs) >= -1e-10 * (1.0 + np.abs(objs[:-1])))
        converged += trace.stop_reason == "converged"
    assert converged >= 95


def test_capped_inner_ascent_is_not_reported_converged():
    rng = np.random.default_rng(3)
    state = random_state(rng, num_robots=6, num_antennas=64)   # 50-250 m: high SNR
    params = random_params(rng, 6)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W, SolverOptions(max_inner=5))
    assert not all(trace.inner_converged)
    assert trace.stop_reason == "inexact"
    assert len(trace.inner_converged) == len(trace.inner_iterations) == trace.outer_iterations


# Pinned from the solver before its inner loop was rewritten for speed: the
# MM iterate path must not move by a single bit. Town-like instance (K=10,
# N=256, 50-250 m) from conftest seed 14. The values are the IEEE doubles of
# one fixed sequence of numpy/BLAS operations, so a BLAS build with other
# summation kernels may legitimately move them.
GOLDEN_SOLVES = {
    "mcpa": (
        [193, 520, 528, 509, 438, 410, 329],
        ["0x1.d3c0c88bc3296p-7", "0x1.e8086ca7003aep-10", "0x1.49629cbdf318ep-7",
         "0x1.5ecd0a94cac0bp-6", "0x1.8959e0c75e039p-5", "0x1.0bd78ddeeb9adp-10",
         "0x1.8a6b6e79d0073p-5", "0x1.9492b200062ebp-7", "0x1.0a170a71f8536p-9",
         "0x1.4e8c9b8d14fb7p-5"],
        "0x1.62efe86226e78p+2",
    ),
    "unit": (
        [119, 155, 157, 146, 131, 121],
        ["0x1.4acf0321a5912p-5", "0x1.a9a5c1e2c6ccfp-8", "0x1.f64215e4a1804p-7",
         "0x1.140fb5e62c178p-5", "0x1.528c760f29fe6p-6", "0x1.36b22c3a2abd1p-7",
         "0x1.310686f6d55f7p-6", "0x1.34bae9db1cc9ap-6", "0x1.2860412f7b6cap-6",
         "0x1.2d7da1247a162p-6"],
        "0x1.65b1f75b5a141p+5",
    ),
}


@pytest.mark.parametrize("weights", sorted(GOLDEN_SOLVES))
def test_solve_mcpa_iterate_path_is_pinned(weights, monkeypatch):
    rng = np.random.default_rng(14)
    state = random_state(rng, num_robots=10, num_antennas=256)
    params = random_params(rng, 10) if weights == "mcpa" else unit_rate_params(10)
    simplex_hits = []

    def counting_projection(p_raw, budget):
        simplex_hits.append(np.add.reduce(np.maximum(p_raw, 0.0)) > budget)
        return _project_array(p_raw, budget)

    monkeypatch.setattr(mcpa.solver, "_project_array", counting_projection)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
    inner, powers, objective = GOLDEN_SOLVES[weights]
    assert any(simplex_hits)
    assert trace.stop_reason == "converged"
    assert trace.inner_iterations == inner
    assert [x.hex() for x in trace.final.powers.tolist()] == powers
    assert trace.objective.hex() == objective


def test_solve_mcpa_rejects_infeasible_start():
    rng = np.random.default_rng(10)
    state = random_state(rng, num_robots=3, num_antennas=8)
    params = random_params(rng, 3)
    bad = PowerVector(np.full(3, BUDGET_W / 3), BUDGET_W)
    object.__setattr__(bad, "powers", np.full(3, BUDGET_W))  # bypass ctor check
    with pytest.raises(ValueError):
        solve_mcpa(params, state, BUDGET_W, NOISE_W, start=bad)
    with pytest.raises(ValueError, match="budget"):
        solve_mcpa(params, state, 0.0, NOISE_W)


# --- water-filling ------------------------------------------------------------

def test_waterfill_shutoff_single_user_and_symmetry():
    meta = DatasetMeta.uniform(3)
    params = qom_weights([1.0, 0.2, 0.2], meta, 550.0, 1e7)
    gains = np.array([1e-9, 1e-9, 1e-9])
    result, level = waterfill(params, gains, NOISE_W, BUDGET_W)
    assert result.powers[0] == 0.0  # GAE = 1 shuts the robot off exactly
    assert result.powers[1] == pytest.approx(result.powers[2], rel=1e-12)

    single = qom_weights([0.5], DatasetMeta.uniform(1), 550.0, 1e7)
    result, _ = waterfill(single, np.array([1e-9]), NOISE_W, BUDGET_W)
    assert result.powers[0] == pytest.approx(BUDGET_W, rel=1e-9)


def test_waterfill_all_zero_weights_flagged():
    params = qom_weights(np.ones(4), DatasetMeta.uniform(4), 550.0, 1e7)
    result, level = waterfill(params, np.full(4, 1e-9), NOISE_W, BUDGET_W)
    assert level is None
    assert np.all(result.powers == 0.0)


def test_waterfill_budget_tightness_and_kkt():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = 10
        lam = rng.uniform(0.1, 1.0, k)
        lam[rng.integers(k)] = 0.0
        params = QomParams(weights=lam, effective_time_s=1.0,
                           gae_scores=(lam == 0.0).astype(float))
        gains = rng.uniform(1e-13, 1e-11, k)
        result, nu = waterfill(params, gains, NOISE_W, BUDGET_W)
        p = result.powers
        assert abs(p.sum() - BUDGET_W) <= 1e-9 * BUDGET_W
        floors = NOISE_W / gains
        active = p > 0.0
        assert np.all(np.abs(nu * lam[active] - floors[active] - p[active])
                      <= 1e-12 + 1e-9 * BUDGET_W)
        assert np.all(nu * lam[~active] <= floors[~active] + 1e-9 * BUDGET_W)


def test_waterfill_matches_dense_grid_oracle():
    rng = np.random.default_rng(12)
    k = 10
    lam = rng.uniform(0.8, 1.0, k)
    params = QomParams(weights=lam, effective_time_s=1.0, gae_scores=1.0 - lam)
    gains = rng.uniform(1e-6, 1e-5, k)   # floors ~ 1e-8..1e-7, all users active
    result, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    floors = NOISE_W / gains
    hi = (BUDGET_W + floors.sum()) / lam.min()
    grid = np.linspace(0.0, hi, 1_000_000)
    spent = np.maximum(0.0, grid[:, None] * lam[None, :] - floors[None, :]).sum(axis=1)
    best = grid[np.argmin(np.abs(spent - BUDGET_W))]
    oracle = np.maximum(0.0, best * lam - floors)
    assert np.max(np.abs(result.powers - oracle)) <= 1e-6 * BUDGET_W


def test_waterfill_power_order_mirrors_novelty_on_symmetric_channels():
    meta = DatasetMeta.uniform(4)
    params = qom_weights([0.1, 0.3, 0.6, 0.9], meta, 550.0, 1e7)
    gains = np.full(4, 1e-10)
    result, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    p = result.powers
    assert p[0] >= p[1] >= p[2] >= p[3]
