import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcpa.solver
from conftest import (BUDGET_W, CONFIG_DIR, NOISE_W, orthogonal_state, random_feasible,
                      random_params, random_state)
from mcpa.baselines import unit_rate_params
from mcpa.channel import ChannelState
from mcpa.config import build_scenario, load_config
from mcpa.harness import prepare_seed, run_method
from mcpa.qom import DatasetMeta, qom_objective, qom_weights
from mcpa.solver import SolverOptions, SurrogateContext, _inner_ascent, solve_mcpa, waterfill
from reference_solver import _inner_ascent as reference_inner_ascent
from reference_solver import newton_direction as reference_newton_direction
from reference_solver import (_project_array, bisection_waterfill, project_feasible,
                              surrogate_gradient, surrogate_total, surrogate_value)


def make_ctx(rng, num_robots=6, num_antennas=16, anchor=None):
    state = random_state(rng, num_robots=num_robots, num_antennas=num_antennas)
    params = random_params(rng, num_robots=num_robots)
    if anchor is None:
        anchor = random_feasible(rng, num_robots)
    ctx = SurrogateContext(anchor=anchor, weights=params,
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
        p_star = ctx.anchor
        for k in range(ctx.num_robots):
            theta = ctx.weights[k] * np.log2(
                1.0 + ctx.state.gains[k] * p_star[k]
                / (ctx.coupling_offdiag[k] @ p_star * NOISE_W + NOISE_W))
            assert abs(surrogate_value(ctx, p_star, k) - theta) <= 1e-12 * (1 + abs(theta))


def test_surrogate_zero_weight_is_zero():
    rng = np.random.default_rng(2)
    state = random_state(rng, num_robots=4, num_antennas=8)
    ctx = SurrogateContext(anchor=np.full(4, BUDGET_W / 4), weights=np.zeros(4),
                           state=state, noise_power_w=NOISE_W)
    p = random_feasible(rng, 4)
    assert surrogate_total(ctx, p) == 0.0
    assert np.all(surrogate_gradient(ctx, p) == 0.0)


def test_surrogate_exact_on_orthogonal_channels():
    rng = np.random.default_rng(3)
    gains = rng.uniform(1e-11, 1e-9, 5)
    state = orthogonal_state(gains)
    params = random_params(rng, 5)
    ctx = SurrogateContext(anchor=np.full(5, BUDGET_W / 5), weights=params,
                           state=state, noise_power_w=NOISE_W)
    for _ in range(10):
        p = random_feasible(rng, 5)
        truth = qom_objective(params, state, p, NOISE_W)
        assert surrogate_total(ctx, p) == pytest.approx(truth, rel=1e-12)
        gk = params * gains / (np.log(2) * (NOISE_W + gains * p))
        assert surrogate_gradient(ctx, p) == pytest.approx(gk, rel=1e-10)


def test_surrogate_gradient_matches_finite_differences_at_anchor():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ctx = make_ctx(rng)
        p_star = ctx.anchor
        analytic = surrogate_gradient(ctx, p_star)
        numeric = finite_difference_gradient(ctx.weights, ctx.state, p_star,
                                             step=1e-6 * BUDGET_W)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * np.linalg.norm(numeric)


def test_surrogate_minorizes_and_is_midpoint_concave():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ctx = make_ctx(rng)
        for _ in range(25):
            p = random_feasible(rng, ctx.num_robots)
            q = random_feasible(rng, ctx.num_robots)
            for k in range(ctx.num_robots):
                theta = ctx.weights[k] * np.log2(
                    1.0 + ctx.state.gains[k] * p[k]
                    / (ctx.coupling_offdiag[k] @ p * NOISE_W + NOISE_W))
                assert surrogate_value(ctx, p, k) <= theta + 1e-12
            mid = 0.5 * (p + q)
            assert surrogate_total(ctx, mid) >= \
                0.5 * (surrogate_total(ctx, p) + surrogate_total(ctx, q)) - 1e-12


# --- projection ---------------------------------------------------------------

def test_project_feasible_known_cases():
    assert np.allclose(project_feasible(np.array([0.05, 0.1]), 0.2),
                       [0.05, 0.1])  # already feasible: unchanged
    assert np.allclose(project_feasible(np.array([0.3, 0.3]), 0.2),
                       [0.1, 0.1])
    assert np.allclose(project_feasible(np.array([-1.0, 0.1]), 0.2),
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
        ours = project_feasible(raw, budget)
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


@settings(max_examples=150)
@given(projection_cases())
def test_projection_kernel_properties(case):
    raw, budget = case
    q = _project_array(raw, budget)
    # feasible within the allocation check's tolerance; the simplex branch may
    # overshoot the budget by about one ulp of roundoff
    assert np.all(q >= 0.0)
    assert np.add.reduce(q) <= budget * (1.0 + 1e-9)
    again = _project_array(q, budget)
    if np.add.reduce(q) <= budget:
        assert np.array_equal(again, q)
    else:
        assert np.max(np.abs(again - q)) <= 4.0 * np.finfo(float).eps * budget
    assert project_feasible(raw, budget).tobytes() == q.tobytes()
    assert np.allclose(q, qp_projection_oracle(raw, budget), atol=5e-7)


# --- inner solver -------------------------------------------------------------

def test_solve_inner_single_user_takes_whole_budget():
    state = orthogonal_state(np.array([1e-10]))
    ctx = SurrogateContext(anchor=np.array([0.01]),
                           weights=np.array([0.3]), state=state, noise_power_w=NOISE_W)
    result = _inner_ascent(ctx, BUDGET_W, tol=1e-10, max_iter=5000)
    assert result.powers[0] == pytest.approx(BUDGET_W, rel=1e-6)


def test_solve_inner_matches_waterfill_on_orthogonal_instance():
    rng = np.random.default_rng(7)
    gains = rng.uniform(1e-10, 2e-8, 10)
    state = orthogonal_state(gains)
    params = random_params(rng, 10)
    ctx = SurrogateContext(anchor=np.full(10, BUDGET_W / 10), weights=params,
                           state=state, noise_power_w=NOISE_W)
    inner = _inner_ascent(ctx, BUDGET_W, tol=1e-8, max_iter=5000)
    reference, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    assert np.max(np.abs(inner.powers - reference)) <= 1e-3 * BUDGET_W
    # never worse than the anchor it started from
    assert surrogate_total(ctx, inner.powers) >= surrogate_total(ctx, ctx.anchor)


def test_solve_inner_zero_weights_any_feasible():
    state = orthogonal_state(np.array([1e-10, 1e-10]))
    ctx = SurrogateContext(anchor=np.full(2, BUDGET_W / 2), weights=np.zeros(2),
                           state=state, noise_power_w=NOISE_W)
    result = _inner_ascent(ctx, BUDGET_W, 1e-8, 100)
    assert surrogate_total(ctx, result.powers) == 0.0
    assert result.powers.sum() <= BUDGET_W * (1 + 1e-9)


def slsqp_surrogate_max(ctx, budget):
    """The surrogate maximum as a generic NLP, solved by SLSQP and
    evaluated at the projection of its answer onto the feasible set."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    k = ctx.num_robots
    res = scipy_optimize.minimize(
        lambda q: -surrogate_total(ctx, q), ctx.anchor,
        jac=lambda q: -surrogate_gradient(ctx, q), method="SLSQP",
        bounds=[(0.0, None)] * k,
        constraints=[{"type": "ineq", "fun": lambda q: budget - q.sum(),
                      "jac": lambda q: -np.ones(k)}],
        options={"ftol": 1e-15, "maxiter": 500})
    return surrogate_total(ctx, project_feasible(res.x, budget))


@st.composite
def surrogate_cases(draw):
    """A surrogate over K 1-12 robots and N 1-256 antennas at high-SNR
    (50-250 m) or low-SNR (800-4000 m) geometry, with no, some or all
    weights zero, anchored at the uniform split or a random interior point.
    Returns the context and whether the draw is low-SNR."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 256))
    low_snr = draw(st.booleans())
    zero_fraction = draw(st.sampled_from([0.0, 0.5, 1.0]))
    uniform_anchor = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, num_robots=k, num_antennas=n,
                         d_range=(800.0, 4000.0) if low_snr else (50.0, 250.0))
    params = random_params(rng, k, zero_fraction=zero_fraction)
    anchor = np.full(k, BUDGET_W / k) if uniform_anchor else random_feasible(rng, k)
    ctx = SurrogateContext(anchor=anchor, weights=params,
                           state=state, noise_power_w=NOISE_W)
    return ctx, low_snr


@settings(max_examples=40)
@given(surrogate_cases())
def test_inner_solve_is_exact_on_random_surrogates(case):
    ctx, low_snr = case
    result = _inner_ascent(ctx, BUDGET_W, 1e-8, 5000)
    p, f = result.powers, result.objective
    assert result.converged
    assert np.all(p >= 0.0) and np.add.reduce(p) <= BUDGET_W * (1.0 + 1e-9)
    assert f == surrogate_total(ctx, p)
    assert f >= surrogate_total(ctx, ctx.anchor)
    # the projected-gradient reference is a lower bound even when capped
    slack = 1e-12 * (1.0 + abs(f))
    assert f >= reference_inner_ascent(ctx, BUDGET_W, 1e-8, 300).objective - slack
    assert f >= slsqp_surrogate_max(ctx, BUDGET_W) - slack
    if low_snr:   # the reference MM loop is fast only here
        trace = solve_mcpa(ctx.weights, ctx.state, BUDGET_W, NOISE_W)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcpa.solver, "_inner_ascent", reference_inner_ascent)
            reference = solve_mcpa(ctx.weights, ctx.state, BUDGET_W, NOISE_W)
        assert trace.objective >= reference.objective \
            - SolverOptions().outer_tol * (1.0 + abs(trace.objective))


# --- Newton step --------------------------------------------------------------

@st.composite
def newton_cases(draw):
    """The arguments of one Newton step: a surrogate from
    :func:`surrogate_cases`, A p + 1 and the gradient at a random interior
    point p, a random nonempty free subset, and whether the budget binds."""
    ctx, _ = draw(surrogate_cases())
    k = ctx.num_robots
    p = random_feasible(np.random.default_rng(draw(st.integers(0, 99))), k)
    full = ctx.coupling.dot(p) + 1.0
    free = np.array(sorted(draw(st.sets(st.integers(0, k - 1), min_size=1))), dtype=np.intp)
    return ctx, full, ctx.gradient_from_full(full)[free], free, draw(st.booleans())


def coupled_pair(gain=1e-9):
    """Two robots with equal gains, each seeing half the other's gain."""
    return ChannelState(gains=np.array([gain, gain]),
                        interference=np.array([[gain, gain / 2], [gain / 2, gain]]))


def assert_matches_reference(case):
    """The reference step's Cholesky probe succeeds at its first 1e-10
    shift, so one shifted solve gives LAPACK the matrices the retry loop and
    np.block gave it: the step and the budget multiplier keep every bit."""
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        expected_d, expected_nu = reference_newton_direction(*case)
    assert cholesky.call_count == 1
    d, nu = mcpa.solver._newton_direction(*case)
    assert d.tobytes() == expected_d.tobytes()
    assert nu.hex() == expected_nu.hex()


@settings(max_examples=250)
@given(newton_cases())
def test_newton_direction_is_bit_identical_to_the_block_assembly(case):
    assert_matches_reference(case)


def test_every_newton_step_of_a_town_solve_is_bit_identical_to_the_reference(monkeypatch):
    """The same on each Newton step of the town K=50 seed 0 mcpa solve."""
    scenario = build_scenario({**load_config(CONFIG_DIR / "town.json"), "num_robots": 50})
    stage = prepare_seed(scenario, 0)
    newton_direction = mcpa.solver._newton_direction
    steps = []

    def recording_direction(*case):
        steps.append(case)
        return newton_direction(*case)

    monkeypatch.setattr(mcpa.solver, "_newton_direction", recording_direction)
    assert not run_method(stage, scenario, "mcpa").failure
    monkeypatch.undo()
    assert len(steps) > 50
    for case in steps:
        assert_matches_reference(case)


# --- outer MM loop ------------------------------------------------------------

def test_solve_mcpa_all_weights_zero_converges_immediately():
    rng = np.random.default_rng(8)
    state = random_state(rng, num_robots=5, num_antennas=8)
    params = qom_weights(np.ones(5), DatasetMeta.uniform(5), 550.0, 1e7)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
    assert trace.stop_reason == "converged"
    assert trace.outer_iterations == 1
    assert trace.objective == 0.0
    assert np.allclose(trace.final, BUDGET_W / 5)


def test_solve_mcpa_orthogonal_matches_waterfill():
    rng = np.random.default_rng(9)
    for _ in range(5):
        gains = rng.uniform(1e-10, 2e-8, 10)
        state = orthogonal_state(gains)
        params = random_params(rng, 10)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        reference, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
        assert np.max(np.abs(trace.final - reference)) <= 1e-3 * BUDGET_W


def test_solve_mcpa_monotone_ascent_over_seeds():
    converged = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        state = random_state(rng, num_robots=8, num_antennas=16,
                             d_range=(800.0, 4000.0))
        params = random_params(rng, 8, zero_fraction=0.3)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        objs = np.array([obj for _, obj, _ in trace.iterates])
        assert np.all(np.diff(objs) >= -1e-10 * (1.0 + np.abs(objs[:-1])))
        converged += trace.stop_reason == "converged"
    assert converged >= 95


def test_capped_inner_ascent_is_not_reported_converged():
    rng = np.random.default_rng(3)
    state = random_state(rng, num_robots=6, num_antennas=64)   # 50-250 m: high SNR
    params = random_params(rng, 6)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W, SolverOptions(max_inner=3))
    assert not all(trace.inner_converged)
    assert trace.stop_reason == "inexact"
    assert len(trace.inner_converged) == len(trace.inner_iterations) == trace.outer_iterations


@pytest.mark.parametrize("seed", [25, 34])
def test_high_snr_solves_converge_without_inner_cap_hits(seed):
    """Town-like instances (K=10, N=256, 50-250 m) on which a projected
    gradient inner loop ran 21 of 24 and 22 of 22 inner solves into
    ``max_inner``; iteration counts are deterministic, so no timing enters."""
    rng = np.random.default_rng(seed)
    state = random_state(rng, num_robots=10, num_antennas=256)
    params = random_params(rng, 10)
    opts = SolverOptions()
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W, opts)
    assert trace.stop_reason == "converged"
    assert all(trace.inner_converged)
    assert max(trace.inner_iterations) < opts.max_inner
    assert sum(trace.inner_iterations) < 500


def surrogate_kkt_residual(ctx, p, budget):
    """Largest violation of the surrogate's KKT conditions at p, in objective
    units per budget and relative to 1 + |That|: on the free coordinates the
    gradient is one common multiplier nu >= 0 (nu = 0 off the budget), and
    on the coordinates held at zero it is at most nu."""
    g = surrogate_gradient(ctx, p)
    free = p > 0.0
    on_budget = np.add.reduce(p) >= budget * (1.0 - 1e-9)
    nu = float(np.mean(g[free])) if on_budget else 0.0
    violation = max(np.max(np.abs(g[free] - nu), initial=0.0),
                    np.max(g[~free] - nu, initial=0.0), -nu)
    return violation * budget / (1.0 + abs(surrogate_total(ctx, p)))


# Pinned from the active-set Newton inner solver on a town-like instance
# (K=10, N=256, 50-250 m) from conftest seed 14: per inner solve its
# iterations and how often its working set changed, whether the first
# inner solve took the water-filling start, then the final powers and
# objective. The mcpa solve's first inner solve starts at the water-filling
# split, which already has the optimal zeros; the unit-weight answer stays
# on the budget face with every robot free, and the water-filling split
# loses to its anchor. The doubles come from one fixed sequence of
# numpy/LAPACK operations, so a BLAS build with other kernels may
# legitimately move their last bits.
GOLDEN_ANSWERS = {
    "mcpa": (
        [7, 6, 4, 4, 3, 3, 3],
        [0, 0, 0, 0, 0, 0, 0],
        True,
        ["0x1.d3c0c52b75365p-7", "0x1.e80868b706d53p-10", "0x1.49629bfaba137p-7",
         "0x1.5ecd0874428d8p-6", "0x1.8959e113e706cp-5", "0x1.0bd78e68e378dp-10",
         "0x1.8a6b746eb4f72p-5", "0x1.9492b19901272p-7", "0x1.0a170a0a69e3dp-9",
         "0x1.4e8c97a03714cp-5"],
        "0x1.62efe8622adafp+2",
    ),
    "unit": (
        [6, 5, 4, 3, 3, 3],
        [0, 0, 0, 0, 0, 0],
        False,
        ["0x1.4acf03c1dd20cp-5", "0x1.a9a5c1eb2c0ddp-8", "0x1.f64215b849db3p-7",
         "0x1.140fb577723f2p-5", "0x1.528c76055e78cp-6", "0x1.36b22c1d42473p-7",
         "0x1.310686eec127ep-6", "0x1.34bae9cdb6b4dp-6", "0x1.2860411e13fbap-6",
         "0x1.2d7da114b2a6dp-6"],
        "0x1.65b1f75b5a2f1p+5",
    ),
}
KKT_BOUND = 1e-7


@pytest.mark.parametrize("weights", sorted(GOLDEN_ANSWERS))
def test_solve_mcpa_answer_is_pinned(weights, monkeypatch):
    rng = np.random.default_rng(14)
    state = random_state(rng, num_robots=10, num_antennas=256)
    params = random_params(rng, 10) if weights == "mcpa" else unit_rate_params(10)
    newton_direction = mcpa.solver._newton_direction
    inner_ascent = mcpa.solver._inner_ascent
    working_sets, residuals = [], []

    def recording_direction(ctx, full, g_free, free, on_budget):
        working_sets[-1].append((free.tolist(), on_budget))
        return newton_direction(ctx, full, g_free, free, on_budget)

    def checked_inner_ascent(ctx, budget, tol, max_iter, start=None):
        working_sets.append([])
        result = inner_ascent(ctx, budget, tol, max_iter, start)
        residuals.append(surrogate_kkt_residual(ctx, result.powers, budget))
        return result

    monkeypatch.setattr(mcpa.solver, "_newton_direction", recording_direction)
    monkeypatch.setattr(mcpa.solver, "_inner_ascent", checked_inner_ascent)
    trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
    inner, changes, warm_start, powers, objective = GOLDEN_ANSWERS[weights]
    assert trace.stop_reason == "converged"
    assert trace.inner_iterations == inner
    assert [sum(a != b for a, b in zip(sets, sets[1:])) for sets in working_sets] == changes
    assert trace.warm_start is warm_start
    assert max(residuals) <= KKT_BOUND
    assert [x.hex() for x in trace.final.tolist()] == powers
    assert trace.objective.hex() == objective


def test_cold_inner_solve_adds_and_drops_bounds(monkeypatch):
    """The mcpa pin's first surrogate solved from its anchor, the uniform
    split, without the water-filling start: the active-set path still adds
    and drops bounds before it ends with the zeros (none) that the
    water-filling start already has."""
    rng = np.random.default_rng(14)
    state = random_state(rng, num_robots=10, num_antennas=256)
    ctx = SurrogateContext(anchor=np.full(10, BUDGET_W / 10), weights=random_params(rng, 10),
                           state=state, noise_power_w=NOISE_W)
    newton_direction = mcpa.solver._newton_direction
    working_sets = []

    def recording_direction(ctx, full, g_free, free, on_budget):
        working_sets.append((free.tolist(), on_budget))
        return newton_direction(ctx, full, g_free, free, on_budget)

    monkeypatch.setattr(mcpa.solver, "_newton_direction", recording_direction)
    cold = _inner_ascent(ctx, BUDGET_W, 1e-8, 5000)
    assert cold.converged and cold.iterations == 24
    assert sum(a != b for a, b in zip(working_sets, working_sets[1:])) == 4
    assert surrogate_kkt_residual(ctx, cold.powers, BUDGET_W) <= KKT_BOUND
    start = mcpa.solver._waterfill_start(ctx, BUDGET_W)
    assert np.array_equal(start == 0.0, cold.powers == 0.0)
    warm = _inner_ascent(ctx, BUDGET_W, 1e-8, 5000, start)
    assert warm.iterations == 7
    assert abs(warm.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))


def frozen_interference_waterfill(ctx, budget):
    """Water-filling on the gains the anchor's interference leaves, as
    :func:`mcpa.solver._waterfill_start` computes it before its checks."""
    return waterfill(ctx.weights, ctx.coupling.diagonal() / ctx.anchor_denominators,
                     1.0, budget).power


# The inner stop rule bounds the Newton step in watts (inner_tol * P_sum),
# not the gradient, so at high SNR the KKT residual in objective units
# reaches 1.2e-7 from either start and 2.1e-7 from the anchor on the
# derandomized draws below (K=5 N=256, K=4 N=1, both 50-250 m)
RANDOM_KKT_BOUND = 1e-6


@settings(max_examples=40)
@given(surrogate_cases())
def test_inner_solves_from_both_starts_agree(case):
    ctx, _ = case
    guess = frozen_interference_waterfill(ctx, BUDGET_W)
    assert np.all(guess >= 0.0) and np.add.reduce(guess) <= BUDGET_W * (1.0 + 1e-12)
    start = mcpa.solver._waterfill_start(ctx, BUDGET_W)
    if start is not None:
        assert start.tobytes() == guess.tobytes()
        assert surrogate_total(ctx, start) > surrogate_total(ctx, ctx.anchor)
    anchor_value = surrogate_total(ctx, ctx.anchor)
    cold = _inner_ascent(ctx, BUDGET_W, 1e-8, 5000)
    newton_direction = mcpa.solver._newton_direction
    free_sets = []

    def recording_direction(ctx, full, g_free, free, on_budget):
        free_sets.append(free.tolist())
        return newton_direction(ctx, full, g_free, free, on_budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcpa.solver, "_newton_direction", recording_direction)
        warm = _inner_ascent(ctx, BUDGET_W, 1e-8, 5000, guess)
    # the working set starts as the start's zeros
    assert free_sets[:1] in ([], [np.flatnonzero(guess).tolist()])
    for result in (cold, warm):
        p, f = result.powers, result.objective
        assert result.converged
        assert np.all(p >= 0.0) and np.add.reduce(p) <= BUDGET_W * (1.0 + 1e-9)
        assert f == surrogate_total(ctx, p)
        assert f >= anchor_value
        assert surrogate_kkt_residual(ctx, p, BUDGET_W) <= RANDOM_KKT_BOUND
    assert abs(warm.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))


@pytest.mark.parametrize("overspend, scaled", [(2, False), (2**20, True)])
def test_waterfill_start_scales_an_overspent_split_into_the_budget(overspend, scaled,
                                                                   monkeypatch):
    """A split that spends more than budget (1 + 1e-12) is scaled into the
    budget; a few ulp over, as roundoff leaves it, it passes unchanged."""
    ctx = SurrogateContext(anchor=np.full(2, BUDGET_W / 2), weights=np.array([1.0, 0.0]),
                           state=coupled_pair(), noise_power_w=NOISE_W)
    split = np.array([BUDGET_W * (1.0 + overspend * np.finfo(float).eps), 0.0])
    monkeypatch.setattr(mcpa.solver, "_waterfill",
                        lambda *args: mcpa.solver.WaterfillResult(split.copy(), 1.0))
    start = mcpa.solver._waterfill_start(ctx, BUDGET_W)
    assert np.add.reduce(start) <= BUDGET_W * (1.0 + 1e-12)
    assert (start.tobytes() != split.tobytes()) is scaled
    assert start[0] == pytest.approx(BUDGET_W, rel=1e-15) and start[1] == 0.0


def lone_or_idle_case(weights):
    """A surrogate_cases value with the given weights on a K = len(weights) channel."""
    k = len(weights)
    state = random_state(np.random.default_rng(k), num_robots=k, num_antennas=4)
    return SurrogateContext(anchor=np.full(k, BUDGET_W / k), weights=np.array(weights),
                            state=state, noise_power_w=NOISE_W), False


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40)
@given(surrogate_cases())
@example(lone_or_idle_case([0.7]))
@example(lone_or_idle_case([0.0]))
@example(lone_or_idle_case([0.0] * 6))
def test_each_reanchored_surrogate_equals_a_fresh_one(case):
    """solve_mcpa builds its surrogate's constants once and moves only the
    anchor: at every outer iteration, the surrogate it maximizes is anchored
    at the iterate before it and holds, array for array, the bytes of one
    built from scratch there."""
    ctx, _ = case
    arrays = [f.name for f in dataclasses.fields(SurrogateContext)
              if f.name not in ("state", "noise_power_w")]
    anchors, matched = [], []

    def spy(surrogate, *args):
        anchors.append(surrogate.anchor.tobytes())
        fresh = SurrogateContext(surrogate.anchor.copy(), ctx.weights, ctx.state, NOISE_W)
        matched.append(all(same_bytes(getattr(surrogate, name), getattr(fresh, name))
                           for name in arrays))
        return _inner_ascent(surrogate, *args)
    with mock.patch.object(mcpa.solver, "_inner_ascent", spy):
        trace = solve_mcpa(ctx.weights, ctx.state, BUDGET_W, NOISE_W)
    assert anchors == [p.tobytes() for p, _, _ in trace.iterates[:-1]]
    assert all(matched)


@settings(max_examples=40)
@given(surrogate_cases())
def test_warm_start_keeps_the_cold_solve_path(case):
    """solve_mcpa against itself with the water-filling start switched off:
    the same stop and outer iteration count, and QoM to 1e-12 relative."""
    ctx, _ = case
    trace = solve_mcpa(ctx.weights, ctx.state, BUDGET_W, NOISE_W)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcpa.solver, "_waterfill_start", lambda ctx, budget: None)
        cold = solve_mcpa(ctx.weights, ctx.state, BUDGET_W, NOISE_W)
    assert not cold.warm_start
    assert trace.stop_reason == cold.stop_reason
    assert trace.outer_iterations == cold.outer_iterations
    assert abs(trace.objective - cold.objective) <= 1e-12 * abs(cold.objective)
    if not trace.warm_start:
        assert trace.final.tobytes() == cold.final.tobytes()


def test_solve_mcpa_rejects_nonpositive_budget():
    rng = np.random.default_rng(10)
    state = random_state(rng, num_robots=3, num_antennas=8)
    params = random_params(rng, 3)
    with pytest.raises(ValueError, match="budget"):
        solve_mcpa(params, state, 0.0, NOISE_W)


# --- water-filling ------------------------------------------------------------

def test_waterfill_shutoff_single_user_and_symmetry():
    meta = DatasetMeta.uniform(3)
    params = qom_weights([1.0, 0.2, 0.2], meta, 550.0, 1e7)
    gains = np.array([1e-9, 1e-9, 1e-9])
    result, level = waterfill(params, gains, NOISE_W, BUDGET_W)
    assert result[0] == 0.0  # GAE = 1 shuts the robot off exactly
    assert result[1] == pytest.approx(result[2], rel=1e-12)

    single = qom_weights([0.5], DatasetMeta.uniform(1), 550.0, 1e7)
    result, _ = waterfill(single, np.array([1e-9]), NOISE_W, BUDGET_W)
    assert result[0] == pytest.approx(BUDGET_W, rel=1e-9)


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [-1.0, 1.0], [math.inf, 1.0],
                                     [1.0, 1.0, 1.0]])
def test_waterfill_rejects_the_weights_solve_mcpa_rejects(weights):
    gains = np.full(2, 1e-10)
    with pytest.raises(ValueError, match="K = 2 finite, nonnegative"):
        waterfill(weights, gains, NOISE_W, BUDGET_W)
    with pytest.raises(ValueError, match="K = 2 finite, nonnegative"):
        solve_mcpa(weights, orthogonal_state(gains), BUDGET_W, NOISE_W)


@pytest.mark.parametrize("weights", [[1.0, math.inf], [1.0, -0.3]])
def test_surrogate_context_rejects_the_weights_solve_mcpa_rejects(weights):
    """An infinite weight would give a NaN Newton step and a negative one an
    indefinite surrogate that the inner loop reports as converged."""
    with pytest.raises(ValueError, match="K = 2 finite, nonnegative"):
        SurrogateContext(anchor=np.full(2, BUDGET_W / 2), weights=np.array(weights),
                         state=coupled_pair(), noise_power_w=1e-9)


@pytest.mark.parametrize("anchor", [np.full(1, BUDGET_W), np.full(3, BUDGET_W / 3),
                                    np.full((2, 2), BUDGET_W / 4)], ids=["1", "3", "2x2"])
def test_surrogate_context_rejects_an_anchor_of_another_size(anchor):
    with pytest.raises(ValueError, match="anchor and channel state disagree"):
        SurrogateContext(anchor=anchor, weights=np.ones(2), state=coupled_pair(),
                         noise_power_w=1e-9)


def test_waterfill_all_zero_weights_flagged():
    params = qom_weights(np.ones(4), DatasetMeta.uniform(4), 550.0, 1e7)
    result, level = waterfill(params, np.full(4, 1e-9), NOISE_W, BUDGET_W)
    assert level is None
    assert np.all(result == 0.0)


@st.composite
def waterfill_cases(draw):
    """(weights, gains, budget) over K 1-12 robots, with none, some or all
    weights zero, maybe a zero gain, maybe robots tied on the threshold
    s2 / (H_k lambda_k) of robot 0, gains 1e-14 to 1e-4 and budgets 1e-3 to
    10 W (both log-uniform)."""
    k = draw(st.integers(1, 12))
    lam = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    gains = 10.0 ** np.array(draw(st.lists(st.floats(-14.0, -4.0), min_size=k, max_size=k)))
    zeros = draw(st.sampled_from(["none", "some", "all"]))
    if zeros == "some":
        lam[draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k))] = 0.0
    elif zeros == "all":
        lam[:] = 0.0
    tied = draw(st.lists(st.integers(0, k - 1), max_size=k))
    lam[tied], gains[tied] = lam[0], gains[0]
    if draw(st.booleans()):
        gains[draw(st.integers(0, k - 1))] = 0.0
    return lam, gains, 10.0 ** draw(st.floats(-3.0, 1.0))


@settings(max_examples=200)
@given(waterfill_cases())
# twelve tied robots whose floors s2/H_k are 1e4 times the budget: a level
# taken from sums of the floors loses the budget to cancellation
@example((np.full(12, 0.01), np.full(12, 1e-14), 1e-3))
def test_waterfill_budget_tightness_and_kkt(case):
    lam, gains, budget = case
    result, nu = waterfill(lam, gains, NOISE_W, budget)
    reference = bisection_waterfill(lam, gains, NOISE_W, budget)
    p = result
    usable = (lam > 0.0) & (gains > 0.0)
    if not usable.any():
        assert nu is None and reference.level is None
        assert np.all(p == 0.0)
        return
    assert np.all(p[~usable] == 0.0)
    assert abs(np.add.reduce(p) - budget) <= 1e-11 * budget
    # KKT: an active robot sits at nu lambda_k - s2/H_k, an inactive one has
    # nu lambda_k <= s2/H_k
    floors = NOISE_W / gains[usable]
    excess = nu * lam[usable] - floors
    active = p[usable] > 0.0
    assert np.all(np.abs(excess[active] - p[usable][active]) <= 1e-11 * budget)
    assert np.all(excess[~active] <= 1e-11 * budget)
    assert np.max(np.abs(p - reference.power)) <= 1e-9 * budget


def test_waterfill_matches_dense_grid_oracle():
    rng = np.random.default_rng(12)
    k = 10
    lam = rng.uniform(0.8, 1.0, k)
    gains = rng.uniform(1e-6, 1e-5, k)   # floors ~ 1e-8..1e-7, all users active
    result, _ = waterfill(lam, gains, NOISE_W, BUDGET_W)
    floors = NOISE_W / gains
    hi = (BUDGET_W + floors.sum()) / lam.min()
    grid = np.linspace(0.0, hi, 1_000_000)
    spent = np.maximum(0.0, grid[:, None] * lam[None, :] - floors[None, :]).sum(axis=1)
    best = grid[np.argmin(np.abs(spent - BUDGET_W))]
    oracle = np.maximum(0.0, best * lam - floors)
    assert np.max(np.abs(result - oracle)) <= 1e-6 * BUDGET_W


def test_waterfill_power_order_mirrors_novelty_on_symmetric_channels():
    meta = DatasetMeta.uniform(4)
    params = qom_weights([0.1, 0.3, 0.6, 0.9], meta, 550.0, 1e7)
    gains = np.full(4, 1e-10)
    result, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    p = result
    assert p[0] >= p[1] >= p[2] >= p[3]


# The abstract's asymptotic claim: with equal Z_k on orthogonal channels the
# weights are proportional to 1 - GAE_k, so the water-filling optimum
# p_k = share_k (P_sum + sum_j s2/H_j) - s2/H_k, with share_k = (1 - GAE_k) /
# sum_j (1 - GAE_j), tends to share_k P_sum as s2/H_k -> 0.
ASYMPTOTIC_GAE = np.array([0.1, 0.3, 0.6, 0.9, 0.0])


def asymptotic_case(h):
    params = qom_weights(ASYMPTOTIC_GAE, DatasetMeta.uniform(5), 550.0, 1e7)
    gains = h * np.arange(1.0, 6.0)
    share = (1.0 - ASYMPTOTIC_GAE) / np.sum(1.0 - ASYMPTOTIC_GAE)
    return params, gains, share, NOISE_W / gains


def test_powers_become_proportional_to_gae_error_as_snr_grows():
    for h in (1e-10, 1e-8, 1e-6, 1e-4):
        params, gains, share, floors = asymptotic_case(h)
        trace = solve_mcpa(params, orthogonal_state(gains), BUDGET_W, NOISE_W)
        assert trace.stop_reason == "converged"
        # the gap from proportionality is share_k sum_j s2/H_j - s2/H_k, over P_sum
        predicted = np.max(np.abs(share * floors.sum() - floors)) / BUDGET_W
        for powers in (waterfill(params, gains, NOISE_W, BUDGET_W).power,
                       trace.final):
            gap = np.max(np.abs(powers / BUDGET_W - share))
            assert gap == pytest.approx(predicted, rel=1e-2)
            assert gap <= floors.sum() / BUDGET_W
    assert predicted < 1e-8


@pytest.mark.parametrize("h", [1e-10, 1e-9])
def test_gap_from_proportionality_is_the_waterfilling_floor_term(h):
    params, gains, share, floors = asymptotic_case(h)
    exact = share * (BUDGET_W + floors.sum()) - floors
    assert np.all(exact > 0.0)
    result, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
    # the closed form is exact up to roundoff
    assert np.max(np.abs(result - exact)) <= 1e-14 * BUDGET_W
    trace = solve_mcpa(params, orthogonal_state(gains), BUDGET_W, NOISE_W)
    assert np.max(np.abs(trace.final - exact)) <= SolverOptions().inner_tol * BUDGET_W
