import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (BUDGET_W, CONFIG_DIR, NOISE_W, orthogonal_state, random_gae,
                      random_params, random_state)
from mcpa.baselines import (allocate_fairness, allocate_greedy, allocate_max_cov,
                            allocate_remember, allocate_uniform, unit_rate_params)
from mcpa.channel import ChannelState, sinr_vector
from mcpa.config import build_scenario, load_config
from mcpa.harness import prepare_seed
from mcpa.qom import DatasetMeta, qom_objective, qom_weights
from mcpa.solver import solve_mcpa, waterfill
from reference_solver import allocate_fairness as reference_allocate_fairness
from reference_solver import doubling_allocate_fairness, fairness_powers


def max_rate(state):
    """The max_rate baseline as the harness runs it: MCPA with unit weights."""
    return solve_mcpa(unit_rate_params(state.num_robots), state, BUDGET_W, NOISE_W).final


def rates_bps(state, powers, bandwidth=1e7):
    return bandwidth * np.log2(1.0 + sinr_vector(state, powers, NOISE_W))


def test_max_rate_single_user_and_symmetry():
    single = orthogonal_state(np.array([1e-10]))
    out = max_rate(single)
    assert out[0] == pytest.approx(BUDGET_W, rel=1e-6)

    equal = orthogonal_state(np.full(4, 1e-10))
    out = max_rate(equal)
    assert np.allclose(out, BUDGET_W / 4, atol=1e-5 * BUDGET_W)


def test_max_rate_matches_unit_weight_waterfill_on_orthogonal():
    rng = np.random.default_rng(2)
    gains = rng.uniform(1e-13, 5e-12, 8)  # unequal, with meaningful floors
    state = orthogonal_state(gains)
    out = max_rate(state)
    reference, _ = waterfill(unit_rate_params(8), gains, NOISE_W, BUDGET_W)
    assert np.max(np.abs(out - reference)) <= 1e-3 * BUDGET_W


def test_fairness_equalizes_rates():
    equal = orthogonal_state(np.full(3, 1e-11))
    out = allocate_fairness(equal, BUDGET_W, NOISE_W)
    assert np.allclose(out, BUDGET_W / 3, rtol=1e-3)

    # two-user orthogonal: rates equalized, p_k proportional to 1/H_k
    gains = np.array([4e-11, 1e-11])
    state = orthogonal_state(gains)
    out = allocate_fairness(state, BUDGET_W, NOISE_W, tol=1e-6)
    expected = BUDGET_W * (1.0 / gains) / np.sum(1.0 / gains)
    assert np.allclose(out, expected, rtol=1e-4)
    r = rates_bps(state, out)
    assert r[0] == pytest.approx(r[1], rel=1e-4)


def test_fairness_dominates_uniform_min_rate():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = random_state(rng, num_robots=5, num_antennas=64,
                             d_range=(500.0, 3000.0))
        fair = allocate_fairness(state, BUDGET_W, NOISE_W)
        uniform = allocate_uniform(5, BUDGET_W)
        fair_min = rates_bps(state, fair).min()
        unif_min = rates_bps(state, uniform).min()
        assert fair_min >= unif_min * (1.0 - 1e-3)


def test_fairness_min_rate_tops_every_allocator_on_orthogonal_instances():
    rng = np.random.default_rng(7)
    meta = DatasetMeta.uniform(5)
    for _ in range(5):
        gains = rng.uniform(1e-13, 1e-11, 5)
        state = orthogonal_state(gains)
        gae = rng.uniform(0, 1, 5)
        fair = allocate_fairness(state, BUDGET_W, NOISE_W, tol=1e-6)
        fair_min = rates_bps(state, fair).min()
        rivals = [
            max_rate(state),
            allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 500.0, 1e7),
            allocate_max_cov(state, BUDGET_W, NOISE_W, 2e6, 1e7),
            allocate_remember(5, BUDGET_W),
            allocate_uniform(5, BUDGET_W),
        ]
        for rival in rivals:
            assert fair_min >= rates_bps(state, rival).min() * (1 - 1e-3)


def test_greedy_funds_novelty_first():
    gains = np.array([1e-10, 1e-10, 1e-10])
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(3, num_items=1050)
    # robot 1 most novel; needs sigma^2/H (2^(Z D /(T B)) - 1)
    gae = np.array([0.9, 0.1, 0.5])
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 600.0, 1e7)
    need = NOISE_W / gains[1] * (2.0 ** (1.6e6 * 1050 / (600.0 * 1e7)) - 1.0)
    assert out[1] == pytest.approx(need, rel=1e-12)
    # remaining budget flows to the next-most-novel robot (index 2)
    assert out[2] > 0.0
    assert out.sum() <= BUDGET_W * (1 + 1e-12)


def test_greedy_single_expensive_robot_takes_everything():
    gains = np.array([1e-13, 1e-10])
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(2, num_items=10000)
    gae = np.array([0.0, 0.9])  # robot 0 most novel but needs > budget
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 60.0, 1e7)
    assert out[0] == pytest.approx(BUDGET_W)
    assert out[1] == 0.0


def test_greedy_ties_break_by_index_and_leftover_budget():
    gains = np.full(3, 1e-9)
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(3, num_items=10)
    gae = np.full(3, 0.5)
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 600.0, 1e7)
    need = NOISE_W / 1e-9 * (2.0 ** (1.6e6 * 10 / 6e9) - 1.0)
    assert np.allclose(out, need)           # all funded, same price
    assert out.sum() < BUDGET_W             # leftover left unassigned


def test_max_cov_admission_order():
    gains = NOISE_W / np.array([0.05, 0.1, 0.2])   # required powers by design
    state = orthogonal_state(gains)
    threshold = 1e7  # 1 b/s/Hz -> gamma = 1 -> p_req = sigma^2/H
    out = allocate_max_cov(state, 0.2, NOISE_W, threshold, 1e7)
    assert out[0] == pytest.approx(0.05)
    assert out[1] == pytest.approx(0.1)
    assert out[2] == 0.0


def test_max_cov_all_or_none():
    gains = np.full(5, 1e-9)
    state = orthogonal_state(gains)
    cheap = allocate_max_cov(state, BUDGET_W, NOISE_W, 1e5, 1e7)
    assert np.count_nonzero(cheap) == 5
    hopeless = allocate_max_cov(state, BUDGET_W, NOISE_W, 5e8, 1e7)
    assert np.all(hopeless == 0.0)


@pytest.mark.parametrize("threshold", [0.0, -2e6, [2e6, 0.0, 2e6]], ids=repr)
def test_max_cov_rejects_a_nonpositive_rate_threshold(threshold):
    state = orthogonal_state(np.full(3, 1e-9))
    with pytest.raises(ValueError, match="rate_threshold_bps must be positive"):
        allocate_max_cov(state, BUDGET_W, NOISE_W, threshold, 1e7)


def test_remember_is_all_zero():
    out = allocate_remember(6, BUDGET_W)
    assert np.all(out == 0.0)
    rng = np.random.default_rng(4)
    state = random_state(rng, num_robots=6, num_antennas=8)
    params = random_params(rng, 6)
    assert qom_objective(params, state, out, NOISE_W) == 0.0


@st.composite
def allocator_cases(draw):
    """A channel over K 1-12 robots and N 1-256 antennas at high-SNR
    (50-250 m) or low-SNR (800-4000 m) geometry, with GAE-derived weights
    of which none, some or all robots score a perfect GAE of 1. Returns the
    channel, the GAE scores and the weights."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 256))
    low_snr = draw(st.booleans())
    perfect_fraction = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, num_robots=k, num_antennas=n,
                         d_range=(800.0, 4000.0) if low_snr else (50.0, 250.0))
    gae = random_gae(rng, k, zero_fraction=perfect_fraction)
    return state, gae, qom_weights(gae, DatasetMeta.uniform(k), 550.0, 1e7)


@settings(max_examples=50)
@given(allocator_cases())
def test_every_allocator_is_feasible(case):
    state, gae, weights = case
    k = state.num_robots
    allocations = [
        solve_mcpa(weights, state, BUDGET_W, NOISE_W).final,
        max_rate(state),
        allocate_fairness(state, BUDGET_W, NOISE_W),
        allocate_greedy(state, gae, DatasetMeta.uniform(k), BUDGET_W, NOISE_W, 550.0, 1e7),
        allocate_max_cov(state, BUDGET_W, NOISE_W, 2e6, 1e7),
        allocate_remember(k, BUDGET_W),
        allocate_uniform(k, BUDGET_W),
    ]
    for alloc in allocations:
        assert alloc.shape == (k,) and alloc.dtype == np.float64
        assert np.all(np.isfinite(alloc))
        assert np.all(alloc >= 0.0)
        assert alloc.sum() <= BUDGET_W * (1.0 + 1e-9)


def without_channel(state, robot):
    """``state`` with robot ``robot``'s channel vector zeroed: its gain and
    its row and column of couplings are 0."""
    interference = state.interference.copy()
    interference[robot, :] = 0.0
    interference[:, robot] = 0.0
    return ChannelState(gains=np.diagonal(interference).copy(), interference=interference)


def perron_sinr(state, budget):
    """The max-min SINR under sum p <= budget, solver-independently: SINR_k =
    gamma for all k with sum p = budget is p = gamma D (I_offdiag + s2/P 11^T) p
    with D = diag(1/H), so gamma is 1 over that matrix's Perron root. Any zero
    gain makes it 0."""
    if np.any(state.gains == 0.0):
        return 0.0
    offdiag = state.interference - np.diag(state.gains)
    matrix = (offdiag + NOISE_W / budget) / state.gains[:, None]
    return 1.0 / np.max(np.abs(np.linalg.eigvals(matrix)))


@st.composite
def fairness_states(draw):
    """The channel of :func:`allocator_cases`, or one at very high SNR
    (10-60 m) with fewer antennas than robots; in about one draw in eight a
    robot's channel is zeroed."""
    if draw(st.booleans()):
        state = draw(allocator_cases())[0]
    else:
        k = draw(st.integers(2, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        state = random_state(rng, num_robots=k, num_antennas=draw(st.integers(1, k - 1)),
                             d_range=(10.0, 60.0))
    if draw(st.integers(0, 7)) == 0:
        state = without_channel(state, draw(st.integers(0, state.num_robots - 1)))
    return state


@settings(max_examples=60)
@given(fairness_states(), st.floats(-3.0, 1.0), st.sampled_from([1e-4, 1e-6]))
@example(random_state(np.random.default_rng(0), num_robots=1, num_antennas=1), -0.7, 1e-4)
@example(without_channel(random_state(np.random.default_rng(1), num_robots=4), 2), 0.0, 1e-4)
def test_fairness_is_within_tol_of_the_perron_optimum(state, log_budget, tol):
    """Every robot's SINR lies in [gamma* (1 - tol), gamma*] (up to roundoff
    at the top), within the budget, over 1 mW-10 W."""
    budget = 10.0 ** log_budget
    fair = allocate_fairness(state, budget, NOISE_W, tol)
    optimum = perron_sinr(state, budget)
    sinr = sinr_vector(state, fair, NOISE_W)
    assert np.all(sinr >= optimum * (1.0 - tol))
    assert np.all(sinr <= optimum * (1.0 + 1e-9))
    assert np.all(fair >= 0.0)
    assert fair.sum() <= budget * (1.0 + 1e-9)


@st.composite
def bound_states(draw):
    """The channel of :func:`allocator_cases` (K 1-12, N 1-256), a lone
    robot's, or orthogonal channels with the gains of such a draw: the last
    two are where the upper bound gamma_hi can be feasible."""
    kind = draw(st.sampled_from(["drawn", "single", "orthogonal"]))
    if kind == "drawn":
        return draw(allocator_cases())[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = 1 if kind == "single" else draw(st.integers(1, 12))
    state = random_state(rng, num_robots=k, num_antennas=draw(st.integers(1, 256)),
                         d_range=draw(st.sampled_from([(50.0, 250.0), (800.0, 4000.0)])))
    return state if kind == "single" else orthogonal_state(state.gains)


@settings(max_examples=150)
@given(bound_states(), st.floats(-3.0, 1.0), st.sampled_from([1e-4, 1e-6]))
def test_fairness_is_bit_identical_to_the_doubling_bisection(state, log_budget, tol):
    """Nothing above gamma_hi is feasible, so returning at a feasible gamma_hi
    after one probe, one solved system, keeps every bit of the doubling loop's
    answer."""
    budget = 10.0 ** log_budget
    hi = budget / (NOISE_W * np.sum(1.0 / state.gains))
    bound_feasible = fairness_powers(state, hi, budget, NOISE_W) is not None
    solve, solved = np.linalg.solve, []           # the shape of each solve's systems
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(np.shape(a)) or solve(a, b))
        fair = allocate_fairness(state, budget, NOISE_W, tol)
    expected = doubling_allocate_fairness(state, budget, NOISE_W, tol)
    assert fair.tobytes() == expected.tobytes()
    if bound_feasible:
        assert solved == [(1, state.num_robots, state.num_robots)]


@st.composite
def budget_vectors(draw):
    """A channel over K 1-12 robots and N in {1, 2, 4, 16, 256} antennas at
    near (50-250 m) or far (800-4000 m) geometry: as drawn, with one robot's
    channel zeroed, or made orthogonal (where the gamma_hi probe is feasible);
    and a list of 1-6 budgets over 1 mW-10 W, repeats allowed."""
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, num_robots=k, num_antennas=draw(st.sampled_from([1, 2, 4, 16, 256])),
                         d_range=draw(st.sampled_from([(50.0, 250.0), (800.0, 4000.0)])))
    kind = draw(st.sampled_from(["drawn", "zero gain", "orthogonal"]))
    if kind == "zero gain":
        state = without_channel(state, draw(st.integers(0, k - 1)))
    elif kind == "orthogonal":
        state = orthogonal_state(state.gains)
    exponents = draw(st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=6))
    return state, [10.0 ** e for e in exponents]


@settings(max_examples=200, derandomize=True)
@given(budget_vectors(), st.sampled_from([0.0, 1e-4, 1e-6]))
def test_fairness_over_a_budget_vector_is_the_call_at_each_budget(case, tol):
    """Row i of the lockstep bisection is the reference doubling bisection at
    budget i alone, bit for bit; at tol 0 the bisection runs to its 200-step
    cap. There the doubling loop also bisects above a feasible gamma_hi down
    to the next float, which roundoff can make feasible, so a feasible
    gamma_hi's own probe is the row instead."""
    state, budgets = case
    block = allocate_fairness(state, np.array(budgets), NOISE_W, tol)
    assert block.shape == (len(budgets), state.num_robots) and block.dtype == np.float64
    for row, budget in zip(block, budgets):
        expected = doubling_allocate_fairness(state, budget, NOISE_W, tol)
        if tol == 0.0 and (state.gains > 0.0).all():
            hi = budget / (NOISE_W * np.sum(1.0 / state.gains))
            bound = fairness_powers(state, hi, budget, NOISE_W)
            expected = expected if bound is None else bound
        assert row.tobytes() == expected.tobytes()


def test_a_singular_stacked_probe_is_infeasible_for_its_own_budget_alone(monkeypatch):
    """When one system of a stack is singular, the answer at three budgets is
    still the answer at each budget alone, with that system singular there too:
    a stack of one or of three re-solves each system as a stack of one, and
    that system's fails."""
    state = random_state(np.random.default_rng(5), num_robots=6, num_antennas=4)
    budgets = [0.05, 0.1, 0.2]
    solve, feasible = np.linalg.solve, []

    def recorded(a, b):
        solved = solve(a, b)
        feasible.extend(rhs[0, 0] for rhs, p in zip(b, solved[..., 0])
                        if p.min() > 0.0 and p.sum() <= budgets[1])
        return solved
    monkeypatch.setattr(np.linalg, "solve", recorded)
    clean = allocate_fairness(state, budgets[1], NOISE_W)
    singular, raised = feasible[0], []

    def singular_solve(a, b):
        if np.any(np.asarray(b) == singular):
            raised.append(np.shape(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    alone = [allocate_fairness(state, budget, NOISE_W) for budget in budgets]
    assert alone[1].tobytes() != clean.tobytes()
    assert raised == [(1, 6, 6)] * 6    # each budget: the stack of one, then the system alone
    raised.clear()
    block = allocate_fairness(state, np.array(budgets), NOISE_W)
    # the budgets' bisections meet that target at three steps: each time the
    # stack, then that system alone
    assert raised == [(3, 6, 6), (1, 6, 6)] * 3
    for row, expected in zip(block, alone):
        assert row.tobytes() == expected.tobytes()


def test_fairness_matches_the_power_control_iteration_on_the_shipped_scenarios():
    """On town and city_desk seeds 0-3 at 100-300 mW, and town K=50 seed 0 at
    200 mW, the powers agree with the old sweep-by-sweep iteration's."""
    instances = []
    for name, robots, seeds, budgets in (("town", 10, range(4), (0.1, 0.2, 0.3)),
                                         ("city_desk", 10, range(4), (0.1, 0.2, 0.3)),
                                         ("town", 50, range(1), (0.2,))):
        scenario = build_scenario({**load_config(CONFIG_DIR / f"{name}.json"),
                                   "num_robots": robots})
        noise = scenario.radio.noise_power_w
        instances += [(prepare_seed(scenario, seed).state, budget, noise)
                      for seed in seeds for budget in budgets]
    for state, budget, noise in instances:
        np.testing.assert_allclose(allocate_fairness(state, budget, noise),
                                   reference_allocate_fairness(state, budget, noise),
                                   rtol=1e-9, atol=0.0)


def test_fairness_zero_gain_gives_zeros_without_warnings():
    """A robot without a channel has rate 0 whatever the powers, so the
    max-min answer is all zeros, found without dividing by its gain. A lone
    robot takes the whole budget."""
    rng = np.random.default_rng(3)
    state = without_channel(random_state(rng, num_robots=5, num_antennas=8), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = allocate_fairness(state, BUDGET_W, NOISE_W)
    assert out.tobytes() == np.zeros(5).tobytes()
    alone = allocate_fairness(random_state(rng, num_robots=1, num_antennas=1), BUDGET_W, NOISE_W)
    assert alone == pytest.approx([BUDGET_W], rel=1e-4)
    assert alone.sum() <= BUDGET_W


def test_max_rate_and_mcpa_win_their_own_metrics():
    rng = np.random.default_rng(6)
    meta = DatasetMeta.uniform(8)
    for seed in range(8):
        state = random_state(rng, num_robots=8, num_antennas=256,
                             d_range=(800.0, 4000.0))
        params = qom_weights(rng.uniform(0, 1, 8), meta, 500.0, 1e7)
        mcpa = solve_mcpa(params, state, BUDGET_W, NOISE_W).final
        maxrate = max_rate(state)
        tol = 1e-6
        assert rates_bps(state, maxrate).sum() >= \
            rates_bps(state, mcpa).sum() * (1.0 - tol)
        assert qom_objective(params, state, mcpa, NOISE_W) >= \
            qom_objective(params, state, maxrate, NOISE_W) * (1.0 - tol)
