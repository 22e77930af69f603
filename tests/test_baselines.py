import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUDGET_W, NOISE_W, orthogonal_state, random_params, random_state
from mcpa.baselines import (allocate_fairness, allocate_greedy, allocate_max_cov,
                            allocate_remember, allocate_uniform, unit_rate_params)
from mcpa.channel import sinr_vector
from mcpa.qom import DatasetMeta, qom_objective
from mcpa.solver import solve_mcpa, waterfill


def max_rate(state):
    """The max_rate baseline as the harness runs it: MCPA with unit weights."""
    return solve_mcpa(unit_rate_params(state.num_robots), state, BUDGET_W, NOISE_W).final


def rates_bps(state, powers, bandwidth=1e7):
    return bandwidth * np.log2(1.0 + sinr_vector(state, powers, NOISE_W))


def test_max_rate_single_user_and_symmetry():
    single = orthogonal_state(np.array([1e-10]))
    out = max_rate(single)
    assert out.powers[0] == pytest.approx(BUDGET_W, rel=1e-6)

    equal = orthogonal_state(np.full(4, 1e-10))
    out = max_rate(equal)
    assert np.allclose(out.powers, BUDGET_W / 4, atol=1e-5 * BUDGET_W)


def test_max_rate_matches_unit_weight_waterfill_on_orthogonal():
    rng = np.random.default_rng(2)
    gains = rng.uniform(1e-13, 5e-12, 8)  # unequal, with meaningful floors
    state = orthogonal_state(gains)
    out = max_rate(state)
    reference, _ = waterfill(unit_rate_params(8), gains, NOISE_W, BUDGET_W)
    assert np.max(np.abs(out.powers - reference.powers)) <= 1e-3 * BUDGET_W


def test_fairness_equalizes_rates():
    equal = orthogonal_state(np.full(3, 1e-11))
    out = allocate_fairness(equal, BUDGET_W, NOISE_W)
    assert np.allclose(out.powers, BUDGET_W / 3, rtol=1e-3)

    # two-user orthogonal: rates equalized, p_k proportional to 1/H_k
    gains = np.array([4e-11, 1e-11])
    state = orthogonal_state(gains)
    out = allocate_fairness(state, BUDGET_W, NOISE_W, tol=1e-6)
    expected = BUDGET_W * (1.0 / gains) / np.sum(1.0 / gains)
    assert np.allclose(out.powers, expected, rtol=1e-4)
    r = rates_bps(state, out.powers)
    assert r[0] == pytest.approx(r[1], rel=1e-4)


def test_fairness_dominates_uniform_min_rate():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = random_state(rng, num_robots=5, num_antennas=64,
                             d_range=(500.0, 3000.0))
        fair = allocate_fairness(state, BUDGET_W, NOISE_W)
        uniform = allocate_uniform(5, BUDGET_W)
        fair_min = rates_bps(state, fair.powers).min()
        unif_min = rates_bps(state, uniform.powers).min()
        assert fair_min >= unif_min * (1.0 - 1e-3)


def test_fairness_min_rate_tops_every_allocator_on_orthogonal_instances():
    rng = np.random.default_rng(7)
    meta = DatasetMeta.uniform(5)
    for _ in range(5):
        gains = rng.uniform(1e-13, 1e-11, 5)
        state = orthogonal_state(gains)
        gae = rng.uniform(0, 1, 5)
        fair = allocate_fairness(state, BUDGET_W, NOISE_W, tol=1e-6)
        fair_min = rates_bps(state, fair.powers).min()
        rivals = [
            max_rate(state),
            allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 500.0, 1e7),
            allocate_max_cov(state, BUDGET_W, NOISE_W, 2e6, 1e7),
            allocate_remember(5, BUDGET_W),
            allocate_uniform(5, BUDGET_W),
        ]
        for rival in rivals:
            assert fair_min >= rates_bps(state, rival.powers).min() * (1 - 1e-3)


def test_greedy_funds_novelty_first():
    gains = np.array([1e-10, 1e-10, 1e-10])
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(3, num_items=1050)
    # robot 1 most novel; needs sigma^2/H (2^(Z D /(T B)) - 1)
    gae = np.array([0.9, 0.1, 0.5])
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 600.0, 1e7)
    need = NOISE_W / gains[1] * (2.0 ** (1.6e6 * 1050 / (600.0 * 1e7)) - 1.0)
    assert out.powers[1] == pytest.approx(need, rel=1e-12)
    # remaining budget flows to the next-most-novel robot (index 2)
    assert out.powers[2] > 0.0
    assert out.powers.sum() <= BUDGET_W * (1 + 1e-12)


def test_greedy_single_expensive_robot_takes_everything():
    gains = np.array([1e-13, 1e-10])
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(2, num_items=10000)
    gae = np.array([0.0, 0.9])  # robot 0 most novel but needs > budget
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 60.0, 1e7)
    assert out.powers[0] == pytest.approx(BUDGET_W)
    assert out.powers[1] == 0.0


def test_greedy_ties_break_by_index_and_leftover_budget():
    gains = np.full(3, 1e-9)
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(3, num_items=10)
    gae = np.full(3, 0.5)
    out = allocate_greedy(state, gae, meta, BUDGET_W, NOISE_W, 600.0, 1e7)
    need = NOISE_W / 1e-9 * (2.0 ** (1.6e6 * 10 / 6e9) - 1.0)
    assert np.allclose(out.powers, need)           # all funded, same price
    assert out.powers.sum() < BUDGET_W             # leftover left unassigned


def test_max_cov_admission_order():
    gains = NOISE_W / np.array([0.05, 0.1, 0.2])   # required powers by design
    state = orthogonal_state(gains)
    threshold = 1e7  # 1 b/s/Hz -> gamma = 1 -> p_req = sigma^2/H
    out = allocate_max_cov(state, 0.2, NOISE_W, threshold, 1e7)
    assert out.powers[0] == pytest.approx(0.05)
    assert out.powers[1] == pytest.approx(0.1)
    assert out.powers[2] == 0.0


def test_max_cov_all_or_none():
    gains = np.full(5, 1e-9)
    state = orthogonal_state(gains)
    cheap = allocate_max_cov(state, BUDGET_W, NOISE_W, 1e5, 1e7)
    assert np.count_nonzero(cheap.powers) == 5
    hopeless = allocate_max_cov(state, BUDGET_W, NOISE_W, 5e8, 1e7)
    assert np.all(hopeless.powers == 0.0)


def test_remember_is_all_zero():
    out = allocate_remember(6, BUDGET_W)
    assert np.all(out.powers == 0.0)
    rng = np.random.default_rng(4)
    state = random_state(rng, num_robots=6, num_antennas=8)
    params = random_params(rng, 6)
    assert qom_objective(params, state, out, NOISE_W) == 0.0


@st.composite
def allocator_cases(draw):
    """A channel over K 1-12 robots and N 1-256 antennas at high-SNR
    (50-250 m) or low-SNR (800-4000 m) geometry, with GAE-derived weights
    of which none, some or all robots score a perfect GAE of 1."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 256))
    low_snr = draw(st.booleans())
    perfect_fraction = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, num_robots=k, num_antennas=n,
                         d_range=(800.0, 4000.0) if low_snr else (50.0, 250.0))
    return state, random_params(rng, k, zero_fraction=perfect_fraction)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(allocator_cases())
def test_every_allocator_is_feasible(case):
    state, params = case
    k = state.num_robots
    allocations = [
        solve_mcpa(params, state, BUDGET_W, NOISE_W).final,
        max_rate(state),
        allocate_fairness(state, BUDGET_W, NOISE_W),
        allocate_greedy(state, params.gae_scores, DatasetMeta.uniform(k), BUDGET_W,
                        NOISE_W, params.effective_time_s, 1e7),
        allocate_max_cov(state, BUDGET_W, NOISE_W, 2e6, 1e7),
        allocate_remember(k, BUDGET_W),
        allocate_uniform(k, BUDGET_W),
    ]
    for alloc in allocations:
        assert alloc.powers.shape == (k,)
        assert np.all(alloc.powers >= 0.0)
        assert alloc.powers.sum() <= BUDGET_W * (1.0 + 1e-9)


def test_max_rate_and_mcpa_win_their_own_metrics():
    rng = np.random.default_rng(6)
    meta = DatasetMeta.uniform(8)
    for seed in range(8):
        state = random_state(rng, num_robots=8, num_antennas=256,
                             d_range=(800.0, 4000.0))
        from mcpa.qom import qom_weights
        params = qom_weights(rng.uniform(0, 1, 8), meta, 500.0, 1e7)
        mcpa = solve_mcpa(params, state, BUDGET_W, NOISE_W).final
        maxrate = max_rate(state)
        tol = 1e-6
        assert rates_bps(state, maxrate.powers).sum() >= \
            rates_bps(state, mcpa.powers).sum() * (1.0 - tol)
        assert qom_objective(params, state, mcpa, NOISE_W) >= \
            qom_objective(params, state, maxrate, NOISE_W) * (1.0 - tol)
