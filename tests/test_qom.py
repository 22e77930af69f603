import numpy as np
import pytest

from conftest import NOISE_W, orthogonal_state, radio, random_state
from mcpa.channel import sinr_vector
from mcpa.qom import (DatasetMeta, PilotPhaseInfeasible, PowerVector, QomParams,
                      accuracy_estimate, frames_uploaded, pilot_overhead,
                      qom_objective, qom_terms, qom_weights, round_half_up)


def test_power_vector_feasibility():
    PowerVector(np.array([0.1, 0.1]), 0.2)  # exactly on budget is fine
    with pytest.raises(ValueError):
        PowerVector(np.array([0.15, 0.1]), 0.2)
    with pytest.raises(ValueError):
        PowerVector(np.array([-0.01, 0.1]), 0.2)


def test_dataset_meta_validation_and_pilot_counts():
    meta = DatasetMeta.uniform(3, num_items=1050, pilot_ratio=0.01)
    # round-to-nearest with halves up: 10.5 -> 11
    assert round_half_up(10.5) == 11
    assert list(meta.pilot_counts) == [11, 11, 11]
    tiny = DatasetMeta.uniform(1, num_items=10, pilot_ratio=0.01)
    assert tiny.pilot_counts[0] == 1  # minimum one pilot item
    with pytest.raises(ValueError):
        DatasetMeta.uniform(2, num_items=0)
    with pytest.raises(ValueError):
        DatasetMeta.uniform(2, pilot_ratio=1.5)


def test_frames_uploaded_at_unit_sinr():
    # H p = sigma^2 on an orthogonal channel -> log2(2) = 1 b/s/Hz
    gains = np.array([1e-12])
    state = orthogonal_state(gains)
    p = NOISE_W / gains
    meta = DatasetMeta(np.array([100000]), 1.6e6, 0.01)
    frames = frames_uploaded(state, p, meta, NOISE_W, 600.0, 1e7)
    assert frames.shape == (1,)
    assert frames[0] == pytest.approx(3750.0, rel=1e-12)


def test_frames_uploaded_zero_power_and_clamp():
    gains = np.array([1e-9, 1e-9])
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(2, num_items=1050)
    assert list(frames_uploaded(state, np.zeros(2), meta, NOISE_W, 600.0, 1e7)) == [0.0, 0.0]
    # an enormous SINR would overflow the dataset: clamp at |D_k|
    frames = frames_uploaded(state, np.array([0.2, 0.0]), meta, NOISE_W, 600.0, 1e7)
    assert list(frames) == [1050.0, 0.0]
    with pytest.raises(ValueError):
        frames_uploaded(state, np.zeros(2), meta, NOISE_W, -1.0, 1e7)


def test_frames_uploaded_vector_matches_per_robot_formula():
    # reference: one robot at a time, (T*B)*log2(1+SINR_k)/Z_k capped at |D_k|
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 12))
        state = random_state(rng, num_robots=k, d_range=(10.0, 3000.0))
        p = rng.dirichlet(np.ones(k)) * 0.2
        meta = DatasetMeta.uniform(k, num_items=int(rng.integers(1, 3000)),
                                   item_volume_bits=float(rng.uniform(1e5, 5e6)))
        frames = frames_uploaded(state, p, meta, NOISE_W, 550.0, 1e7)
        for j in range(k):
            sinr_j = sinr_vector(state, p, NOISE_W)[j]
            raw = 550.0 * 1e7 * np.log2(1.0 + sinr_j) / meta.item_volume_bits[j]
            assert frames[j] == min(raw, meta.num_items[j])


def test_pilot_overhead_single_user_closed_form():
    gains = np.array([1e-8])
    state = orthogonal_state(gains)
    const = radio()
    meta = DatasetMeta.uniform(1, num_items=1050, item_volume_bits=1.6e6,
                               pilot_ratio=0.01)
    p_sum = 0.2
    expected = 1.6e6 * 11 / (1e7 * np.log2(1.0 + gains[0] * p_sum / NOISE_W))
    assert pilot_overhead(state, meta, const, p_sum) == pytest.approx(expected, rel=1e-12)


def test_pilot_overhead_linear_in_pilot_payload():
    gains = np.array([1e-8, 2e-8])
    state = orthogonal_state(gains)
    const = radio()
    meta1 = DatasetMeta.uniform(2, num_items=100, pilot_ratio=0.2)   # 20 items
    meta2 = DatasetMeta.uniform(2, num_items=100, pilot_ratio=0.4)   # 40 items
    assert pilot_overhead(state, meta2, const, 0.2) == \
        pytest.approx(2.0 * pilot_overhead(state, meta1, const, 0.2), rel=1e-12)


def test_pilot_overhead_recomposition_with_interference():
    rng = np.random.default_rng(31)
    state = random_state(rng, num_robots=4, num_antennas=16)
    const = radio()
    meta = DatasetMeta.uniform(4, num_items=200, pilot_ratio=0.05)
    p_sum = 0.2
    p_eq = p_sum / 4
    per_robot = []
    for k in range(4):
        interf = sum(state.interference[k, j] * p_eq for j in range(4) if j != k)
        rate = const.bandwidth_hz * np.log2(
            1.0 + state.gains[k] * p_eq / (interf + const.noise_power_w))
        per_robot.append(meta.item_volume_bits[k] * meta.pilot_counts[k] / rate)
    assert pilot_overhead(state, meta, const, p_sum) == \
        pytest.approx(max(per_robot), rel=1e-12)


def test_pilot_overhead_signals_infeasible_phase():
    gains = np.array([1e-15])  # hopeless link
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(1)
    with pytest.raises(PilotPhaseInfeasible):
        pilot_overhead(state, meta, radio(), 0.2, time_budget_s=600.0)


def test_qom_weights_zero_at_perfect_score_and_paper_ratio():
    meta = DatasetMeta.uniform(2)
    params = qom_weights([1.0, 0.5], meta, 550.0, 1e7)
    assert params.weights[0] == 0.0
    assert params.weights[1] > 0.0
    # scores 0.27 / 0.79 with equal Z and |D|: weight ratio (1-g1)/(1-g2)
    params = qom_weights([0.27, 0.79], meta, 550.0, 1e7)
    assert params.weights[0] / params.weights[1] == pytest.approx(0.73 / 0.21, rel=1e-12)


def test_qom_weights_scale_inverse_in_item_volume():
    full = DatasetMeta(np.array([100, 100]), np.array([1.6e6, 0.8e6]), 0.1)
    params = qom_weights([0.5, 0.5], full, 550.0, 1e7)
    assert params.weights[1] == pytest.approx(2.0 * params.weights[0], rel=1e-12)


def test_qom_weights_reject_bad_scores():
    meta = DatasetMeta.uniform(2)
    with pytest.raises(ValueError):
        qom_weights([-0.1, 0.5], meta, 550.0, 1e7)
    with pytest.raises(ValueError):
        qom_weights([0.1, 1.0001], meta, 550.0, 1e7)


def test_qom_objective_zero_cases_and_recomposition():
    rng = np.random.default_rng(3)
    state = random_state(rng, num_robots=5, num_antennas=16)
    meta = DatasetMeta.uniform(5)
    params = qom_weights(rng.uniform(0, 1, 5), meta, 550.0, 1e7)
    assert qom_objective(params, state, np.zeros(5), NOISE_W) == 0.0
    dead = qom_weights(np.ones(5), meta, 550.0, 1e7)
    p = rng.uniform(0, 0.02, 5)
    assert qom_objective(dead, state, p, NOISE_W) == 0.0
    # recomposition against an independent per-term loop
    total = 0.0
    for k in range(5):
        interf = sum(state.interference[k, j] * p[j] for j in range(5) if j != k)
        total += params.weights[k] * np.log2(1 + state.gains[k] * p[k] / (interf + NOISE_W))
    assert qom_objective(params, state, p, NOISE_W) == pytest.approx(total, rel=1e-12)
    assert qom_terms(params, state, p, NOISE_W).sum() == \
        pytest.approx(qom_objective(params, state, p, NOISE_W), rel=1e-15)


def test_qom_objective_permutation_invariant():
    rng = np.random.default_rng(9)
    state = random_state(rng, num_robots=6, num_antennas=8)
    meta = DatasetMeta.uniform(6)
    params = qom_weights(rng.uniform(0, 1, 6), meta, 550.0, 1e7)
    p = rng.uniform(0, 0.03, 6)
    value = qom_objective(params, state, p, NOISE_W)
    perm = rng.permutation(6)
    from mcpa.channel import ChannelState
    permuted_state = ChannelState(gains=state.gains[perm],
                                  interference=state.interference[np.ix_(perm, perm)])
    permuted_params = QomParams(weights=params.weights[perm],
                                effective_time_s=params.effective_time_s,
                                gae_scores=params.gae_scores[perm])
    assert qom_objective(permuted_params, permuted_state, p[perm], NOISE_W) == \
        pytest.approx(value, rel=1e-12)


def test_qom_objective_monotone_on_orthogonal_channels():
    rng = np.random.default_rng(13)
    gains = rng.uniform(1e-12, 1e-10, 5)
    state = orthogonal_state(gains)
    meta = DatasetMeta.uniform(5)
    params = qom_weights(rng.uniform(0, 0.9, 5), meta, 550.0, 1e7)
    p = rng.uniform(0, 0.02, 5)
    base = qom_objective(params, state, p, NOISE_W)
    for k in range(5):
        bumped = p.copy()
        bumped[k] *= 1.3
        assert qom_objective(params, state, bumped, NOISE_W) >= base


def test_accuracy_estimate_cases():
    meta = DatasetMeta.uniform(3, num_items=100)
    params = qom_weights([0.2, 0.5, 0.8], meta, 550.0, 1e7)
    assert accuracy_estimate(params, np.zeros(3), meta, 0.4) == 0.4
    # full upload with equal scores g: base + (1 - g), clamped into [0, 1]
    equal = qom_weights([0.5, 0.5, 0.5], meta, 550.0, 1e7)
    full = meta.num_items.astype(float)
    assert accuracy_estimate(equal, full, meta, 0.4) == pytest.approx(0.9, rel=1e-12)
    assert accuracy_estimate(equal, full, meta, 0.8) == 1.0  # clamped
    # full-dataset case equals base + sum eta_k (1 - g_k)
    mixed = qom_weights([0.2, 0.5, 0.8], meta, 550.0, 1e7)
    eta = meta.num_items / meta.total_items
    expected = 0.3 + float(np.sum(eta * (1 - mixed.gae_scores)))
    assert accuracy_estimate(mixed, full, meta, 0.3) == pytest.approx(expected, rel=1e-12)
    # mixed partial case against independent summation
    frames = np.array([10.0, 40.0, 70.0])
    expected = 0.3 + float(np.sum((1 - mixed.gae_scores) * frames) / meta.total_items)
    assert accuracy_estimate(mixed, frames, meta, 0.3) == pytest.approx(expected, rel=1e-12)
