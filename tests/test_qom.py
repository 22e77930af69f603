import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUDGET_W, NOISE_W, orthogonal_state, radio, random_state
from mcpa.channel import sinr_vector
from mcpa.gae import pilot_size
from mcpa.harness import _checked_allocation
from mcpa.qom import (DatasetMeta, PilotPhaseInfeasible, accuracy_estimate,
                      frames_uploaded, pilot_overhead, qom_objective, qom_terms, qom_weights)


def test_power_vector_feasibility():
    # the one check every method's allocation passes before it is scored
    _checked_allocation(np.array([0.1, 0.1]), 2, 0.2)  # exactly on budget is fine
    with pytest.raises(ValueError):
        _checked_allocation(np.array([0.15, 0.1]), 2, 0.2)
    with pytest.raises(ValueError):
        _checked_allocation(np.array([-0.01, 0.1]), 2, 0.2)
    for bad in (np.nan, np.inf, -np.inf):     # NaN passes both the sign and budget tests
        with pytest.raises(ValueError, match="non-finite powers"):
            _checked_allocation(np.array([bad, 0.1]), 2, 0.2)
    for wrong in (np.array([0.1]), np.array([0.05, 0.05, 0.05]), np.zeros((2, 1))):
        with pytest.raises(ValueError, match="shape"):
            _checked_allocation(wrong, 2, 0.2)


def test_dataset_meta_validation_and_pilot_counts():
    meta = DatasetMeta.uniform(3, num_items=1050)
    assert meta.num_items.tolist() == [1050] * 3 and meta.item_volume_bits.tolist() == [1.6e6] * 3
    # round-to-nearest with halves up: 10.5 -> 11
    assert pilot_size(0.5, 21) == 11 and pilot_size(0.25, [1050, 1]).tolist() == [263, 1]
    assert pilot_size(0.01, meta.num_items).tolist() == [11, 11, 11]
    assert pilot_size(0.01, 10) == 1  # minimum one pilot item
    whole = DatasetMeta(np.array([10.0, 3.0]), np.array([1.6e6, 0.8e6]))
    assert whole.num_items.dtype.kind == "i" and whole.num_items.tolist() == [10, 3]
    with pytest.raises(ValueError):
        DatasetMeta.uniform(2, num_items=0)


@pytest.mark.parametrize("counts", [
    [10.7, 3.2], [10.0, 3.5], [np.nan, 3], [np.inf, 3],
], ids=["fractional", "one-fractional", "nan", "inf"])
def test_dataset_meta_rejects_fractional_counts(counts):
    # a count is a whole number of items; none is rounded down in silence
    with pytest.raises(ValueError, match="num_items must be a 1-D array of whole item counts"):
        DatasetMeta(np.array(counts), 1.6e6)


@pytest.mark.parametrize("counts", [np.full((2, 3), 100), np.array(100), np.array([], dtype=int)],
                         ids=["2-D", "scalar", "empty"])
def test_dataset_meta_rejects_counts_not_one_per_robot(counts):
    with pytest.raises(ValueError, match="num_items must be a 1-D array"):
        DatasetMeta(counts, 1.6e6)


@pytest.mark.parametrize("volumes, message", [
    (np.array([1.6e6, 1.6e6, 1.6e6]), r"item_volume_bits must be scalar or length 2, got"),
    (np.array([1.6e6, 0.0]), "item_volume_bits must be strictly positive"),
    (np.array([1.6e6, np.nan]), "item_volume_bits must be strictly positive and finite"),
    (np.nan, "item_volume_bits must be strictly positive and finite"),
    (np.array([np.inf, 1.6e6]), "item_volume_bits must be strictly positive and finite"),
    (-np.inf, "item_volume_bits must be strictly positive and finite"),
], ids=["wrong-length", "zero-volume", "nan", "scalar-nan", "inf", "minus-inf"])
def test_dataset_meta_rejects_bad_item_volumes(volumes, message):
    with pytest.raises(ValueError, match=message):
        DatasetMeta(np.array([100, 100]), volumes)


def test_frames_uploaded_at_unit_sinr():
    # H p = sigma^2 on an orthogonal channel -> log2(2) = 1 b/s/Hz
    gains = np.array([1e-12])
    state = orthogonal_state(gains)
    p = NOISE_W / gains
    meta = DatasetMeta(np.array([100000]), 1.6e6)
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


@st.composite
def stacked_powers(draw):
    """A channel over K 1-12 robots (N 1-256, high- or low-SNR geometry), its
    weights and dataset, 1-8 stacked power rows (all zero, spending the whole
    budget, or spending part of it) and a column of one effective time per row."""
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, num_robots=k, num_antennas=draw(st.integers(1, 256)),
                         d_range=draw(st.sampled_from([(50.0, 250.0), (800.0, 4000.0)])))
    kinds = draw(st.lists(st.sampled_from(["zero", "whole", "part"]), min_size=1, max_size=8))
    rows = [np.zeros(k) if kind == "zero" else rng.dirichlet(np.ones(k)) * BUDGET_W
            * (1.0 if kind == "whole" else rng.uniform(0.01, 1.0)) for kind in kinds]
    meta = DatasetMeta.uniform(k, num_items=int(rng.integers(1, 3000)),
                               item_volume_bits=float(rng.uniform(1e5, 5e6)))
    times = rng.uniform(1.0, 600.0, size=(len(rows), 1))
    return state, rng.uniform(0.0, 1.0, size=k), meta, np.array(rows), times


@settings(max_examples=80)
@given(stacked_powers())
def test_a_stacked_row_scores_as_the_row_alone(case):
    # bit for bit: the harness scores a seed's allocations as one block, each
    # row with its own effective time
    state, weights, meta, block, times = case
    sinr = sinr_vector(state, block, NOISE_W)
    frames = frames_uploaded(state, block, meta, NOISE_W, 550.0, 1e7)
    timed = frames_uploaded(state, block, meta, NOISE_W, times, 1e7)
    terms = qom_terms(weights, state, block, NOISE_W)
    totals = terms.sum(axis=1)
    assert sinr.shape == frames.shape == timed.shape == terms.shape == block.shape
    for i, p in enumerate(block):
        assert np.array_equal(sinr[i], sinr_vector(state, p, NOISE_W))
        assert np.array_equal(frames[i], frames_uploaded(state, p, meta, NOISE_W, 550.0, 1e7))
        assert np.array_equal(timed[i], frames_uploaded(state, p, meta, NOISE_W,
                                                        float(times[i, 0]), 1e7))
        assert np.array_equal(terms[i], qom_terms(weights, state, p, NOISE_W))
        assert totals[i] == qom_objective(weights, state, p, NOISE_W)
    for bad in (0.0, -1.0):
        column = times.copy()
        column[-1, 0] = bad
        with pytest.raises(ValueError, match="^time_s and bandwidth_hz must be strictly positive$"):
            frames_uploaded(state, block, meta, NOISE_W, column, 1e7)


def test_pilot_overhead_single_user_closed_form():
    gains = np.array([1e-8])
    state = orthogonal_state(gains)
    const = radio()
    pilot_bits = 1.6e6 * pilot_size(0.01, np.array([1050]))      # 11 items
    p_sum = 0.2
    expected = 1.6e6 * 11 / (1e7 * np.log2(1.0 + gains[0] * p_sum / NOISE_W))
    assert pilot_overhead(state, pilot_bits, const, p_sum) == pytest.approx(expected, rel=1e-12)


def test_pilot_overhead_linear_in_pilot_payload():
    gains = np.array([1e-8, 2e-8])
    state = orthogonal_state(gains)
    const = radio()
    bits1 = 1.6e6 * pilot_size(0.2, np.full(2, 100))   # 20 items
    bits2 = 1.6e6 * pilot_size(0.4, np.full(2, 100))   # 40 items
    assert pilot_overhead(state, bits2, const, 0.2) == \
        pytest.approx(2.0 * pilot_overhead(state, bits1, const, 0.2), rel=1e-12)


def test_pilot_overhead_recomposition_with_interference():
    rng = np.random.default_rng(31)
    state = random_state(rng, num_robots=4, num_antennas=16)
    const = radio()
    volumes, pilots = np.array([1.6e6, 0.8e6, 2.4e6, 1.2e6]), np.array([10, 7, 1, 30])
    p_sum = 0.2
    p_eq = p_sum / 4
    per_robot = []
    for k in range(4):
        interf = sum(state.interference[k, j] * p_eq for j in range(4) if j != k)
        rate = const.bandwidth_hz * np.log2(
            1.0 + state.gains[k] * p_eq / (interf + const.noise_power_w))
        per_robot.append(volumes[k] * pilots[k] / rate)
    assert pilot_overhead(state, volumes * pilots, const, p_sum) == \
        pytest.approx(max(per_robot), rel=1e-12)


def test_pilot_overhead_signals_infeasible_phase():
    gains = np.array([1e-15])  # hopeless link
    state = orthogonal_state(gains)
    with pytest.raises(PilotPhaseInfeasible):
        pilot_overhead(state, np.array([1.6e6 * 11]), radio(), 0.2, time_budget_s=600.0)


def test_a_nan_pilot_overhead_is_infeasible():
    # nan >= T is False: a NaN dT must not pass for a feasible phase
    state = orthogonal_state(np.array([1e-9, 1e-9]))
    assert np.isnan(pilot_overhead(state, np.array([np.nan, 1.6e6]), radio(), 0.2))
    with pytest.raises(PilotPhaseInfeasible, match="needs nan s"):
        pilot_overhead(state, np.array([np.nan, 1.6e6]), radio(), 0.2, time_budget_s=600.0)


def test_qom_weights_zero_at_perfect_score_and_paper_ratio():
    meta = DatasetMeta.uniform(2)
    weights = qom_weights([1.0, 0.5], meta, 550.0, 1e7)
    assert weights[0] == 0.0
    assert weights[1] > 0.0
    # scores 0.27 / 0.79 with equal Z and |D|: weight ratio (1-g1)/(1-g2)
    weights = qom_weights([0.27, 0.79], meta, 550.0, 1e7)
    assert weights[0] / weights[1] == pytest.approx(0.73 / 0.21, rel=1e-12)


def test_qom_weights_scale_inverse_in_item_volume():
    full = DatasetMeta(np.array([100, 100]), np.array([1.6e6, 0.8e6]))
    weights = qom_weights([0.5, 0.5], full, 550.0, 1e7)
    assert weights[1] == pytest.approx(2.0 * weights[0], rel=1e-12)


def test_qom_weights_reject_bad_scores():
    meta = DatasetMeta.uniform(2)
    with pytest.raises(ValueError):
        qom_weights([-0.1, 0.5], meta, 550.0, 1e7)
    with pytest.raises(ValueError):
        qom_weights([0.1, 1.0001], meta, 550.0, 1e7)
    with pytest.raises(ValueError, match=r"GAE scores must lie in \[0, 1\]"):
        qom_weights([np.nan, 0.5], meta, 550.0, 1e7)     # NaN passes both bound tests


def test_qom_weights_reject_nonpositive_effective_time():
    with pytest.raises(ValueError, match="effective_time_s"):
        qom_weights([0.1, 0.5], DatasetMeta.uniform(2), 0.0, 1e7)


@pytest.mark.parametrize("effective_time_s", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_qom_weights_reject_non_finite_effective_time(effective_time_s):
    with pytest.raises(ValueError, match="effective_time_s must be strictly positive and finite"):
        qom_weights([0.1, 0.5], DatasetMeta.uniform(2), effective_time_s, 1e7)


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
        total += params[k] * np.log2(1 + state.gains[k] * p[k] / (interf + NOISE_W))
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
    assert qom_objective(params[perm], permuted_state, p[perm], NOISE_W) == \
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
    assert accuracy_estimate([0.2, 0.5, 0.8], np.zeros(3), meta, 0.4) == 0.4
    # full upload with equal scores g: base + (1 - g), clamped into [0, 1]
    equal = np.array([0.5, 0.5, 0.5])
    full = meta.num_items.astype(float)
    assert accuracy_estimate(equal, full, meta, 0.4) == pytest.approx(0.9, rel=1e-12)
    assert accuracy_estimate(equal, full, meta, 0.8) == 1.0  # clamped
    # full-dataset case equals base + sum eta_k (1 - g_k)
    mixed = np.array([0.2, 0.5, 0.8])
    eta = meta.num_items / meta.total_items
    expected = 0.3 + float(np.sum(eta * (1 - mixed)))
    assert accuracy_estimate(mixed, full, meta, 0.3) == pytest.approx(expected, rel=1e-12)
    # mixed partial case against independent summation
    frames = np.array([10.0, 40.0, 70.0])
    expected = 0.3 + float(np.sum((1 - mixed) * frames) / meta.total_items)
    assert accuracy_estimate(mixed, frames, meta, 0.3) == pytest.approx(expected, rel=1e-12)
