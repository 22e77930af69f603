import numpy as np
import pytest

from conftest import NOISE_W, radio, random_state
from mcpa.channel import (ChannelState, RadioConstants, RobotGeometry,
                          draw_channels, sinr_vector)
from mcpa.config import db_to_linear


def test_single_robot_interference_is_gain():
    state = draw_channels(radio(num_antennas=8), RobotGeometry(np.array([100.0])), 3)
    assert state.interference.shape == (1, 1)
    assert state.interference[0, 0] == state.gains[0]


def test_large_scale_factor_matches_db_arithmetic():
    # -30 dB ref pathloss, -20 dB shadow, alpha=3 at d=1 m -> 1e-5 exactly
    assert db_to_linear(-30.0) * db_to_linear(-20.0) * 1.0 ** (-3.0) == pytest.approx(1e-5, rel=1e-12)
    # the drawn gain divided by the raw fading norm recovers that factor
    const = radio(num_antennas=16)
    rng = np.random.default_rng(11)
    parts = rng.standard_normal((2, 1, 16))
    g = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    state = draw_channels(const, RobotGeometry(np.array([1.0])), 11)
    assert state.gains[0] == pytest.approx(1e-5 * np.sum(np.abs(g) ** 2), rel=1e-12)


def test_seeded_draw_is_bit_identical():
    const = radio(num_antennas=32)
    geom = RobotGeometry(np.array([60.0, 120.0, 240.0]))
    a = draw_channels(const, geom, 42)
    b = draw_channels(const, geom, 42)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.interference, b.interference)
    c = draw_channels(const, geom, 43)
    assert not np.array_equal(a.gains, c.gains)


def test_rejects_bad_geometry_and_antennas():
    with pytest.raises(ValueError):
        RadioConstants(1e7, 1e-13, 1e-3, 1e-2, 3.0, 0)
    with pytest.raises(ValueError):
        RobotGeometry(np.array([100.0, -5.0]))
    with pytest.raises(ValueError):
        RobotGeometry(np.array([0.0]))


def test_state_invariants_over_many_seeds():
    rng = np.random.default_rng(0)
    for _ in range(120):
        state = random_state(rng, num_robots=6, num_antennas=16)
        k = state.num_robots
        assert np.all(state.gains >= 0.0)
        assert np.all(state.interference >= 0.0)
        assert np.array_equal(np.diagonal(state.interference), state.gains)
        # Cauchy-Schwarz: I_{k,j} <= H_j
        assert np.all(state.interference <= state.gains[None, :] * (1.0 + 1e-9))


def test_constructor_rejects_invariant_violations():
    with pytest.raises(ValueError):
        ChannelState(gains=np.array([1.0, 1.0]),
                     interference=np.array([[1.0, 2.0], [0.5, 1.0]]))  # CS violated
    with pytest.raises(ValueError):
        ChannelState(gains=np.array([1.0, 1.0]),
                     interference=np.array([[0.9, 0.1], [0.1, 1.0]]))  # diag mismatch


def test_asymptotic_orthogonality_in_antenna_count():
    # pooled median of I_{k,j}/H_j over off-diagonal pairs must fall as N grows
    medians = []
    for n_ant in (16, 256, 4096):
        ratios = []
        for seed in range(1000):
            state = draw_channels(radio(n_ant), RobotGeometry(np.full(4, 100.0)), seed)
            off = ~np.eye(4, dtype=bool)
            ratios.append((state.interference / state.gains[None, :])[off])
        medians.append(np.median(np.concatenate(ratios)))
    assert medians[0] > medians[1] > medians[2]


def test_sinr_zero_power_and_orthogonal_unit():
    rng = np.random.default_rng(5)
    state = random_state(rng, num_robots=4, num_antennas=16)
    p = np.array([0.0, 0.01, 0.02, 0.03])
    assert sinr_vector(state, p, NOISE_W)[0] == 0.0
    # orthogonal channels with H p = sigma^2 give SINR exactly 1
    gains = np.array([2e-12, 4e-12])
    ortho = ChannelState(gains=gains, interference=np.diag(gains))
    powers = NOISE_W / gains
    assert sinr_vector(ortho, powers, NOISE_W)[0] == pytest.approx(1.0, rel=1e-12)
    assert sinr_vector(ortho, powers, NOISE_W)[1] == pytest.approx(1.0, rel=1e-12)


def test_sinr_matches_direct_recomputation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = random_state(rng, num_robots=5, num_antennas=8)
        p = rng.uniform(0.0, 0.05, size=5)
        for k in range(5):
            interf = sum(state.interference[k, j] * p[j] for j in range(5) if j != k)
            expected = state.gains[k] * p[k] / (interf + NOISE_W)
            assert sinr_vector(state, p, NOISE_W)[k] == pytest.approx(expected, rel=1e-12)


def test_sinr_monotone_in_powers():
    rng = np.random.default_rng(23)
    for _ in range(30):
        state = random_state(rng, num_robots=5, num_antennas=8)
        p = rng.uniform(0.001, 0.05, size=5)
        k = int(rng.integers(5))
        j = int((k + 1 + rng.integers(4)) % 5)
        base = sinr_vector(state, p, NOISE_W)[k]
        bumped = p.copy()
        bumped[j] *= 1.5
        assert sinr_vector(state, bumped, NOISE_W)[k] <= base + 1e-18
        own = p.copy()
        own[k] *= 1.5
        assert sinr_vector(state, own, NOISE_W)[k] >= base - 1e-18


def test_sinr_rejects_bad_index():
    state = random_state(np.random.default_rng(1), num_robots=3, num_antennas=4)
    with pytest.raises(IndexError):
        sinr_vector(state, np.zeros(3), NOISE_W)[3]


def test_sinr_vector_agrees_with_scalar():
    # each entry equals the single-robot formula evaluated on its own
    rng = np.random.default_rng(29)
    state = random_state(rng, num_robots=6, num_antennas=8)
    p = rng.uniform(0.0, 0.03, size=6)
    vec = sinr_vector(state, p, NOISE_W)
    for k in range(6):
        signal = state.gains[k] * p[k]
        scalar = signal / (state.interference[k] @ p - signal + NOISE_W)
        assert vec[k] == pytest.approx(scalar, rel=1e-14)
