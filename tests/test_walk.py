import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrng.walk import (
    BatchWalk,
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    WalkState,
    _memory_rotation_gather as memory_rotation_gather,
    _step_source as step_source,
    distribution,
    evolve,
    generalized_coin_matrix,
    initial_state,
    marginal,
)

SQ2 = 1.0 / math.sqrt(2.0)
IDENTITY = CoinOperator.generalized(0.0, 0.0)  # a step with it only shifts and rotates


def config(P, kappa, T, coin=None, flip=FlipOperator.I):
    return WalkConfig(P=P, kappa=kappa, T=T, coin=coin or CoinOperator.hadamard(), flip=flip)


def at(x, *coins):
    """Flat index of position x and coin bits (c_0, ..., c_{kappa-1}), the last one active."""
    return (x << len(coins)) | int("".join(map(str, coins)), 2)


def random_state(cfg, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
    return WalkState(amps / np.linalg.norm(amps), cfg)


# -- index layout -------------------------------------------------------------

def test_all_zeros_point_is_index_zero():
    for kappa in (1, 3):
        st0 = initial_state(config(5, kappa, 0))
        assert st0.amplitudes[0] == 1.0
        assert np.count_nonzero(st0.amplitudes) == 1


# -- config validation --------------------------------------------------------

def test_config_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        config(1, 1, 0)
    with pytest.raises(ValueError):
        config(3, 0, 0)
    with pytest.raises(ValueError):
        config(3, 1, -1)


@pytest.mark.parametrize("kappa", [62, 15000, 10**30])
def test_config_rejects_a_coin_register_past_numpys_index_range(kappa):
    # 2**62 * 2 amplitudes already pass 2**63 - 1; the check forms no 2**kappa
    with pytest.raises(ValueError, match=r"^need kappa <= 61: "):
        config(2, kappa, 0)
    assert config(2, 61, 0).dim == 1 << 62


@pytest.mark.parametrize("T", [2**63, 10**30, 10**5000], ids=["2**63", "1e30", "1e5000"])
def test_config_rejects_a_step_count_past_int64(T):
    # a walk of 2**63 steps would never end; T is not printed, as kappa is not
    with pytest.raises(ValueError, match=r"^step count T must be non-negative and below 2\*\*63$"):
        config(3, 1, T)
    assert config(3, 1, 2**63 - 1).T == 2**63 - 1


def test_coin_operator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        CoinOperator("walsh")
    # a mode given by its value, not as a MeasurementMode, is unknown too
    with pytest.raises(ValueError, match="unknown measurement mode 'all'"):
        marginal(np.zeros((3, 1, 2)), "all")


# -- initial_state ------------------------------------------------------------

def test_initial_state_identity_flip_is_basis_state():
    st0 = initial_state(config(3, 1, 0))
    assert st0.amplitudes[0] == 1.0
    assert np.count_nonzero(st0.amplitudes) == 1


def test_initial_state_x_flip_splits_active_coin():
    st0 = initial_state(config(3, 1, 0, flip=FlipOperator.X))
    expect = np.zeros(6, dtype=complex)
    expect[at(0, 0)] = SQ2
    expect[at(0, 1)] = SQ2
    np.testing.assert_array_equal(st0.amplitudes, expect)


def test_initial_state_y_flip_puts_i_on_active_one():
    st0 = initial_state(config(3, 2, 0, flip=FlipOperator.Y))
    expect = np.zeros(12, dtype=complex)
    expect[at(0, 0, 0)] = SQ2
    expect[at(0, 0, 1)] = 1j * SQ2
    np.testing.assert_array_equal(st0.amplitudes, expect)


# -- step stages --------------------------------------------------------------

def test_hadamard_coin_on_active_zero():
    # the first step's coin spreads |0,0> evenly; the shift then splits the halves
    u = CoinOperator.hadamard().matrix()
    np.testing.assert_allclose(u @ [1.0, 0.0], [SQ2, SQ2], atol=1e-15)


def test_hadamard_coin_is_involution():
    u = CoinOperator.hadamard().matrix()
    np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-15)


def test_zero_angle_general_coin_is_identity():
    np.testing.assert_array_equal(IDENTITY.matrix(), np.eye(2))


@given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, math.pi))
def test_general_coin_is_unitary(theta, phi):
    u = generalized_coin_matrix(theta, phi)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_general_coin_broadcasts_over_angle_arrays():
    theta = np.array([[0.0, 0.3], [1.1, 2.5]])
    phi = np.array([0.7, 1.9])
    coins = generalized_coin_matrix(theta, phi)
    assert coins.shape == (2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            expect = generalized_coin_matrix(theta[i, j], phi[j])
            assert coins[i, j].tobytes() == expect.tobytes()


def test_coin_matrices_keep_the_batch_order_and_each_coin_kind():
    # a Hadamard coin's matrix is X's whatever its angles, and BatchWalk's
    # walk b follows matrix b
    coins = (CoinOperator.generalized(0.3, 1.2), CoinOperator("hadamard", 0.3, 1.2),
             CoinOperator.generalized(2.0, 0.0))
    assert coins[0].matrix().tobytes() == generalized_coin_matrix(0.3, 1.2).tobytes()
    assert coins[1].matrix().tobytes() == FlipOperator.X.matrix().tobytes()
    assert coins[2].matrix().tobytes() == generalized_coin_matrix(2.0, 0.0).tobytes()
    walk = BatchWalk(5, 2, np.stack([coin.matrix() for coin in coins]), [FlipOperator.Y] * 3)
    for _ in range(7):
        walk.step()
    peaks = walk.peaks(tuple(MeasurementMode), np.arange(len(coins)))
    assert len(set(peaks[0].tolist())) == 3  # three coins, three walks
    for mode, mode_peaks in zip(MeasurementMode, peaks):
        for coin, got in zip(coins, mode_peaks):
            want = distribution(evolve(config(5, 2, 7, coin, FlipOperator.Y)), mode).probs.max()
            assert got == pytest.approx(want, rel=1e-13), (coin, mode)


def test_complex_abs_of_an_element_does_not_depend_on_its_place():
    # BatchWalk.peaks takes the complex np.abs of a few walks' amplitudes, a
    # full readout of every walk's: a SIMD loop that rounded by lane or in a
    # scalar tail would give the two readouts different bits
    rng = np.random.default_rng(3)
    scale = np.exp2(rng.integers(-1080, 8, size=(2, 1024)))
    scale[:, ::7] = 1.0
    z = np.empty(1024, dtype=np.complex128)
    z.real, z.imag = rng.standard_normal((2, 1024)) * scale * (rng.random((2, 1024)) < 0.9)
    whole = np.abs(z)
    for length in [*range(1, 41), 63, 64, 65, 127, 128, 129, 500]:
        for start in range(0, 1024 - length, 37 + length):
            part = np.abs(z[start:start + length].copy())
            assert part.tobytes() == whole[start:start + length].tobytes(), (start, length)
            two = np.abs(z[start:start + length].copy().reshape(-1, 1))
            assert two.tobytes() == part.tobytes(), (start, length)


def test_flip_matrices_are_unitary():
    for flip in FlipOperator:
        u = flip.matrix()
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_shift_moves_by_active_coin():
    # (|0,0> + |0,1>)/sqrt2 with P=5 -> (|1,0> + |4,1>)/sqrt2
    out = evolve(config(5, 1, 1, coin=IDENTITY, flip=FlipOperator.X))
    expect = np.zeros(10, dtype=complex)
    expect[at(1, 0)] = SQ2
    expect[at(4, 1)] = SQ2
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)


def test_shift_wraps_around_the_cycle():
    # active coin 0 moves +1 per step: x = 1, 2, then 0 again
    out = evolve(config(3, 1, 3, coin=IDENTITY))
    assert out.amplitudes[at(0, 0)] == 1.0


def test_shift_applied_P_times_is_identity():
    # kappa = 1 has no rotation, so the step's gather is the shift alone;
    # with memory, every coin takes P turns as the active one in P * kappa steps
    for kappa in (1, 2, 3):
        P = 5
        source = step_source(P, kappa)
        composed = np.arange(source.size)
        for _ in range(P * kappa):
            composed = composed[source]
        np.testing.assert_array_equal(composed, np.arange(source.size))
        cfg = config(P, kappa, P * kappa, coin=IDENTITY, flip=FlipOperator.Y)
        np.testing.assert_array_equal(evolve(cfg).amplitudes, initial_state(cfg).amplitudes)


def test_memory_rotation_is_identity_for_single_coin():
    np.testing.assert_array_equal(memory_rotation_gather(1), [0, 1])


def test_memory_rotation_moves_active_coin_to_front():
    # active coin 1 moves x from 0 to 4, then coins (0,1,1) -> (1,0,1)
    assert step_source(5, 3)[at(4, 1, 0, 1)] == at(0, 0, 1, 1)


def test_memory_rotation_has_order_kappa():
    for kappa in (1, 2, 3, 4):
        gather = memory_rotation_gather(kappa)
        composed = np.arange(1 << kappa)
        for k in range(1, kappa + 1):
            composed = composed[gather]
            assert np.array_equal(composed, np.arange(1 << kappa)) == (k == kappa)


@given(seed=st.integers(0, 2**32 - 1), kappa=st.integers(1, 3), P=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_each_stage_preserves_norm(seed, kappa, P):
    # the coin stage is unitary (tests above) and the shift plus rotation
    # is one gather, so the step preserves the norm iff the gather permutes
    source = step_source(P, kappa)
    np.testing.assert_array_equal(np.sort(source), np.arange(P << kappa))
    rng = np.random.default_rng(seed)
    coin = CoinOperator.generalized(*rng.uniform(0.0, math.pi, size=2))
    for c in (CoinOperator.hadamard(), coin):
        cfg = config(P, kappa, 7, coin=c, flip=FlipOperator.Y)
        assert abs(evolve(cfg).norm() - 1.0) < 1e-12


# -- evolve -------------------------------------------------------------------

def test_evolve_zero_steps_is_initial_state():
    cfg = config(3, 2, 0, flip=FlipOperator.X)
    np.testing.assert_array_equal(evolve(cfg).amplitudes, initial_state(cfg).amplitudes)


def test_one_step_single_coin_walk():
    # coin then shift; kappa=1 has no memory rotation
    out = evolve(config(5, 1, 1))
    expect = np.zeros(10, dtype=complex)
    expect[at(1, 0)] = SQ2
    expect[at(4, 1)] = SQ2
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)


def test_one_step_two_coin_walk_rotates_coins():
    # after the shift the rotation turns coins (0,1) into (1,0)
    out = evolve(config(3, 2, 1))
    expect = np.zeros(12, dtype=complex)
    expect[at(1, 0, 0)] = SQ2
    expect[at(2, 1, 0)] = SQ2
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)


def test_evolve_is_deterministic():
    cfg = config(5, 2, 37, coin=CoinOperator.generalized(0.9, 0.4), flip=FlipOperator.Y)
    np.testing.assert_array_equal(evolve(cfg).amplitudes, evolve(cfg).amplitudes)


def _three_stage_evolve(cfg):
    """evolve as first written: matmul coin, two rolls, then the rotation gather."""
    P, nc = cfg.P, 1 << cfg.kappa
    u = cfg.coin.matrix()
    amps = np.zeros(cfg.dim, dtype=np.complex128)
    amps[0] = 1.0
    amps = (amps.reshape(-1, 2) @ cfg.flip.matrix().T).reshape(-1)
    for _ in range(cfg.T):
        s = (amps.reshape(-1, 2) @ u.T).reshape(P, nc // 2, 2)
        out = np.empty_like(s)
        out[..., 0] = np.roll(s[..., 0], 1, axis=0)
        out[..., 1] = np.roll(s[..., 1], -1, axis=0)
        amps = out.reshape(P, nc)[:, memory_rotation_gather(cfg.kappa)].reshape(-1)
    return amps


@pytest.mark.parametrize("P,kappa", [(3, 1), (5, 2), (21, 3), (51, 4)])
def test_evolve_is_bit_identical_to_three_stage_step(P, kappa):
    # seeded extraction samples from evolve's state, so its bits are pinned
    for coin in (CoinOperator.hadamard(), CoinOperator.generalized(0.7, 1.9)):
        for flip in FlipOperator:
            cfg = config(P, kappa, 60, coin=coin, flip=flip)
            assert np.array_equal(evolve(cfg).amplitudes, _three_stage_evolve(cfg)), (coin, flip)


def test_long_evolution_keeps_norm():
    cfg = config(11, 3, 500)
    assert abs(evolve(cfg).norm() - 1.0) < 1e-10


# -- dense-operator oracle ----------------------------------------------------

def dense_step_matrix(P, kappa, coin_matrix):
    """Walk operator assembled entry by entry from the update rules."""
    nc = 2**kappa
    dim = P * nc
    C = np.zeros((dim, dim), dtype=complex)
    S = np.zeros((dim, dim), dtype=complex)
    M = np.zeros((dim, dim), dtype=complex)
    for x in range(P):
        for code in range(nc):
            i = x * nc + code
            active = code & 1
            for a in (0, 1):
                C[x * nc + ((code & ~1) | a), i] += coin_matrix[a, active]
            x2 = (x + (1 if active == 0 else -1)) % P
            S[x2 * nc + code, i] = 1.0
            bits = [(code >> (kappa - 1 - j)) & 1 for j in range(kappa)]
            rotated = [bits[-1]] + bits[:-1]
            code2 = 0
            for b in rotated:
                code2 = (code2 << 1) | b
            M[x * nc + code2, i] = 1.0
    return M @ S @ C


@pytest.mark.parametrize("P,kappa,T,coin,flip", [
    (3, 1, 4, CoinOperator.hadamard(), FlipOperator.I),
    (5, 1, 7, CoinOperator.generalized(1.1, 0.3), FlipOperator.X),
    (4, 2, 10, CoinOperator.hadamard(), FlipOperator.Y),
    (5, 2, 9, CoinOperator.generalized(0.5, 2.2), FlipOperator.I),
])
def test_factored_evolution_matches_dense_operator(P, kappa, T, coin, flip):
    cfg = WalkConfig(P=P, kappa=kappa, T=T, coin=coin, flip=flip)
    W = dense_step_matrix(P, kappa, coin.matrix())
    vec = np.zeros(cfg.dim, dtype=complex)
    vec[0] = 1.0
    full_flip = np.kron(np.eye(cfg.dim // 2), flip.matrix())
    vec = np.linalg.matrix_power(W, T) @ (full_flip @ vec)
    np.testing.assert_allclose(evolve(cfg).amplitudes, vec, atol=1e-10)


# -- distributions ------------------------------------------------------------

def test_unevolved_basis_state_is_point_mass():
    dist = distribution(initial_state(config(3, 2, 0)), MeasurementMode.ALL)
    assert dist.probs.argmax() == 0 and dist.probs[0] == 1.0
    assert dist.probs.size == 12


def test_position_marginal_of_one_step_walk():
    dist = distribution(evolve(config(5, 1, 1)), MeasurementMode.POSITION_ONLY)
    np.testing.assert_allclose(dist.probs, [0.0, 0.5, 0.0, 0.0, 0.5], atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1), kappa=st.integers(1, 4), P=st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_marginals_are_consistent(seed, kappa, P):
    cfg = config(P, kappa, 0)
    state = random_state(cfg, seed)
    full = distribution(state, MeasurementMode.ALL)
    mem = distribution(state, MeasurementMode.MEMORY_ONLY)
    pos = distribution(state, MeasurementMode.POSITION_ONLY)
    assert full.probs.size == cfg.dim and mem.probs.size == cfg.dim // 2 and pos.probs.size == P
    for dist in (full, mem, pos):
        assert abs(dist.probs.sum() - 1.0) < 1e-10
        assert dist.probs.min() >= 0.0
    np.testing.assert_allclose(full.probs.reshape(-1, 2).sum(axis=1), mem.probs, atol=1e-10)
    np.testing.assert_allclose(full.probs.reshape(P, -1).sum(axis=1), pos.probs, atol=1e-10)


def test_single_coin_memory_marginal_equals_position_marginal():
    state = evolve(config(7, 1, 23))
    mem = distribution(state, MeasurementMode.MEMORY_ONLY)
    pos = distribution(state, MeasurementMode.POSITION_ONLY)
    np.testing.assert_array_equal(mem.probs, pos.probs)


@pytest.mark.parametrize("P,kappa,T", [(5, 3, 137), (51, 4, 2000)])
def test_position_marginal_adds_coin_codes_left_to_right(P, kappa, T):
    # the order the sweep has always summed in; numpy's pairwise sum
    # differs in the last ulp at these walks
    state = evolve(config(P, kappa, T))
    weights = np.abs(state.amplitudes.reshape(P, -1)) ** 2
    expect = weights[:, 0]
    for code in range(1, 1 << kappa):
        expect = expect + weights[:, code]
    got = distribution(state, MeasurementMode.POSITION_ONLY).probs
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("mode", list(MeasurementMode))
def test_batched_marginal_matches_each_distribution(mode):
    # the sweep reads a batch, on a last axis, through the same function
    cfgs = [config(5, 3, 40 + 7 * b, CoinOperator.generalized(0.3 * b, 0.5), flip)
            for b, flip in enumerate(FlipOperator)]
    states = [evolve(cfg) for cfg in cfgs]
    weights = np.abs(np.stack([s.amplitudes.reshape(5, 4, 2) for s in states], axis=-1)) ** 2
    batch = marginal(weights, mode).reshape(-1, len(cfgs))
    assert batch.shape == (distribution(states[0], mode).probs.size, len(cfgs))
    for column, state in zip(batch.T, states):
        assert np.array_equal(column, distribution(state, mode).probs)
