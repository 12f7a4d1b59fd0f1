import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrng import maxprob
from qwrng.maxprob import (
    MaxProbResult,
    SweepGrid,
    g_functions,
    min_over_time,
    sweep_bytes,
)
from qwrng.rates import gamma_from_g
from qwrng.walk import (
    BatchWalk,
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    _memory_rotation_gather as memory_rotation_gather,
    distribution,
    evolve,
    generalized_coin_matrix,
    marginal,
)

ALL = MeasurementMode.ALL
MEM = MeasurementMode.MEMORY_ONLY
POS = MeasurementMode.POSITION_ONLY


def peak(cfg, mode):
    """Largest outcome probability of the evolved walk in `mode`."""
    return distribution(evolve(cfg), mode).probs.max()


# -- peak outcome probability --------------------------------------------------

def test_zero_steps_is_a_point_mass():
    cfg = WalkConfig(P=7, kappa=2, T=0)
    for mode in MeasurementMode:
        assert peak(cfg, mode) == 1.0


def test_one_step_position_peak():
    assert peak(WalkConfig(P=5, kappa=1, T=1), POS) == pytest.approx(0.5)


def test_one_step_two_coin_peak():
    assert peak(WalkConfig(P=3, kappa=2, T=1), ALL) == pytest.approx(0.5)


# -- gamma ---------------------------------------------------------------------

def test_gamma_values():
    assert gamma_from_g(1.0) == 0.0
    assert gamma_from_g(0.25) == 2.0
    assert gamma_from_g(0.1250) == 3.0


def test_gamma_rejects_out_of_range():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            gamma_from_g(bad)


def test_a_peak_of_one_has_gamma_plus_zero():
    # a deterministic walk's peak is 1, moved either way by rounding by
    # about 5.8e-17 a step; below 1 - 1e-9 the rate counts
    assert math.copysign(1.0, gamma_from_g(1.0)) == 1.0
    for near in (1 + 1e-12, 1 - 1e-12):
        assert gamma_from_g(near) == 0.0
        assert math.copysign(1.0, gamma_from_g(near)) == 1.0
    assert gamma_from_g(1 - 1e-6) > 0.0
    for bad in (math.nan, 1 + 1e-6):
        with pytest.raises(ValueError):
            gamma_from_g(bad)


def test_the_certain_position_readout_at_p2_has_gamma_plus_zero():
    # at P = 2 each step moves the walker to the other site, so the
    # position readout is certain, yet this sweep's minimum rounds to
    # 0.9999999999999952
    res = g_functions(2, 3, SweepGrid.for_coin("general", t_max=40, R=8), (POS,))[POS]
    assert 1 - 1e-13 < res.value < 1.0
    assert res.gamma == 0.0 and math.copysign(1.0, res.gamma) == 1.0


# -- grid validation -----------------------------------------------------------

def test_grid_rejects_empty_ranges():
    with pytest.raises(ValueError):
        SweepGrid(t_min=1, t_max=0)
    with pytest.raises(ValueError):
        SweepGrid(t_min=0, t_max=10)
    with pytest.raises(ValueError):
        SweepGrid(1, 10, R=0)
    with pytest.raises(ValueError):
        SweepGrid(1, 10, flips=())
    # a string is not a flip: it must not be dropped into an empty flip set
    for flips in (("x",), (FlipOperator.I, "x")):
        with pytest.raises(ValueError):
            SweepGrid(1, 5, flips=flips)


def test_grid_needs_its_window():
    # the window's defaults live in SweepGrid.for_coin alone
    with pytest.raises(TypeError):
        SweepGrid(R=16)
    with pytest.raises(TypeError):
        SweepGrid(1)


def test_grid_defaults():
    assert SweepGrid(1, 10).flips == (FlipOperator.I,)
    assert SweepGrid(1, 10, R=4).flips == (FlipOperator.I, FlipOperator.X, FlipOperator.Y)
    assert SweepGrid(1, 10, flips=(FlipOperator.Y,)).flips == (FlipOperator.Y,)
    # a Hadamard grid has one coin
    hadamard = SweepGrid(1, 10)
    assert hadamard.matrices().shape == (1, 2, 2)
    assert hadamard.matrices()[0].tobytes() == CoinOperator.hadamard().matrix().tobytes()
    assert hadamard.coin(0) == CoinOperator.hadamard()


@pytest.mark.parametrize("R", [1, 4, 16, 64])
def test_grid_coins_are_theta_major_over_the_angle_grid(R):
    # each angle is g * (pi / R), bit for bit, theta-major over (theta, phi)
    grid = SweepGrid(1, 10, R=R)
    pairs = [(g * (math.pi / R), h * (math.pi / R)) for g in range(R + 1) for h in range(R + 1)]
    assert [grid.coin(b) for b in range(len(pairs))] == [
        CoinOperator.generalized(theta, phi) for theta, phi in pairs]
    angles = np.array([(grid.coin(b).theta, grid.coin(b).phi) for b in range(len(pairs))])
    assert angles.tobytes() == np.array(pairs).tobytes()
    assert grid.matrices().tobytes() == generalized_coin_matrix(*np.array(pairs).T).tobytes()


@pytest.mark.parametrize("t_min,t_max", [(1, 2**63), (2**63, 2**63), (5, 10**5000)],
                         ids=["t_max", "both", "t_max-1e5000"])
def test_grid_rejects_a_window_past_int64(t_min, t_max):
    with pytest.raises(ValueError, match=r"^t_max must be below 2\*\*63$"):
        SweepGrid(t_min, t_max)
    assert SweepGrid(2**63 - 1, 2**63 - 1).t_max == 2**63 - 1


def test_grid_for_coin_fills_only_unset_fields():
    I, X, Y = FlipOperator.I, FlipOperator.X, FlipOperator.Y
    hadamard, general = SweepGrid.for_coin("hadamard"), SweepGrid.for_coin("general")
    assert (hadamard.t_min, hadamard.t_max, hadamard.R, hadamard.flips) == (1, 2000, None, (I,))
    assert (general.t_min, general.t_max, general.R, general.flips) == (1, 1000, 16, (I, X, Y))
    assert SweepGrid.for_coin("general", t_min=None, t_max=9) == SweepGrid(1, 9, R=16)
    assert SweepGrid.for_coin("hadamard", t_min=5).t_min == 5
    flips = (X,)
    assert SweepGrid.for_coin("general", 3, 9, 2, flips) == SweepGrid(3, 9, R=2, flips=flips)
    with pytest.raises(ValueError, match="general coin only"):
        SweepGrid.for_coin("hadamard", R=16)
    with pytest.raises(ValueError, match="empty time range"):
        SweepGrid.for_coin("hadamard", t_max=0)
    with pytest.raises(ValueError, match="must be positive"):
        SweepGrid.for_coin("general", R=0)
    with pytest.raises(ValueError, match="unknown coin family"):
        SweepGrid.for_coin("grover")


# -- Hadamard sweeps -----------------------------------------------------------

def test_single_coin_sweep_matches_published_value():
    res = g_functions(3, 1, SweepGrid(1, 2000), (ALL,))[ALL]
    assert res.value == pytest.approx(0.2224, abs=5e-4)
    assert res.at_flip is FlipOperator.I
    assert res.coin.kind == "hadamard"


def test_two_coin_sweep_matches_published_value():
    res = g_functions(3, 2, SweepGrid(1, 2000), (ALL,))[ALL]
    assert res.value == pytest.approx(0.1250, abs=5e-4)


def test_recorded_argmin_reproduces_value():
    res = g_functions(5, 2, SweepGrid(1, 300), (MEM,))[MEM]
    again = peak(res.walk_config(), MEM)
    assert again == pytest.approx(res.value, abs=1e-12)


def test_value_bounds():
    res_all = g_functions(3, 2, SweepGrid(1, 100), (ALL,))[ALL]
    assert 1.0 / 12 <= res_all.value <= 1.0
    res_pos = g_functions(3, 2, SweepGrid(1, 100), (POS,))[POS]
    assert 1.0 / 3 <= res_pos.value <= 1.0


def test_mode_ordering_at_fixed_parameters():
    # coarser readout concentrates probability, so the peak can only grow
    for cfg in (WalkConfig(P=5, kappa=2, T=40), WalkConfig(P=3, kappa=3, T=17)):
        a = peak(cfg, ALL)
        m = peak(cfg, MEM)
        p = peak(cfg, POS)
        assert a <= m + 1e-12 and m <= p + 1e-12


def test_single_coin_memory_sweep_equals_position_sweep():
    grid = SweepGrid(1, 400)
    mem = g_functions(5, 1, grid, (MEM,))[MEM]
    pos = g_functions(5, 1, grid, (POS,))[POS]
    assert mem.value == pos.value
    assert mem.at_t == pos.at_t


# -- generalized sweeps --------------------------------------------------------

def test_angle_grid_refinement_only_improves():
    coarse = g_functions(3, 1, SweepGrid(1, 60, R=2), (ALL,))[ALL]
    fine = g_functions(3, 1, SweepGrid(1, 60, R=4), (ALL,))[ALL]  # contains the R=2 angles
    assert fine.value <= coarse.value + 1e-15


def test_flip_set_refinement_only_improves():
    base = g_functions(3, 2, SweepGrid(1, 40, R=2, flips=(FlipOperator.I,)), (ALL,))[ALL]
    full = g_functions(3, 2, SweepGrid(1, 40, R=2), (ALL,))[ALL]
    assert full.value <= base.value + 1e-15


def test_sweep_beats_any_single_grid_point():
    grid = SweepGrid(1, 50, R=4)
    res = g_functions(3, 1, grid, (ALL,))[ALL]
    fixed = min_over_time(
        3, 1, ALL, CoinOperator.generalized(math.pi / 4, 0.0), FlipOperator.I, 1, 50
    )
    assert res.value <= fixed.value + 1e-15


def test_min_over_time_agrees_with_direct_scan():
    coin = CoinOperator.generalized(0.8, 0.3)
    best = min(
        peak(WalkConfig(P=5, kappa=2, T=t, coin=coin, flip=FlipOperator.X), POS)
        for t in range(1, 31)
    )
    res = min_over_time(5, 2, POS, coin, FlipOperator.X, 1, 30)
    assert res.value == pytest.approx(best, abs=1e-13)
    assert res.coin == coin


def test_shared_sweep_matches_individual_sweeps():
    grid = SweepGrid(1, 80, R=2)
    combined = g_functions(5, 2, grid)
    for mode in (ALL, MEM, POS):
        single = g_functions(5, 2, grid, (mode,))[mode]
        assert combined[mode] == single


# -- grid symmetries -----------------------------------------------------------
# Equivalent coins must give equal minima through the sweep engine, so a
# kernel change that breaks one fails here by name, not only as a moved digest.

SYMMETRY_CELLS = [(3, 1), (5, 2), (11, 3)]


def _minima(P, kappa, flip, theta, phi):
    """min_over_time at one coin and flip, t <= 60, in each mode."""
    coin = CoinOperator.generalized(theta, phi)
    return [min_over_time(P, kappa, mode, coin, flip, 1, 60) for mode in MeasurementMode]


def _random_angles(P, kappa):
    return np.random.default_rng(100 * P + kappa).uniform(0.0, math.pi, size=(3, 2)).tolist()


@pytest.mark.parametrize("P,kappa", SYMMETRY_CELLS)
def test_phi_sign_symmetry_is_exact_for_real_start_states(P, kappa):
    # phi -> -phi conjugates the coin, and flips I and X start from real
    # amplitudes, so the walk is conjugated and every |amplitude|^2 is the
    # same float; the Y flip's start state is complex and breaks this
    for theta, phi in _random_angles(P, kappa):
        for flip in (FlipOperator.I, FlipOperator.X):
            for a, b in zip(_minima(P, kappa, flip, theta, phi),
                            _minima(P, kappa, flip, theta, -phi)):
                assert (b.value, b.at_t) == (a.value, a.at_t), (
                    f"symmetry phi -> -phi broken: {a.mode.value} minimum, flip {flip.value}, "
                    f"theta={theta!r}, phi={phi!r}: {a.value!r} at t={a.at_t} "
                    f"against {b.value!r} at t={b.at_t}")


@pytest.mark.parametrize("P,kappa", SYMMETRY_CELLS)
def test_phi_shift_by_pi_negates_the_coin(P, kappa):
    # e^{i(phi + pi)} = -e^{i phi}: a global sign, equal up to the rounding of exp
    for theta, phi in _random_angles(P, kappa):
        for flip in FlipOperator:
            for a, b in zip(_minima(P, kappa, flip, theta, phi),
                            _minima(P, kappa, flip, theta, phi + math.pi)):
                assert abs(b.value - a.value) <= 1e-13, (
                    f"symmetry phi -> phi + pi broken: {a.mode.value} minimum, flip {flip.value}, "
                    f"theta={theta!r}, phi={phi!r}: {a.value!r} against {b.value!r}")


@pytest.mark.parametrize("P,kappa", SYMMETRY_CELLS)
def test_theta_reflection_symmetry_for_flip_i(P, kappa):
    # theta -> pi - theta turns the coin U into -ZUZ, Z = diag(1, -1), so each
    # path picks up a sign set by its first and last coin values; from the
    # unflipped start, whose coins are all 0, every |amplitude|^2 is unchanged
    for theta, phi in _random_angles(P, kappa):
        for a, b in zip(_minima(P, kappa, FlipOperator.I, theta, phi),
                        _minima(P, kappa, FlipOperator.I, math.pi - theta, phi)):
            assert abs(b.value - a.value) <= 1e-13, (
                f"symmetry theta -> pi - theta broken: {a.mode.value} minimum, flip i, "
                f"theta={theta!r}, phi={phi!r}: {a.value!r} against {b.value!r}")



@pytest.mark.parametrize("P", [3, 5, 11, 21])
@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_phi_shift_by_two_pi_over_p_changes_nothing(P, kappa):
    # coin value 0 steps right with e^{i phi} and coin value 1 steps left with
    # e^{-i phi}, so a path's phase is e^{i phi dx}; dx mod P is the site the
    # path lands on, so phi + 2 pi/P multiplies each site by one phase
    theta, phi = _random_angles(P, kappa)[0]
    shifted = phi + 2 * math.pi / P
    for flip in FlipOperator:
        walks = [evolve(WalkConfig(P=P, kappa=kappa, T=60, flip=flip,
                                   coin=CoinOperator.generalized(theta, f)))
                 for f in (phi, shifted)]
        for mode in MeasurementMode:
            a, b = (distribution(w, mode).probs for w in walks)
            assert np.abs(b - a).max() <= 1e-13, (flip, mode)
        for a, b in zip(_minima(P, kappa, flip, theta, phi),
                        _minima(P, kappa, flip, theta, shifted)):
            assert b.at_t == a.at_t, (flip, a.mode)
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=0), (flip, a.mode)

# -- step kernel ---------------------------------------------------------------

def _einsum_step(states, coins, kappa):
    """The sweep step as first written: complex einsum coin, two rolls, rotation."""
    B, P, nc = states.shape
    s = np.einsum("bic,bac->bia", states.reshape(B, P * nc // 2, 2), coins)
    s = s.reshape(B, P, nc // 2, 2)
    out = np.empty_like(s)
    out[..., 0] = np.roll(s[..., 0], 1, axis=1)
    out[..., 1] = np.roll(s[..., 1], -1, axis=1)
    out = out.reshape(B, P, nc)
    return out[:, :, memory_rotation_gather(kappa)] if kappa > 1 else out


def _einsum_peaks(states, mode):
    """Mode peaks as first written.

    The gather above leaves the coin axis outermost in memory, so
    sum(axis=2) adds the coin codes left to right.
    """
    weights = np.abs(states) ** 2
    B, P, nc = weights.shape
    if mode is ALL:
        return weights.reshape(B, -1).max(axis=1)
    if mode is MEM:
        return weights.reshape(B, P, nc // 2, 2).sum(axis=3).reshape(B, -1).max(axis=1)
    return weights.sum(axis=2).max(axis=1)


def _amplitudes(state):
    """The kernel's (re/im, row, B) state as (B, P*2**kappa) complex amplitudes.

    Row c*(n/2) + p holds amplitude 2p + c: amplitude pair p, active coin c.
    """
    _, n, B = state.shape
    j = np.arange(n)
    rows = (j % 2) * (n // 2) + j // 2
    amps = np.empty((B, n), dtype=np.complex128)
    amps.real, amps.imag = state[0, rows].T, state[1, rows].T
    return amps


@pytest.mark.parametrize("P,kappa", [(3, 1), (5, 2), (21, 3), (51, 4)])
def test_step_kernel_is_bit_identical_to_einsum(P, kappa):
    # table CSVs print repr(value), so a last-ulp change in a step or a
    # peak would change the published bytes: equality here is exact
    nc = 1 << kappa
    for grid in (SweepGrid(1, 60, R=4), SweepGrid(1, 60)):
        coins = grid.matrices()
        B = coins.shape[0]
        # one flip for every walk, then a batch whose flips change walk by walk
        for flips in (*([flip] * B for flip in FlipOperator),
                      [tuple(FlipOperator)[b % 3] for b in range(B)]):
            walk = BatchWalk(P, kappa, coins, flips)
            start = np.zeros((B, P * nc // 2, 2), dtype=np.complex128)
            start[:, 0, 0] = 1.0
            ref = (start @ np.stack([flip.matrix().T for flip in flips])).reshape(B, P, nc)
            for t in range(1, 61):
                ref = _einsum_step(ref, coins, kappa)
                walk.step()
                got = _amplitudes(walk.state).reshape(B, P, nc)
                assert np.array_equal(got, ref), (grid.R, flips, t)
                every = walk.peaks(tuple(MeasurementMode), np.arange(B))
                found = walk.least(tuple(MeasurementMode), [math.inf] * 3)
                for mode, peaks, (value, b) in zip(MeasurementMode, every, found):
                    want = _einsum_peaks(ref, mode)
                    assert np.array_equal(peaks, want), (mode, t)
                    assert (value, b) == (want.min(), int(np.argmin(want))), (mode, t)


@pytest.mark.parametrize("R", [1, 4, 16, 64, 200])
def test_sweep_coins_are_the_walk_coins(R):
    # the sweep's vectorized matrices are the bits evolve's one-coin call gives
    grid = SweepGrid(1, 1, R=R)
    matrices = grid.matrices()
    assert matrices.shape == ((R + 1) ** 2, 2, 2)
    for b, matrix in enumerate(matrices):
        assert matrix.tobytes() == grid.coin(b).matrix().tobytes()


@pytest.mark.parametrize("P,kappa", [(3, 1), (5, 2), (11, 2), (21, 3), (5, 3)])
def test_a_swept_optimum_replays_bit_for_bit(P, kappa):
    # the result's coin is the coin whose walk reached the minimum: run
    # alone at its flip, it reaches the same value at the same t
    for mode, res in g_functions(P, kappa, SweepGrid(1, 60, R=8)).items():
        again = min_over_time(P, kappa, mode, res.coin, res.at_flip, 1, 60)
        assert (again.value, again.at_t) == (res.value, res.at_t), mode


# -- tie breaking and determinism ----------------------------------------------

def test_ties_resolve_to_smallest_parameters():
    # theta in {0, pi} keeps the coin diagonal so every (theta, phi) pair
    # pins the peak at probability 1 for every t: a full grid of exact ties
    res = g_functions(3, 1, SweepGrid(1, 3, R=1, flips=(FlipOperator.I,)), (ALL,))[ALL]
    assert res.value == 1.0
    assert res.at_t == 1
    assert res.coin == CoinOperator.generalized(0.0, 0.0)


def test_cross_flip_tie_resolves_to_flip_order():
    # X and Y reach the same peak at t = 1 here, to the last bit; the grid
    # stores its flips in I, X, Y order whatever order they were given in
    grid = SweepGrid(1, 3, R=1, flips=(FlipOperator.Y, FlipOperator.X))
    assert grid.flips == (FlipOperator.X, FlipOperator.Y)
    res = g_functions(3, 1, grid, (ALL,))[ALL]
    assert res.at_flip is FlipOperator.X
    assert res.at_t == 1
    assert res.coin == CoinOperator.generalized(0.0, 0.0)


def test_record_argmin_takes_smallest_t_then_flip_then_coin(monkeypatch):
    # planted peaks of a four-coin batch, flip by flip and then step by step:
    # 0.5 is reached at (t=3, I), at (t=2, X) by coins 2 and 3, and at
    # (t=2, Y); the earliest t wins over the earlier flip
    hi, lo = [0.9] * 4, [0.5] * 4
    planted = {
        FlipOperator.I: (hi, hi, [0.9, 0.5, 0.9, 0.9]),
        FlipOperator.X: (hi, [0.9, 0.9, 0.5, 0.5], lo),
        FlipOperator.Y: (hi, [0.5, 0.9, 0.9, 0.9], lo),
    }
    coins = [m.tobytes() for m in SweepGrid(1, 3, R=1).matrices()]

    class PlantedWalk:
        """Walk b of a block reads the planted peak of its (flip, coin) at each t."""

        def __init__(self, P, kappa, matrices, flips):
            self.coins = [coins.index(m.tobytes()) for m in matrices]
            self.flips, self.t = flips, 0

        def step(self):
            self.t += 1

        def least(self, modes, bounds):
            peaks = [planted[f][self.t - 1][c] for f, c in zip(self.flips, self.coins)]
            return [(min(peaks), peaks.index(min(peaks)))]

    monkeypatch.setattr(maxprob, "BatchWalk", PlantedWalk)
    # one walk per block, one flip's coins per block, blocks of 6 walks (the first
    # ending inside flip X), and every walk in one block
    for block in (1, 6 * 4, 6 * 6, 3 * 6 * 4):
        monkeypatch.setattr(maxprob, "_BLOCK_AMPLITUDES", block)
        res = g_functions(3, 1, SweepGrid(1, 3, R=1), (ALL,))[ALL]
        assert (res.value, res.at_t, res.at_flip) == (0.5, 2, FlipOperator.X), block
        assert res.coin == CoinOperator.generalized(math.pi, 0.0), block


def test_sweep_validates_dimensions():
    with pytest.raises(ValueError):
        g_functions(1, 1, SweepGrid(1, 10))


def test_result_gamma_property():
    res = MaxProbResult(value=0.25, at_t=3, at_flip=FlipOperator.I, mode=ALL, P=3, kappa=1,
                        coin=CoinOperator.hadamard())
    assert res.gamma == 2.0


def test_sweep_memory_does_not_grow_with_the_window():
    # a sweep keeps one running best per mode, so nothing it allocates
    # grows with t_max
    def traced_peak(t_max):
        tracemalloc.start()
        try:
            g_functions(3, 1, SweepGrid(1, t_max))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(50)  # first-call allocations, cached for later calls
    assert traced_peak(5000) <= traced_peak(50) + 4096


def test_a_sweep_of_no_modes_steps_and_finds_nothing():
    assert g_functions(3, 1, SweepGrid(1, 5, R=2), ()) == {}
    assert g_functions(5, 2, SweepGrid(1, 5), ()) == {}


def test_no_peaks_array_lives_on_into_the_next_readout(monkeypatch):
    # BatchWalk.nbytes charges one readout's (B,) arrays; any kept from the
    # step before would be another 8 bytes per walk, here 40 KB
    read, held = BatchWalk.least, []

    def least(walk, modes, bounds):
        held.append(tracemalloc.get_traced_memory()[0])
        return read(walk, modes, bounds)

    monkeypatch.setattr(BatchWalk, "least", least)
    grid = SweepGrid(1, 5, R=40)
    g_functions(3, 1, grid, (ALL, MEM, POS))  # first-call allocations, cached for later calls
    held.clear()
    tracemalloc.start()
    try:
        g_functions(3, 1, grid, (ALL, MEM, POS))
    finally:
        tracemalloc.stop()
    assert len(held) == 5  # the three flips of the 1681 coins stack into one block
    assert max(held) - min(held) < 2048


@pytest.mark.parametrize("P,kappa,R,modes", [
    (200_000, 2, None, (ALL,)),
    (501, 1, 16, (ALL,)),
    (501, 1, 16, (MEM,)),
    (501, 1, 16, (POS,)),
    (125, 3, 16, (ALL, MEM, POS)),
    (3, 1, 200, (ALL,)),
    (3, 1, 200, (ALL, MEM, POS)),
    (21, 3, 16, (ALL, MEM, POS)),
    (11, 2, 16, (ALL,)),
    (200_000, 2, None, (ALL, MEM, POS)),
    (21, 2, 16, (ALL,)),
    (21, 2, 16, (ALL, MEM, POS)),
], ids=["hadamard-B1", "R16-all", "R16-memory", "R16-position", "R16-k3-every-mode",
        "R200-p3-all", "R200-p3-every-mode", "R16-chunked", "R16-stacked-flips",
        "hadamard-B1-every-mode", "R16-block-spans-flips-all", "R16-block-spans-flips-every-mode"])
def test_sweep_bytes_bounds_what_a_sweep_allocates(P, kappa, R, modes):
    # the preflight charges sweep_bytes, so a sweep must not allocate more;
    # a charge far above the traced peak would refuse runs that fit.  The
    # R = 16 cells at P = 125 and 501 and at (21, 3) take several blocks to
    # a flip, (11, 2) holds its three flips in one, and (21, 2)'s first block
    # holds flip I and part of flip X
    grid = SweepGrid(1, 3, R=R)
    g_functions(3, 1, SweepGrid(1, 2, R=1))  # first-call allocations, cached for later calls
    tracemalloc.start()
    try:
        g_functions(P, kappa, grid, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 <= peak / sweep_bytes(P, kappa, grid) <= 1.0


# -- filtered readout and blocks -----------------------------------------------

def _full_peaks(walk, modes):
    """Every walk's peaks as the sweep first read them out: the whole batch
    interleaved, complex `np.abs`, squared, `marginal` and max."""
    _, n, B = walk.state.shape
    amplitudes = np.empty((n, B), dtype=np.complex128)
    amplitudes.real, amplitudes.imag = walk.state
    weights = np.moveaxis(np.square(np.abs(amplitudes)).reshape(2, walk.config.P, -1, B), 0, 2)
    peaks = []
    for mode in modes:
        outcomes = marginal(weights, mode)
        peaks.append(outcomes.max(axis=tuple(range(outcomes.ndim - 1))))
    return peaks


def _full_readout_sweep(P, kappa, grid, modes):
    """(value, t, flip index, coin index) of each mode's minimum: one batch of
    every coin per flip, each step read out whole, ties to the first coin."""
    coins = grid.matrices()
    best = {mode: (math.inf,) for mode in modes}
    for j, flip in enumerate(grid.flips):
        walk = BatchWalk(P, kappa, coins, [flip] * len(coins))
        for t in range(1, grid.t_max + 1):
            walk.step()
            if t >= grid.t_min:
                for mode, peaks in zip(modes, _full_peaks(walk, modes)):
                    b = int(np.argmin(peaks))
                    best[mode] = min(best[mode], (float(peaks[b]), t, j, b))
    return best


def _as_tuples(results, grid):
    coins = [grid.coin(b) for b in range(len(grid.matrices()))]
    return {mode: (r.value, r.at_t, grid.flips.index(r.at_flip), coins.index(r.coin))
            for mode, r in results.items()}


@pytest.mark.parametrize("P,kappa,grid", [
    (3, 1, SweepGrid(1, 300, R=1)),
    (5, 2, SweepGrid(1, 300, R=2)),
    (11, 2, SweepGrid(1, 200, R=4)),
    (21, 3, SweepGrid(40, 200, R=6)),
    (5, 2, SweepGrid(1, 400, flips=tuple(FlipOperator))),
    (21, 3, SweepGrid(1, 400, flips=tuple(FlipOperator))),
    (51, 4, SweepGrid(1, 300, flips=tuple(FlipOperator))),
], ids=["R1-p3-k1", "R2-p5-k2", "R4-p11-k2", "R6-p21-k3-from-t40", "hadamard-p5-k2",
        "hadamard-p21-k3", "hadamard-p51-k4"])
def test_the_filtered_readout_finds_the_full_readouts_minima(P, kappa, grid):
    # R = 1 and 2 tie whole rows of coins, and flip I ties every coin at t = 1
    want = _full_readout_sweep(P, kappa, grid, tuple(MeasurementMode))
    assert _as_tuples(g_functions(P, kappa, grid), grid) == want


_amplitude_columns = st.lists(st.tuples(
    st.integers(0, 3),  # 0 a fresh column, 1 a copy, 2 a copy one ulp off, 3 tiny entries
    st.integers(0, 2**32 - 1),
), min_size=1, max_size=12)


class _AskedWalk(BatchWalk):
    """A BatchWalk that records the walks each exact readout is asked for."""

    asked: list[set[int]] = []

    def peaks(self, modes, walks):
        self.asked.append(set(walks.tolist()))
        return super().peaks(modes, walks)


@settings(max_examples=150, deadline=None)
@given(cell=st.sampled_from([(2, 1), (3, 2), (5, 2), (3, 3)]), columns=_amplitude_columns)
def test_the_readouts_candidates_hold_every_walk_at_the_minimum(cell, columns):
    # unit-norm columns, some repeated exactly, some one ulp off a repeat, some
    # with entries whose squares underflow
    P, kappa = cell
    n = P << kappa
    state = np.empty((2, n, len(columns)))
    for b, (kind, seed) in enumerate(columns):
        rng = np.random.default_rng(seed)
        if kind in (1, 2) and b:
            state[:, :, b] = state[:, :, seed % b]
            if kind == 2:
                row = seed % n
                state[0, row, b] = np.nextafter(state[0, row, b], 1.0)
            continue
        column = rng.standard_normal((2, n)) * (rng.random((2, n)) < 0.6)
        tiny = rng.random(n) < 0.5
        tiny[seed % n] = False  # the column's largest entry, so its peak is far above underflow
        column[0, seed % n] += 1.0
        if kind == 3:
            column[:, tiny] *= 2.0 ** -540
        state[:, :, b] = column / np.sqrt(np.sum(column * column))
    walk = _AskedWalk(P, kappa, np.tile(np.eye(2, dtype=np.complex128), (len(columns), 1, 1)),
                      [FlipOperator.I] * len(columns))
    walk.state[...] = state
    modes = tuple(MeasurementMode)
    full = _full_peaks(walk, modes)
    for bound in (math.inf, None, 0.0):
        walk.asked = []
        bounds = [p.min() if bound is None else bound for p in full]
        found = walk.least(modes, bounds)
        for mode, peaks, hit, limit in zip(modes, full, found, bounds):
            at_min = set(np.flatnonzero(peaks == peaks.min()).tolist())
            if hit is None:
                assert peaks.min() > limit, mode
                continue
            assert hit == (peaks.min(), min(at_min)), mode
            assert at_min <= walk.asked[0], mode


@pytest.mark.parametrize("P,kappa,grid", [
    (5, 2, SweepGrid(1, 120, R=4)),
    (21, 3, SweepGrid(1, 80, R=3)),
    (11, 2, SweepGrid(1, 200, flips=tuple(FlipOperator))),
], ids=["R4-p5-k2", "R3-p21-k3", "hadamard-p11-k2"])
def test_results_do_not_depend_on_the_block_size(monkeypatch, P, kappa, grid):
    n, B = P << kappa, len(grid.matrices())
    results = []
    # one walk per block, three walks per block, one flip per block, two blocks of
    # 1.5 flips each and every walk in one block
    for block in (1, 3 * n, n * B, 2 * n * B, 3 * n * B):
        monkeypatch.setattr(maxprob, "_BLOCK_AMPLITUDES", block)
        results.append(_as_tuples(g_functions(P, kappa, grid), grid))
    assert all(r == results[0] for r in results[1:])
    assert results[0] == _full_readout_sweep(P, kappa, grid, tuple(MeasurementMode))
