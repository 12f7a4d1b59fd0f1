import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qwrng import maxprob
from qwrng.maxprob import (
    MaxProbResult,
    _coin_batch,
    _peaks,
    SweepGrid,
    g_functions,
    min_over_time,
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
    # a deterministic walk's peak is 1, lifted by rounding by about 5.8e-17 a step
    assert math.copysign(1.0, gamma_from_g(1.0)) == 1.0
    assert gamma_from_g(1 + 1e-12) == 0.0
    assert math.copysign(1.0, gamma_from_g(1 + 1e-12)) == 1.0
    for bad in (math.nan, 1 + 1e-6):
        with pytest.raises(ValueError):
            gamma_from_g(bad)


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
    np.testing.assert_allclose(SweepGrid(1, 10, R=4).angles(), np.arange(5) * math.pi / 4)
    assert SweepGrid(1, 10).angles() is None


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
    assert res.at_theta is None and res.at_phi is None


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
    assert res.at_theta == 0.8 and res.at_phi == 0.3


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
        coins = _coin_batch(grid)
        B = coins.shape[0]
        walk = BatchWalk(P, kappa, coins)  # one walk for every flip: start resets it
        for flip in FlipOperator:
            start = np.zeros((B, P * nc // 2, 2), dtype=np.complex128)
            start[:, 0, 0] = 1.0
            ref = (start @ flip.matrix().T).reshape(B, P, nc)
            walk.start(flip)
            for t in range(1, 61):
                ref = _einsum_step(ref, coins, kappa)
                walk.step()
                got = _amplitudes(walk.state).reshape(B, P, nc)
                assert np.array_equal(got, ref), (grid.R, flip, t)
                weights = walk.weights()
                for mode in MeasurementMode:
                    peaks = _peaks(weights, mode)
                    assert np.array_equal(peaks, _einsum_peaks(ref, mode)), (mode, t)


@pytest.mark.parametrize("R", [1, 4, 16])
def test_sweep_coins_are_the_walk_coins(R):
    # the sweep and evolve build the same coin matrix for the same angles
    grid = SweepGrid(1, 1, R=R)
    angles = grid.angles()
    coins = _coin_batch(grid)
    assert coins.shape == ((R + 1) ** 2, 2, 2)
    for b, (th, ph) in enumerate(itertools.product(angles, angles)):
        assert coins[b].tobytes() == CoinOperator.generalized(th, ph).matrix().tobytes()


# -- tie breaking and determinism ----------------------------------------------

def test_ties_resolve_to_smallest_parameters():
    # theta in {0, pi} keeps the coin diagonal so every (theta, phi) pair
    # pins the peak at probability 1 for every t: a full grid of exact ties
    res = g_functions(3, 1, SweepGrid(1, 3, R=1, flips=(FlipOperator.I,)), (ALL,))[ALL]
    assert res.value == 1.0
    assert res.at_t == 1
    assert res.at_theta == 0.0
    assert res.at_phi == 0.0


def test_cross_flip_tie_resolves_to_flip_order():
    # X and Y reach the same peak at t = 1 here, to the last bit; the grid
    # stores its flips in I, X, Y order whatever order they were given in
    grid = SweepGrid(1, 3, R=1, flips=(FlipOperator.Y, FlipOperator.X))
    assert grid.flips == (FlipOperator.X, FlipOperator.Y)
    res = g_functions(3, 1, grid, (ALL,))[ALL]
    assert res.at_flip is FlipOperator.X
    assert res.at_t == 1
    assert res.at_theta == 0.0
    assert res.at_phi == 0.0


def test_record_argmin_takes_smallest_t_then_flip_then_coin(monkeypatch):
    # planted peaks of a four-coin batch, flip by flip and then step by step:
    # 0.5 is reached at (t=3, I), at (t=2, X) by coins 2 and 3, and at
    # (t=2, Y); the earliest t wins over the earlier flip
    hi, lo = [0.9] * 4, [0.5] * 4
    rows = iter(np.array(r) for r in (
        hi, hi, [0.9, 0.5, 0.9, 0.9],     # I
        hi, [0.9, 0.9, 0.5, 0.5], lo,     # X
        hi, [0.5, 0.9, 0.9, 0.9], lo,     # Y
    ))
    # the batch is the readout's last axis, after the outcome axes
    monkeypatch.setattr(maxprob, "marginal", lambda weights, mode: next(rows)[None, :])
    res = g_functions(3, 1, SweepGrid(1, 3, R=1), (ALL,))[ALL]
    assert (res.value, res.at_t, res.at_flip) == (0.5, 2, FlipOperator.X)
    assert (res.at_theta, res.at_phi) == (math.pi, 0.0)


def test_sweep_validates_dimensions():
    with pytest.raises(ValueError):
        g_functions(1, 1, SweepGrid(1, 10))


def test_result_gamma_property():
    res = MaxProbResult(value=0.25, at_t=3, at_flip=FlipOperator.I, mode=ALL, P=3, kappa=1)
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
