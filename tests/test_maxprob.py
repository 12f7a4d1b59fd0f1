import math

import numpy as np
import pytest

from qwrng.maxprob import (
    MaxProbResult,
    _batch_step,
    _coin_batch,
    _mode_peaks,
    _step_source,
    SweepGrid,
    g_function,
    g_functions,
    gamma_from_g,
    max_outcome_prob,
    min_over_time,
)
from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    memory_rotation_gather,
)

ALL = MeasurementMode.ALL
MEM = MeasurementMode.MEMORY_ONLY
POS = MeasurementMode.POSITION_ONLY


# -- max_outcome_prob ----------------------------------------------------------

def test_zero_steps_is_a_point_mass():
    cfg = WalkConfig(P=7, kappa=2, T=0)
    for mode in MeasurementMode:
        assert max_outcome_prob(cfg, mode) == 1.0


def test_one_step_position_peak():
    assert max_outcome_prob(WalkConfig(P=5, kappa=1, T=1), POS) == pytest.approx(0.5)


def test_one_step_two_coin_peak():
    assert max_outcome_prob(WalkConfig(P=3, kappa=2, T=1), ALL) == pytest.approx(0.5)


# -- gamma ---------------------------------------------------------------------

def test_gamma_values():
    assert gamma_from_g(1.0) == 0.0
    assert gamma_from_g(0.25) == 2.0
    assert gamma_from_g(0.1250) == 3.0


def test_gamma_rejects_out_of_range():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            gamma_from_g(bad)


# -- grid validation -----------------------------------------------------------

def test_grid_rejects_empty_ranges():
    with pytest.raises(ValueError):
        SweepGrid(t_min=1, t_max=0)
    with pytest.raises(ValueError):
        SweepGrid(t_min=0, t_max=10)
    with pytest.raises(ValueError):
        SweepGrid(R=0)
    with pytest.raises(ValueError):
        SweepGrid(flips=())


def test_grid_defaults():
    assert SweepGrid().flip_set == (FlipOperator.I,)
    assert SweepGrid(R=4).flip_set == (FlipOperator.I, FlipOperator.X, FlipOperator.Y)
    np.testing.assert_allclose(SweepGrid(R=4).angles(), np.arange(5) * math.pi / 4)
    assert SweepGrid().angles() is None


# -- Hadamard sweeps -----------------------------------------------------------

def test_single_coin_sweep_matches_published_value():
    res = g_function(3, 1, ALL, SweepGrid(1, 2000))
    assert res.value == pytest.approx(0.2224, abs=5e-4)
    assert res.at_flip is FlipOperator.I
    assert res.at_theta is None and res.at_phi is None


def test_two_coin_sweep_matches_published_value():
    res = g_function(3, 2, ALL, SweepGrid(1, 2000))
    assert res.value == pytest.approx(0.1250, abs=5e-4)


def test_recorded_argmin_reproduces_value():
    res = g_function(5, 2, MEM, SweepGrid(1, 300))
    again = max_outcome_prob(res.walk_config(), MEM)
    assert again == pytest.approx(res.value, abs=1e-12)


def test_value_bounds():
    res_all = g_function(3, 2, ALL, SweepGrid(1, 100))
    assert 1.0 / 12 <= res_all.value <= 1.0
    res_pos = g_function(3, 2, POS, SweepGrid(1, 100))
    assert 1.0 / 3 <= res_pos.value <= 1.0


def test_mode_ordering_at_fixed_parameters():
    # coarser readout concentrates probability, so the peak can only grow
    for cfg in (WalkConfig(P=5, kappa=2, T=40), WalkConfig(P=3, kappa=3, T=17)):
        a = max_outcome_prob(cfg, ALL)
        m = max_outcome_prob(cfg, MEM)
        p = max_outcome_prob(cfg, POS)
        assert a <= m + 1e-12 and m <= p + 1e-12


def test_single_coin_memory_sweep_equals_position_sweep():
    grid = SweepGrid(1, 400)
    mem = g_function(5, 1, MEM, grid)
    pos = g_function(5, 1, POS, grid)
    assert mem.value == pos.value
    assert mem.at_t == pos.at_t


# -- generalized sweeps --------------------------------------------------------

def test_angle_grid_refinement_only_improves():
    coarse = g_function(3, 1, ALL, SweepGrid(1, 60, R=2))
    fine = g_function(3, 1, ALL, SweepGrid(1, 60, R=4))  # contains the R=2 angles
    assert fine.value <= coarse.value + 1e-15


def test_flip_set_refinement_only_improves():
    base = g_function(3, 2, ALL, SweepGrid(1, 40, R=2, flips=(FlipOperator.I,)))
    full = g_function(3, 2, ALL, SweepGrid(1, 40, R=2))
    assert full.value <= base.value + 1e-15


def test_sweep_beats_any_single_grid_point():
    grid = SweepGrid(1, 50, R=4)
    res = g_function(3, 1, ALL, grid)
    fixed = min_over_time(
        3, 1, ALL, CoinOperator.generalized(math.pi / 4, 0.0), FlipOperator.I, 1, 50
    )
    assert res.value <= fixed.value + 1e-15


def test_min_over_time_agrees_with_direct_scan():
    coin = CoinOperator.generalized(0.8, 0.3)
    best = min(
        max_outcome_prob(WalkConfig(P=5, kappa=2, T=t, coin=coin, flip=FlipOperator.X), POS)
        for t in range(1, 31)
    )
    res = min_over_time(5, 2, POS, coin, FlipOperator.X, 1, 30)
    assert res.value == pytest.approx(best, abs=1e-13)
    assert res.at_theta == 0.8 and res.at_phi == 0.3


def test_shared_sweep_matches_individual_sweeps():
    grid = SweepGrid(1, 80, R=2)
    combined = g_functions(5, 2, grid)
    for mode in (ALL, MEM, POS):
        single = g_function(5, 2, mode, grid)
        assert combined[mode] == single


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


@pytest.mark.parametrize("P,kappa", [(3, 1), (5, 2), (21, 3), (51, 4)])
def test_step_kernel_is_bit_identical_to_einsum(P, kappa):
    # table CSVs print repr(value), so a last-ulp change in a step or a
    # peak would change the published bytes: equality here is exact
    nc = 1 << kappa
    source = _step_source(P, kappa)
    for grid in (SweepGrid(R=4), SweepGrid()):
        coins = _coin_batch(grid)
        B = coins.shape[0]
        for flip in FlipOperator:
            start = np.zeros((B, P * nc // 2, 2), dtype=np.complex128)
            start[:, 0, 0] = 1.0
            ref = got = (start @ flip.matrix().T).reshape(B, P, nc)
            for t in range(1, 61):
                ref = _einsum_step(ref, coins, kappa)
                got = _batch_step(got, coins, source)
                assert np.array_equal(got, ref), (grid.R, flip, t)
                weights = np.abs(got) ** 2
                for mode in MeasurementMode:
                    peaks = _mode_peaks(weights, mode)
                    assert np.array_equal(peaks, _einsum_peaks(ref, mode)), (mode, t)


# -- tie breaking and determinism ----------------------------------------------

def test_ties_resolve_to_smallest_parameters():
    # theta in {0, pi} keeps the coin diagonal so every (theta, phi) pair
    # pins the peak at probability 1 for every t: a full grid of exact ties
    res = g_function(3, 1, ALL, SweepGrid(1, 3, R=1, flips=(FlipOperator.I,)))
    assert res.value == 1.0
    assert res.at_t == 1
    assert res.at_theta == 0.0
    assert res.at_phi == 0.0


def test_candidate_order_prefers_value_then_time_then_flip():
    ordered = sorted([
        (0.5, 9, 0, 0, 0),
        (0.5, 2, 2, 0, 0),
        (0.5, 2, 1, 3, 1),
        (0.5, 2, 1, 3, 0),
        (0.4, 7, 2, 5, 5),
    ])
    assert ordered[0] == (0.4, 7, 2, 5, 5)
    assert ordered[1] == (0.5, 2, 1, 3, 0)


def test_threaded_sweep_is_deterministic():
    grid = SweepGrid(1, 60, R=3)
    serial = g_function(3, 2, ALL, grid, threads=1)
    threaded = g_function(3, 2, ALL, grid, threads=4)
    assert serial == threaded


def test_sweep_validates_dimensions():
    with pytest.raises(ValueError):
        g_function(1, 1, ALL, SweepGrid(1, 10))


def test_result_gamma_property():
    res = MaxProbResult(value=0.25, at_t=3, at_flip=FlipOperator.I, mode=ALL, P=3, kappa=1)
    assert res.gamma == 2.0
