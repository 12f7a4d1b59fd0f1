"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Every test freezes its expected values and tolerances here, recomputes
the quantity through the public API, and records the verdict through
the `criterion` fixture.  Criteria cover the published minima tables,
the closed-form identities, simulator invariants, rate-curve structure,
and the extraction pipeline.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qwrng.experiments import default_signal_grid
from qwrng.maxprob import SweepGrid, g_functions, min_over_time
from qwrng.pipeline import (
    SourceModel,
    encode_digits,
    privacy_amplify,
    run_protocol,
    toeplitz_seed_bits,
)
from qwrng.rates import (
    ProtocolCase,
    ProtocolParams,
    classical_sampling_error,
    ell_memory_case,
    entropy_d,
    extended_entropy_d,
    rate_for_mode,
    sampling_delta,
)
from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    distribution,
    evolve,
    initial_state,
)

ALL = MeasurementMode.ALL
MEM = MeasurementMode.MEMORY_ONLY
POS = MeasurementMode.POSITION_ONLY
MODES = (ALL, MEM, POS)

P_FULL = (3, 5, 11, 21, 51)
P_SMALL = (3, 5, 11, 21)

GRID_H = SweepGrid(t_min=1, t_max=2000)

# frozen expected minima; acceptance tolerances are pinned next to each use
JOINT_HADAMARD = {
    (2, 3): 0.1250, (2, 5): 0.1249, (2, 11): 0.0995, (2, 21): 0.1044, (2, 51): 0.1057,
    (3, 3): 0.0570, (3, 5): 0.0535, (3, 11): 0.0450, (3, 21): 0.0282, (3, 51): 0.0190,
    (4, 3): 0.0312, (4, 5): 0.0312, (4, 11): 0.0312, (4, 21): 0.0272,
    (4, 51): 0.0240,  # erratum: published as 0.0274, see JOINT_HADAMARD_ERRATA
}
# Erratum at (kappa=4, P=51): the source table prints 0.0274, but the
# minimum over t=1..2000 is 0.02398994728554 at t=1759.  A dense 816x816
# step matrix built entry by entry from the step rules gives the same value
# at the same t, and a long-double pass agrees there to within 1e-14, so this
# is neither a kernel fault nor float drift (criterion 1 reruns that oracle).
# The running minimum goes 0.03125 (t=5), 0.026681 (t=205), ... 0.023990,
# so the window reaches values below 0.0274.  The printed table is not part
# of this repository; the correction rests on the same model reproducing
# the other 54 Hadamard reference numbers to within 1.0e-4, this cell's
# memory (0.0314) and position (0.0709) minima included.
# Published values of the corrected cells, keyed like JOINT_HADAMARD:
JOINT_HADAMARD_ERRATA = {(4, 51): 0.0274}
MEMORY_HADAMARD = {
    (2, 3): 0.2500, (2, 5): 0.1875, (2, 11): 0.1378, (2, 21): 0.1342, (2, 51): 0.1377,
    (3, 3): 0.1120, (3, 5): 0.0656, (3, 11): 0.0524, (3, 21): 0.0374, (3, 51): 0.0233,
    (4, 3): 0.0625, (4, 5): 0.0617, (4, 11): 0.0453, (4, 21): 0.0340, (4, 51): 0.0314,
}
POSITION_HADAMARD = {
    (2, 3): 0.3336, (2, 5): 0.2570, (2, 11): 0.1831, (2, 21): 0.1692, (2, 51): 0.1701,
    (3, 3): 0.3400, (3, 5): 0.2165, (3, 11): 0.1186, (3, 21): 0.0778, (3, 51): 0.0379,
    (4, 3): 0.3437, (4, 5): 0.2055, (4, 11): 0.1230, (4, 21): 0.0808, (4, 51): 0.0709,
}
KAPPA1_JOINT = {3: 0.2224, 5: 0.1474, 11: 0.0983, 21: 0.0642, 51: 0.0367}
KAPPA1_MARGINAL = {3: 0.3634, 5: 0.2447, 11: 0.1358, 21: 0.0919, 51: 0.0517}

GENERAL_TABLES = {
    ALL: {
        (1, 3): 0.1729, (1, 5): 0.1133, (1, 11): 0.0534, (1, 21): 0.0420,
        (2, 3): 0.1228, (2, 5): 0.1251, (2, 11): 0.0799, (2, 21): 0.0709,
        (3, 3): 0.0614, (3, 5): 0.0402, (3, 11): 0.0274, (3, 21): 0.0192,
    },
    MEM: {
        (1, 3): 0.3334, (1, 5): 0.2017, (1, 11): 0.0952, (1, 21): 0.0617,
        (2, 3): 0.1751, (2, 5): 0.1615, (2, 11): 0.1082, (2, 21): 0.0743,
        (3, 3): 0.0898, (3, 5): 0.0661, (3, 11): 0.0417, (3, 21): 0.0264,
    },
    POS: {
        (1, 3): 0.3334, (1, 5): 0.2017, (1, 11): 0.0952, (1, 21): 0.0617,
        (2, 3): 0.3340, (2, 5): 0.2197, (2, 11): 0.1275, (2, 21): 0.0834,
        (3, 3): 0.3336, (3, 5): 0.2097, (3, 11): 0.1039, (3, 21): 0.0642,
    },
}


@pytest.fixture(scope="module")
def hadamard_cells():
    """Full 2000-step Hadamard sweeps; one evolution pass per (kappa, P)."""
    out = {}
    for kappa in (1, 2, 3, 4):
        for P in P_FULL:
            swept = g_functions(P, kappa, GRID_H)
            for mode in MODES:
                out[(kappa, P, mode)] = swept[mode]
    return out


@pytest.fixture(scope="module")
def general_cells():
    """Generalized-coin sweeps with flips at both tested grid resolutions."""
    out = {}
    for R in (8, 16):
        grid = SweepGrid(t_min=1, t_max=1000, R=R)
        for kappa in (1, 2, 3):
            for P in P_SMALL:
                swept = g_functions(P, kappa, grid)
                for mode in MODES:
                    out[(R, kappa, P, mode)] = swept[mode]
    return out


def _table_check(cells, mode, expected, tol=5e-4):
    worst, worst_cell = 0.0, None
    for (kappa, P), ref in expected.items():
        dev = abs(cells[(kappa, P, mode)].value - ref)
        if dev > worst:
            worst, worst_cell = dev, (kappa, P)
    return worst <= tol, worst, worst_cell


def _dense_step(P, kappa, u):
    """One walk step as a dense matrix, built entry by entry from the step rules.

    Column i is the image of basis state i: the coin u on the active coin
    (the lowest index bit), a shift of +1 for active coin 0 and -1 for 1,
    then the right rotation of the coin register.
    """
    d = (1 << kappa) * P
    nc = 1 << kappa
    dtype = np.result_type(u, float)
    C = np.zeros((d, d), dtype=dtype)
    S = np.zeros((d, d), dtype=dtype)
    M = np.zeros((d, d), dtype=dtype)
    for x in range(P):
        for c in range(nc):
            i = x * nc + c
            a = c & 1
            for b in (0, 1):
                C[x * nc + ((c & ~1) | b), i] += u[b, a]
            S[((x + (1 if a == 0 else -1)) % P) * nc + c, i] = 1.0
            rot = ((c << 1) | (c >> (kappa - 1))) & (nc - 1) if kappa > 1 else c
            M[x * nc + rot, i] = 1.0
    return M @ S @ C


def _dense_joint_minimum(P, kappa, t_max):
    """Joint-readout Hadamard minimum over t=1..t_max, independent of qwrng.

    Returns (value, t) twice: from float64 products with the dense step
    matrix, and from a long-double pass over the same matrix's entries.
    The Hadamard walk from the all-zeros point keeps real amplitudes.
    """
    pattern = _dense_step(P, kappa, np.array([[1.0, 1.0], [1.0, -1.0]]))
    step = pattern / math.sqrt(2.0)
    v = np.zeros(pattern.shape[0])
    v[0] = 1.0
    peaks = np.empty(t_max)
    for t in range(t_max):
        v = step @ v
        peaks[t] = np.max(v * v)

    # every row of sqrt(2) * step holds exactly two entries, each +1 or -1,
    # so a long-double step is two gathers scaled by a long-double 1/sqrt(2)
    rows, cols = np.nonzero(pattern)
    assert np.array_equal(rows, np.repeat(np.arange(pattern.shape[0]), 2))
    weights = pattern[rows, cols].astype(np.longdouble) / np.sqrt(np.longdouble(2))
    weights, cols = weights.reshape(-1, 2), cols.reshape(-1, 2)
    w = np.zeros(pattern.shape[0], dtype=np.longdouble)
    w[0] = 1
    long_peaks = np.empty(t_max, dtype=np.longdouble)
    for t in range(t_max):
        w = weights[:, 0] * w[cols[:, 0]] + weights[:, 1] * w[cols[:, 1]]
        long_peaks[t] = np.max(w * w)

    i, j = int(np.argmin(peaks)), int(np.argmin(long_peaks))
    return (float(peaks[i]), i + 1), (float(long_peaks[j]), j + 1)


def test_criterion_1_joint_hadamard_minima(hadamard_cells, criterion):
    ok, worst, cell = _table_check(hadamard_cells, ALL, JOINT_HADAMARD)
    detail = f"max deviation {worst:.2e}"
    if not ok:
        got = hadamard_cells[(*cell, ALL)]
        detail += (
            f" at (kappa={cell[0]}, P={cell[1]}): sweep minimum {got.value:.6f} "
            f"at t={got.at_t}, expected {JOINT_HADAMARD[cell]}"
        )

    # every corrected reference is backed by the dense oracle
    for (kappa, P), published in JOINT_HADAMARD_ERRATA.items():
        got = hadamard_cells[(kappa, P, ALL)]
        (g_dense, t_dense), (g_long, t_long) = _dense_joint_minimum(P, kappa, GRID_H.t_max)
        sweep_err = abs(got.value - g_dense)
        long_err = abs(g_long - g_dense)
        ok = (
            ok
            and sweep_err <= 1e-12 and got.at_t == t_dense
            and long_err <= 1e-12 and t_long == t_dense
        )
        detail += (
            f"; erratum (kappa={kappa}, P={P}), published {published}: "
            f"dense oracle {g_dense:.6f} at t={t_dense}, long double off by "
            f"{long_err:.1e} at t={t_long}, sweep off by {sweep_err:.1e} at t={got.at_t}"
        )
    assert criterion(
        1, "joint-measurement Hadamard minima, 15 cells within 5e-4; "
           "corrected cells match the dense oracle to 1e-12",
        ok, detail,
    )


def test_criterion_2_memory_hadamard_minima(hadamard_cells, criterion):
    ok, worst, _ = _table_check(hadamard_cells, MEM, MEMORY_HADAMARD)
    assert criterion(
        2, "memory-marginal Hadamard minima, 15 cells within 5e-4",
        ok, f"max deviation {worst:.2e}",
    )


def test_criterion_3_position_hadamard_minima(hadamard_cells, criterion):
    ok, worst, _ = _table_check(hadamard_cells, POS, POSITION_HADAMARD)
    assert criterion(
        3, "position-marginal Hadamard minima, 15 cells within 5e-4",
        ok, f"max deviation {worst:.2e}",
    )


def test_criterion_4_single_coin_minima(hadamard_cells, criterion):
    worst = 0.0
    equal = True
    for P in P_FULL:
        worst = max(worst, abs(hadamard_cells[(1, P, ALL)].value - KAPPA1_JOINT[P]))
        g_mem = hadamard_cells[(1, P, MEM)].value
        g_pos = hadamard_cells[(1, P, POS)].value
        worst = max(worst, abs(g_mem - KAPPA1_MARGINAL[P]), abs(g_pos - KAPPA1_MARGINAL[P]))
        equal = equal and abs(g_mem - g_pos) < 1e-12
    ok = worst <= 5e-4 and equal
    assert criterion(
        4, "kappa=1 minima for all three modes within 5e-4, marginals identical",
        ok, f"max deviation {worst:.2e}",
    )


def test_criterion_5_general_coin_minima(general_cells, criterion):
    # (a) the swept minimum can never exceed any single grid point it covers
    balanced = CoinOperator.generalized(math.pi / 4, 0.0)
    bound_ok = True
    for kappa in (1, 2, 3):
        for P in P_SMALL:
            for mode in MODES:
                cap = min_over_time(P, kappa, mode, balanced, FlipOperator.I,
                                    t_min=1, t_max=1000).value
                for R in (8, 16):
                    if general_cells[(R, kappa, P, mode)].value > cap + 1e-12:
                        bound_ok = False

    # (b) best deviation per cell over both grid resolutions; the source
    # of the published values left its angle grid unstated, so only a
    # majority of the kappa >= 2 cells is required to land within 0.02
    hits = 0
    total = 0
    worst = 0.0
    for mode, table in GENERAL_TABLES.items():
        for (kappa, P), ref in table.items():
            best = min(
                abs(general_cells[(R, kappa, P, mode)].value - ref) for R in (8, 16)
            )
            print(f"  cell kappa={kappa} P={P} mode={mode.value}: best deviation {best:.4f}")
            if kappa >= 2:
                total += 1
                worst = max(worst, best)
                if best <= 0.02:
                    hits += 1
    ok = bound_ok and hits >= total / 2
    assert criterion(
        5, "generalized-coin minima: bounded by the balanced grid point, "
           "majority of kappa>=2 cells within 0.02",
        ok, f"grid-point bound {'holds' if bound_ok else 'violated'}; "
            f"{hits}/{total} cells within 0.02, worst best-match {worst:.4f}",
    )


def test_criterion_6_formula_identities(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_delta = 0.0
    worst_eps = 0.0
    for _ in range(1000):
        N = int(rng.integers(10**3, 10**9))
        m = int(rng.integers(16, N // 2))
        eps = float(10.0 ** rng.uniform(-12, -2))
        delta = sampling_delta(N, m, eps)
        direct = math.sqrt((N + 2) * math.log(2.0 / eps**2) / (m * N))
        worst_delta = max(worst_delta, abs(delta - direct) / direct)
        eps_cl = classical_sampling_error(N, m, delta)
        worst_eps = max(worst_eps, abs(eps_cl - eps**2) / eps**2)
    clamps_ok = (
        extended_entropy_d(-0.3, 4) == 0.0
        and extended_entropy_d(0.0, 4) == 0.0
        and extended_entropy_d(1 - 1 / 4, 4) == 1.0
        and extended_entropy_d(0.99, 4) == 1.0
        and extended_entropy_d(0.2, 4) == entropy_d(0.2, 4)
    )
    elapsed = time.perf_counter() - start
    ok = worst_delta <= 1e-15 and worst_eps <= 1e-12 and clamps_ok and elapsed < 1.0
    assert criterion(
        6, "sampling-deviation identities and entropy clamps over 1000 random draws",
        ok, f"delta agreement {worst_delta:.1e}, inverse error {worst_eps:.1e}, "
            f"{elapsed:.2f}s",
    )


def test_criterion_7_simulator_invariants(criterion):
    start = time.perf_counter()
    big = evolve(WalkConfig(P=51, kappa=4, T=2000))
    norm_err = abs(big.norm() - 1.0)

    # factored evolution against a dense matrix power built entry by entry
    dense_err = 0.0
    for P, kappa in ((2, 1), (3, 1), (5, 1), (3, 2), (5, 2)):
        W = _dense_step(P, kappa, CoinOperator.hadamard().matrix())
        for T in (0, 1, 2, 5, 10):
            cfg = WalkConfig(P=P, kappa=kappa, T=T)
            v = np.linalg.matrix_power(W, T) @ initial_state(cfg).amplitudes
            dense_err = max(dense_err, float(np.max(np.abs(v - evolve(cfg).amplitudes))))

    # the three readout modes must be marginals of one joint distribution
    marg_err = 0.0
    rng = np.random.default_rng(777)
    for _ in range(100):
        P = int(rng.choice([2, 3, 5, 7]))
        kappa = int(rng.integers(1, 4))
        cfg = WalkConfig(P=P, kappa=kappa, T=0)
        amps = rng.normal(size=(1 << kappa) * P) + 1j * rng.normal(size=(1 << kappa) * P)
        amps /= np.linalg.norm(amps)
        state = replace(initial_state(cfg), amplitudes=amps)
        p_all = distribution(state, ALL).probs
        p_mem = distribution(state, MEM).probs
        p_pos = distribution(state, POS).probs
        marg_err = max(
            marg_err,
            float(np.max(np.abs(p_all.reshape(-1, 2).sum(axis=1) - p_mem))),
            float(np.max(np.abs(p_all.reshape(P, -1).sum(axis=1) - p_pos))),
            abs(float(p_all.sum()) - 1.0),
        )
    elapsed = time.perf_counter() - start
    ok = norm_err <= 1e-10 and dense_err <= 1e-10 and marg_err <= 1e-12 and elapsed < 30.0
    assert criterion(
        7, "norm over 2000 steps at (kappa=4, P=51), factored vs dense operator, "
           "marginal consistency on 100 random states",
        ok, f"norm {norm_err:.1e}, dense {dense_err:.1e}, marginals {marg_err:.1e}, "
            f"{elapsed:.1f}s",
    )


# Decades past the default signal grid.  With the documented test subset
# m = floor(sqrt(N)) the sampling deviation (criterion 6) shrinks only like
# N^(-1/4): at N=1e10 it is 0.0181, and its binary-entropy term alone costs
# 0.131 bits per signal, more than 1% of any cell's gamma (at most 5.72, so
# at most 0.057 bits).  The asymptote is checked where that subset lets it
# hold.
N_DECADES = tuple(10**e for e in range(11, 17))
N_ASYMPTOTE = (10**15, 10**16)


def test_criterion_8_rate_curve_structure(hadamard_cells, criterion):
    N_grid = default_signal_grid()
    N_ext = N_grid + N_DECADES
    mono_ok = True
    shape_bad = []
    best_1e10, best_cell = 0.0, None
    worst_asym, worst_at = math.inf, None
    for kappa in (1, 2, 3, 4):
        for P in P_FULL:
            gamma = hadamard_cells[(kappa, P, ALL)].gamma
            rates = [
                rate_for_mode(ProtocolParams(N=N, Q=0.0), gamma, P, kappa, ALL).rate
                for N in N_ext
            ]
            grid_rates = rates[: len(N_grid)]
            if any(a > b + 1e-12 for a, b in zip(grid_rates, grid_rates[1:])):
                mono_ok = False
            ratios = [r / gamma for r in rates]
            if any(a > b + 1e-12 for a, b in zip(ratios, ratios[1:])) or max(ratios) > 1.0:
                shape_bad.append((kappa, P))
            at = dict(zip(N_ext, ratios))
            if at[N_grid[-1]] > best_1e10:
                best_1e10, best_cell = at[N_grid[-1]], (kappa, P)
            for N in N_ASYMPTOTE:
                if at[N] < worst_asym:
                    worst_asym, worst_at = at[N], (kappa, P, N)
    asym_ok = worst_asym >= 0.99
    shape_ok = not shape_bad

    def all_rate(kappa, P, Q, N):
        gamma = hadamard_cells[(kappa, P, ALL)].gamma
        return rate_for_mode(ProtocolParams(N=N, Q=Q), gamma, P, kappa, ALL).rate

    # noise resilience: the short cycle wins under Q=0.3; the kappa=3
    # ordering only holds in a finite window, checked at N=1e7
    k3_ok = all_rate(3, 3, 0.3, 10**7) > all_rate(3, 51, 0.3, 10**7)
    k2_ok = all_rate(2, 3, 0.3, 10**10) > all_rate(2, 51, 0.3, 10**10)

    ok = mono_ok and shape_ok and asym_ok and k3_ok and k2_ok
    shape = "at every cell" if shape_ok else f"fails at (kappa, P) in {shape_bad}"
    assert criterion(
        8, "noiseless curves monotone, rate/gamma non-decreasing and at most 1 "
           "to N=1e16, every cell within 1% of gamma at N=1e15 and 1e16; "
           "P=3 beats P=51 at Q=0.3 for kappa in {2,3}",
        ok, f"monotone {mono_ok}; rate/gamma shape {shape}; worst asymptote "
            f"ratio {worst_asym:.4f} at (kappa={worst_at[0]}, P={worst_at[1]}, "
            f"N={worst_at[2]:.0e}); best ratio at N=1e10 {best_1e10:.4f} at "
            f"(kappa={best_cell[0]}, P={best_cell[1]}); "
            f"kappa=3 ordering at N=1e7 {k3_ok}; kappa=2 at N=1e10 {k2_ok}",
    )


def test_criterion_9_pipeline_end_to_end(hadamard_cells, criterion):
    res = hadamard_cells[(1, 5, POS)]
    params = ProtocolParams(N=10**6, m=1000, Q=0.0)
    source = SourceModel(config=res.walk_config(), Q=0.0, rng_seed=20260814)
    record = run_protocol(source, params, POS, gamma=res.gamma)

    expected = ell_memory_case(
        replace(params, Q=record.w_q), res.gamma, d_full=10,
        case=ProtocolCase.NOT_USING_MEMORY,
    ).ell
    run_ok = (
        not record.aborted
        and record.w_q == 0.0
        and record.output.size == math.floor(record.ell)
        and math.isclose(record.ell, expected, rel_tol=1e-12)
        and 4.00e5 <= record.ell <= 4.07e5
    )

    rng = np.random.default_rng(424242)
    hash_ok = True
    for _ in range(1000):
        d = int(rng.choice([2, 3, 5, 12]))
        n_digits = int(rng.integers(1, 17))
        digits = rng.integers(0, d, size=n_digits)
        x = encode_digits(digits, d)
        L = x.shape[0]
        ell = int(rng.integers(0, L + 1))
        seed = int(rng.integers(0, 2**63))
        s = toeplitz_seed_bits(seed, ell, L)
        rows = np.arange(ell)[:, None] - np.arange(L)[None, :] + L - 1
        dense = (s[rows].astype(np.int64) @ x.astype(np.int64)) % 2 if ell else np.zeros(0)
        if not np.array_equal(privacy_amplify(digits, ell, seed, d=d), dense):
            hash_ok = False
            break

    bias = abs(float(record.output.mean()) - 0.5)
    mono_ok = record.output.size >= 10**4 and bias <= 0.02

    ok = run_ok and hash_ok and mono_ok
    assert criterion(
        9, "seeded million-signal run emits floor(ell) bits matching the formula; "
           "Toeplitz hashing matches the dense GF(2) oracle; output is unbiased",
        ok, f"ell {record.ell:.1f}, output {record.output.size} bits, "
            f"hash oracle {'agrees' if hash_ok else 'disagrees'}, "
            f"monobit deviation {bias:.4f}",
    )
