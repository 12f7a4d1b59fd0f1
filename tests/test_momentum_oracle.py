"""Preset rows against a momentum-space walk built from the step rules alone.

The walk is translation invariant on the P-cycle, so at each momentum
k = 2 pi j / P one step acts on the 2**kappa coin codes as one block
U(k) = M D(k) C.  C tosses the coin on the active coin, the least
significant bit of a code.  D(k) is the shift's phase: active coin 0
moves +1, which multiplies by e^{-ik}, and active coin 1 moves -1, e^{+ik}.
M rotates the coin register, (c_0, ..., c_{kappa-1}) becoming
(c_{kappa-1}, c_0, ..., c_{kappa-2}).  Every block is built here in long
double from those rules, without `qwrng.walk`'s step code, and position
amplitudes come back through an explicit inverse Fourier sum (see `peaks`).

For every row of `table1`-`table6` and `kappa1` at t <= 20, the oracle
recomputes the recorded minimum at its (t, theta, phi, flip) and checks
that no other t at that coin and flip goes lower.  For a general-coin
row it also checks that no t goes lower at a seeded sample of the other
grid coins, under every flip, so the sweep's minimum over coins is
tested too.  An equivalent coin (phi + pi negates it) ties the row's
value within rounding, which the tolerance absorbs.  The Hadamard
presets (`table1`, `table3`, `table5`, `kappa1`) are also checked over
their whole default window, t <= 2000.
"""

import numpy as np
import pytest

from qwrng.experiments import preset, run_table
from qwrng.maxprob import g_functions
from qwrng.walk import FlipOperator, MeasurementMode

PRESETS = ("table1", "table2", "table3", "table4", "table5", "table6", "kappa1")
HADAMARD_PRESETS = ("table1", "table3", "table5", "kappa1")
T_MAX = 20
REL = 1e-12
OTHER_COINS = 8  # sampled grid coins per general-coin row
PI = np.arccos(np.longdouble(-1))
HALF = 1 / np.sqrt(np.longdouble(2))
# the active coin's state before the first step, for each pre-walk flip
FLIP_START = {"I": (1, 0), "X": (HALF, HALF), "Y": (HALF, 1j * HALF)}


def coin(theta, phi):
    """The 2x2 coin in long double: Hadamard when the row has no angles."""
    if theta is None:
        return np.array([[HALF, HALF], [HALF, -HALF]], dtype=np.clongdouble)
    c, s = np.cos(np.longdouble(theta)), np.sin(np.longdouble(theta))
    e = np.exp(np.clongdouble(1j) * np.longdouble(phi))
    return np.array([[e * c, e * s], [-np.conj(e) * s, np.conj(e) * c]], dtype=np.clongdouble)


def step_blocks(P, kappa, u):
    """U(k) = M D(k) C for k = 2 pi j / P, j = 0..P-1, shape (P, 2**kappa, 2**kappa)."""
    nc = 1 << kappa
    C = np.zeros((nc, nc), dtype=np.clongdouble)
    for code in range(nc):
        for out in (code & ~1, code | 1):
            C[out, code] = u[out & 1, code & 1]
    M = np.zeros((nc, nc), dtype=np.clongdouble)
    for code in range(nc):
        bits = [(code >> (kappa - 1 - i)) & 1 for i in range(kappa)]  # c_0 first
        rotated = [bits[-1]] + bits[:-1]
        M[int("".join(map(str, rotated)), 2), code] = 1
    k = 2 * PI * np.arange(P) / P
    sign = np.where(np.arange(nc) & 1, 1, -1)  # e^{-ik} for active coin 0, e^{+ik} for 1
    D = np.exp(np.clongdouble(1j) * k[:, None] * sign[None, :])
    return M[None] @ (D[:, :, None] * C[None])


def peaks(P, kappa, u, flips, t_max=T_MAX):
    """Largest outcome probability of each mode after t = 1..t_max steps, one column per flip.

    Returns {mode: array of shape (t_max, len(flips))} for the modes all,
    memory and position.  The state steps in long double, where rounding
    accumulates.  Each t's inverse Fourier sum is taken afresh in
    complex128: every k-block of the state has unit norm, so its error is
    a few ulps of an amplitude, far inside REL.
    """
    nc = 1 << kappa
    U = step_blocks(P, kappa, u)
    state = np.zeros((P, nc, len(flips)), dtype=np.clongdouble)
    state[:, :2] = np.array([FLIP_START[f] for f in flips]).T  # a point at x = 0 is flat in k
    states = np.empty((t_max, P, nc * len(flips)), dtype=np.complex128)
    for t in range(t_max):
        state = U @ state
        states[t] = state.reshape(P, -1)
    x = np.arange(P)
    inverse = np.exp(np.clongdouble(1j) * 2 * PI * np.outer(x, x) / P) / P
    w = (np.abs(inverse.astype(np.complex128) @ states) ** 2).reshape(t_max, P, nc // 2, 2, -1)
    return {
        "all": w.max(axis=(1, 2, 3)),
        "memory": w.sum(axis=3).max(axis=(1, 2)),
        "position": w.sum(axis=(2, 3)).max(axis=1),
    }


@pytest.mark.parametrize("name", PRESETS)
def test_preset_rows_match_the_momentum_oracle(name):
    spec = preset(name, t_max=T_MAX)
    angles = spec.grid.angles()
    rng = np.random.default_rng(0)
    for row in run_table(spec).rows:
        mode = row.mode.value
        series = peaks(row.P, row.kappa, coin(row.at_theta, row.at_phi),
                       (row.at_flip.name,))[mode][:, 0]
        where = f"{name} (P={row.P}, kappa={row.kappa}, {mode}) at t={row.at_t}"
        assert abs(series[row.at_t - 1] - row.value) <= REL * row.value, where
        assert series.min() >= row.value * (1 - REL), f"{where}: a lower t exists"
        if angles is None:
            continue
        n = angles.size
        others = [(angles[c // n], angles[c % n]) for c in rng.permutation(n * n)]
        others = [a for a in others if a != (row.at_theta, row.at_phi)][:OTHER_COINS]
        for theta, phi in others:
            low = peaks(row.P, row.kappa, coin(theta, phi), tuple(FLIP_START))[mode].min()
            assert low >= row.value * (1 - REL), (
                f"{where}: coin theta={theta}, phi={phi} goes lower, to {low}")


@pytest.fixture(scope="module")
def hadamard_window():
    """Each Hadamard preset's sweep rows and oracle peaks over its default window.

    The four presets' rows are the results of kappa 1-4 and P in
    (3, 5, 11, 21, 51), so one all-mode sweep and one oracle pass per
    (P, kappa) serve every row.
    """
    specs = {name: preset(name) for name in HADAMARD_PRESETS}
    [grid] = {spec.grid for spec in specs.values()}
    assert grid.flips == (FlipOperator.I,)
    cells = {(P, kappa) for spec in specs.values() for P, kappa, _ in spec.cases}
    swept = {cell: g_functions(*cell, grid) for cell in cells}
    series = {cell: peaks(*cell, coin(None, None), ("I",), grid.t_max) for cell in cells}
    return specs, swept, series


@pytest.mark.parametrize("name", HADAMARD_PRESETS)
def test_hadamard_rows_match_the_oracle_over_the_whole_window(name, hadamard_window):
    specs, swept, series = hadamard_window
    for P, kappa, mode in specs[name].cases:
        row = swept[(P, kappa)][mode]
        peak = series[(P, kappa)][mode.value][:, 0]
        where = f"{name} (P={P}, kappa={kappa}, {mode.value}) at t={row.at_t}"
        assert abs(peak[row.at_t - 1] - row.value) <= REL * row.value, where
        assert peak.min() >= row.value * (1 - REL), f"{where}: a lower t exists"
    if name == "table1":
        # criterion 1's erratum cell
        row = swept[(51, 4)][MeasurementMode.ALL]
        assert row.at_t == 1759
        assert row.value == pytest.approx(0.02398994728555, rel=REL, abs=0)
