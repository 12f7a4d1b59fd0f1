"""Preset rows against a momentum-space walk built from the step rules alone.

The walk is translation invariant on the P-cycle, so at each momentum
k = 2 pi j / P one step acts on the 2**kappa coin codes as one block
U(k) = M D(k) C.  C tosses the coin on the active coin, the least
significant bit of a code.  D(k) is the shift's phase: active coin 0
moves +1, which multiplies by e^{-ik}, and active coin 1 moves -1, e^{+ik}.
M rotates the coin register, (c_0, ..., c_{kappa-1}) becoming
(c_{kappa-1}, c_0, ..., c_{kappa-2}).  Every block is built here in long
double from those rules, without `qwrng.walk`'s step code, and position
amplitudes come back through an explicit inverse Fourier sum.

For every row of `table1`-`table6` and `kappa1` at t <= 20, the oracle
recomputes the recorded minimum at its (t, theta, phi, flip) and checks
that no other t at that coin and flip goes lower.  For a general-coin
row it also checks that no t goes lower at a seeded sample of the other
grid coins, under every flip, so the sweep's minimum over coins is
tested too.  An equivalent coin (phi + pi negates it) ties the row's
value within rounding, which the tolerance absorbs.
"""

import numpy as np
import pytest

from qwrng.experiments import preset, run_table

PRESETS = ("table1", "table2", "table3", "table4", "table5", "table6", "kappa1")
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


def peaks(P, kappa, mode, u, flips):
    """Largest outcome probability of `mode` after t = 1..T_MAX steps, one column per flip."""
    nc = 1 << kappa
    U = step_blocks(P, kappa, u)
    state = np.zeros((P, nc, len(flips)), dtype=np.clongdouble)
    state[:, :2] = np.array([FLIP_START[f] for f in flips]).T  # a point at x = 0 is flat in k
    x = np.arange(P)
    inverse = np.exp(np.clongdouble(1j) * 2 * PI * np.outer(x, x) / P) / P
    out = []
    for _ in range(T_MAX):
        state = U @ state
        w = np.abs(inverse @ state.reshape(P, -1)).reshape(state.shape) ** 2
        if mode == "memory":
            w = w.reshape(P, nc // 2, 2, -1).sum(axis=2)
        elif mode == "position":
            w = w.sum(axis=1)
        out.append(w.reshape(-1, len(flips)).max(axis=0))
    return np.array(out)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_rows_match_the_momentum_oracle(name):
    spec = preset(name, t_max=T_MAX)
    angles = spec.cases[0][3].angles()
    rng = np.random.default_rng(0)
    for row in run_table(spec).rows:
        mode = row.mode.value
        series = peaks(row.P, row.kappa, mode, coin(row.at_theta, row.at_phi),
                       (row.at_flip.name,))[:, 0]
        where = f"{name} (P={row.P}, kappa={row.kappa}, {mode}) at t={row.at_t}"
        assert abs(series[row.at_t - 1] - row.value) <= REL * row.value, where
        assert series.min() >= row.value * (1 - REL), f"{where}: a lower t exists"
        if angles is None:
            continue
        n = angles.size
        others = [(angles[c // n], angles[c % n]) for c in rng.permutation(n * n)]
        others = [a for a in others if a != (row.at_theta, row.at_phi)][:OTHER_COINS]
        for theta, phi in others:
            low = peaks(row.P, row.kappa, mode, coin(theta, phi), tuple(FLIP_START)).min()
            assert low >= row.value * (1 - REL), (
                f"{where}: coin theta={theta}, phi={phi} goes lower, to {low}")
