"""Grid minimization of the walker's peak outcome probability.

For fixed (P, kappa) the honest state after t steps has some largest
outcome probability in each measurement mode.  Sweeping the step count
(and, for the two-angle coin family, the angles and the pre-walk flip)
and taking the minimum gives the guessing probability charged to the
source; gamma = -log2 of it is the certified min-entropy per signal.

The sweep evolves states incrementally, one walk step per candidate t,
and batches all angle pairs of a flip into a single array, so a full
grid costs O(t_max) batched steps instead of O(sum of t).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    distribution,
    evolve,
    memory_rotation_gather,
)

_FLIP_RANK = {FlipOperator.I: 0, FlipOperator.X: 1, FlipOperator.Y: 2}

# candidate tuples (value, t, flip rank, theta index, phi index) compare
# lexicographically, which is exactly the documented tie order
_Candidate = tuple[float, int, int, int, int]


@dataclass(frozen=True)
class SweepGrid:
    """Search space for the minimization.

    R is the angle resolution: theta and phi each range over g*pi/R for
    g = 0..R.  R None means a Hadamard-only sweep (no angles, flips
    defaulting to just I); R set selects the two-angle coin family with
    all three flips unless narrowed explicitly.
    """

    t_min: int = 1
    t_max: int = 2000
    R: int | None = None
    flips: tuple[FlipOperator, ...] | None = None

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise ValueError("t_min must be at least 1")
        if self.t_max < self.t_min:
            raise ValueError("empty time range: t_max below t_min")
        if self.R is not None and self.R < 1:
            raise ValueError("angle resolution R must be positive")
        if self.flips is not None and not self.flips:
            raise ValueError("empty flip set")

    @property
    def flip_set(self) -> tuple[FlipOperator, ...]:
        if self.flips is not None:
            return self.flips
        if self.R is None:
            return (FlipOperator.I,)
        return (FlipOperator.I, FlipOperator.X, FlipOperator.Y)

    def angles(self) -> np.ndarray | None:
        if self.R is None:
            return None
        return np.arange(self.R + 1) * (math.pi / self.R)


@dataclass(frozen=True)
class MaxProbResult:
    """Minimum peak probability and the grid point achieving it."""

    value: float
    at_t: int
    at_flip: FlipOperator
    mode: MeasurementMode
    P: int
    kappa: int
    at_theta: float | None = None
    at_phi: float | None = None

    @property
    def gamma(self) -> float:
        return gamma_from_g(self.value)

    def walk_config(self) -> WalkConfig:
        """Config reproducing the recorded optimum."""
        if self.at_theta is None:
            coin = CoinOperator.hadamard()
        else:
            coin = CoinOperator.generalized(self.at_theta, self.at_phi)
        return WalkConfig(P=self.P, kappa=self.kappa, T=self.at_t, coin=coin, flip=self.at_flip)


def max_outcome_prob(config: WalkConfig, mode: MeasurementMode) -> float:
    """Largest outcome probability of the evolved walk in `mode`."""
    return float(distribution(evolve(config), mode).probs.max())


def gamma_from_g(g: float) -> float:
    """Min-entropy rate -log2(g) of a guessing probability."""
    if not 0.0 < g <= 1.0:
        raise ValueError(f"guessing probability must lie in (0, 1], got {g}")
    return -math.log2(g)


def _coin_batch(grid: SweepGrid) -> np.ndarray:
    """Coin matrices for every angle pair, theta-major; Hadamard is a batch of one."""
    angles = grid.angles()
    if angles is None:
        return CoinOperator.hadamard().matrix()[None, :, :]
    n = len(angles)
    th = np.repeat(angles, n)
    ph = np.tile(angles, n)
    ct, st = np.cos(th), np.sin(th)
    ep = np.exp(1j * ph)
    coins = np.empty((n * n, 2, 2), dtype=np.complex128)
    coins[:, 0, 0] = ep * ct
    coins[:, 0, 1] = ep * st
    coins[:, 1, 0] = -np.conj(ep) * st
    coins[:, 1, 1] = np.conj(ep) * ct
    return coins


def _step_source(P: int, kappa: int) -> np.ndarray:
    """Flat source index of one shift plus memory rotation: new[j] = old[src[j]].

    Slot k at position x takes coin code g = rotation[k], which the shift
    brought from x - 1 when g's active bit is 0 and from x + 1 when it is 1.
    """
    nc = 1 << kappa
    codes = memory_rotation_gather(kappa)  # the identity for kappa = 1
    origin = (np.arange(P)[:, None] - 1 + 2 * (codes & 1)) % P
    return (origin * nc + codes).reshape(-1)


def _batch_step(states: np.ndarray, coins: np.ndarray, source: np.ndarray) -> np.ndarray:
    """One walk step on a (B, P, 2**kappa) batch, coin b applied to batch entry b.

    The coin runs as separate float64 multiplies and adds on views of the
    complex state, with the inner loops along the pair axis.  Output coin
    value a is (Re/Im of c=0 products) + (Re/Im of c=1 products), the same
    roundings in the same order as a complex einsum over c, so the step is
    bit-identical to it; a batched matmul or complex multiply differs in
    the last ulp.  One gather then applies the shift and the memory
    rotation.
    """
    B = states.shape[0]
    v = states.view(np.float64).reshape(B, -1, 2, 2)
    re0, im0, re1, im1 = v[:, :, 0, 0], v[:, :, 0, 1], v[:, :, 1, 0], v[:, :, 1, 1]
    cr, ci = coins.real[..., None], coins.imag[..., None]
    coined = np.empty_like(states)
    out = coined.view(np.float64).reshape(B, -1, 2, 2)
    for a in (0, 1):
        cr0, ci0, cr1, ci1 = cr[:, a, 0], ci[:, a, 0], cr[:, a, 1], ci[:, a, 1]
        np.add(re0 * cr0 - im0 * ci0, re1 * cr1 - im1 * ci1, out=out[:, :, a, 0])
        np.add(re0 * ci0 + im0 * cr0, re1 * ci1 + im1 * cr1, out=out[:, :, a, 1])
    return np.take(coined.reshape(B, -1), source, axis=1).reshape(states.shape)


def _mode_peaks(weights: np.ndarray, mode: MeasurementMode) -> np.ndarray:
    """Per-batch maximum outcome probability; weights has shape (B, P, nc)."""
    B = weights.shape[0]
    if mode is MeasurementMode.ALL:
        return weights.reshape(B, -1).max(axis=1)
    if mode is MeasurementMode.MEMORY_ONLY:
        return (weights[..., 0::2] + weights[..., 1::2]).reshape(B, -1).max(axis=1)
    # left to right over the coin codes, as the sweep has always summed:
    # numpy's pairwise sum along a contiguous axis rounds differently once
    # 2**kappa >= 8, and table CSVs print every digit
    position = weights[..., 0].copy()
    for code in range(1, weights.shape[2]):
        position += weights[..., code]
    return position.max(axis=1)


def _sweep_chunk(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    flip: FlipOperator,
    coins: np.ndarray,
    batch_offset: int,
) -> dict[MeasurementMode, _Candidate]:
    """Run one flip's coin batch over the time range, tracking per-mode minima."""
    nc = 1 << kappa
    B = coins.shape[0]
    states = np.zeros((B, P, nc), dtype=np.complex128)
    states[:, 0, 0] = 1.0
    if flip is not FlipOperator.I:
        s = states.reshape(B, P * nc // 2, 2)
        states = (s @ flip.matrix().T).reshape(B, P, nc)
    source = _step_source(P, kappa)
    n_phi = 0 if grid.R is None else grid.R + 1
    rank = _FLIP_RANK[flip]
    best: dict[MeasurementMode, _Candidate] = {}
    for t in range(1, grid.t_max + 1):
        states = _batch_step(states, coins, source)
        if t < grid.t_min:
            continue
        weights = np.abs(states) ** 2
        for mode in modes:
            peaks = _mode_peaks(weights, mode)
            b = int(np.argmin(peaks))
            g = batch_offset + b
            cand: _Candidate = (
                float(peaks[b]),
                t,
                rank,
                g // n_phi if n_phi else 0,
                g % n_phi if n_phi else 0,
            )
            if mode not in best or cand < best[mode]:
                best[mode] = cand
    return best


def _run_sweep(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    threads: int,
) -> dict[MeasurementMode, MaxProbResult]:
    coins = _coin_batch(grid)
    B = coins.shape[0]
    tasks = []
    n_chunks = max(1, min(threads, B))
    bounds = np.linspace(0, B, n_chunks + 1, dtype=int)
    for flip in grid.flip_set:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                tasks.append((flip, coins[lo:hi], int(lo)))

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(
                pool.map(lambda a: _sweep_chunk(P, kappa, grid, modes, *a), tasks)
            )
    else:
        partials = [_sweep_chunk(P, kappa, grid, modes, *a) for a in tasks]

    angles = grid.angles()
    results: dict[MeasurementMode, MaxProbResult] = {}
    for mode in modes:
        # min over totally ordered tuples is independent of chunk order
        value, t, rank, th_i, ph_i = min(p[mode] for p in partials)
        flip = next(f for f, r in _FLIP_RANK.items() if r == rank)
        results[mode] = MaxProbResult(
            value=value,
            at_t=t,
            at_flip=flip,
            mode=mode,
            P=P,
            kappa=kappa,
            at_theta=None if angles is None else float(angles[th_i]),
            at_phi=None if angles is None else float(angles[ph_i]),
        )
    return results


def g_function(
    P: int,
    kappa: int,
    mode: MeasurementMode,
    grid: SweepGrid,
    threads: int = 1,
) -> MaxProbResult:
    """Minimum over the grid of the peak outcome probability in `mode`.

    Ties break toward the smallest t, then the flip in order I, X, Y,
    then the smallest theta, then the smallest phi.
    """
    WalkConfig(P=P, kappa=kappa, T=0)  # validates dimensions
    return _run_sweep(P, kappa, grid, (mode,), threads)[mode]


def g_functions(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...] = (
        MeasurementMode.ALL,
        MeasurementMode.MEMORY_ONLY,
        MeasurementMode.POSITION_ONLY,
    ),
    threads: int = 1,
) -> dict[MeasurementMode, MaxProbResult]:
    """All requested modes from a single evolution pass over the grid."""
    WalkConfig(P=P, kappa=kappa, T=0)
    return _run_sweep(P, kappa, grid, tuple(modes), threads)


def min_over_time(
    P: int,
    kappa: int,
    mode: MeasurementMode,
    coin: CoinOperator,
    flip: FlipOperator,
    t_min: int = 1,
    t_max: int = 2000,
) -> MaxProbResult:
    """Minimum over t alone at one fixed coin and flip."""
    grid = SweepGrid(t_min=t_min, t_max=t_max)
    coins = coin.matrix()[None, :, :]
    best = _sweep_chunk(P, kappa, grid, (mode,), flip, coins, 0)[mode]
    value, t, _, _, _ = best
    theta = None if coin.kind == "hadamard" else coin.theta
    phi = None if coin.kind == "hadamard" else coin.phi
    return MaxProbResult(
        value=value, at_t=t, at_flip=flip, mode=mode, P=P, kappa=kappa,
        at_theta=theta, at_phi=phi,
    )


__all__ = [
    "SweepGrid",
    "MaxProbResult",
    "max_outcome_prob",
    "gamma_from_g",
    "g_function",
    "g_functions",
    "min_over_time",
]
