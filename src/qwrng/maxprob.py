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
from dataclasses import dataclass

import numpy as np

from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    generalized_coin_matrix,
    initial_state,
    marginal,
    step_source,
)

# default sweep windows and angle resolution, applied only by SweepGrid.for_coin
_T_MAX_HADAMARD = 2000
_T_MAX_GENERAL = 1000
_R_GENERAL = 16


@dataclass(frozen=True)
class SweepGrid:
    """Search space for the minimization: the steps t_min..t_max of every grid coin.

    R is the angle resolution: theta and phi each range over g*pi/R for
    g = 0..R.  R None means a Hadamard-only sweep with no angles.  flips
    None becomes (I,) for Hadamard and (I, X, Y) for the two-angle coin
    family, so `flips` is always the set that gets swept, in I, X, Y order.
    """

    t_min: int
    t_max: int
    R: int | None = None
    flips: tuple[FlipOperator, ...] | None = None

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise ValueError("t_min must be at least 1")
        if self.t_max < self.t_min:
            raise ValueError("empty time range: t_max below t_min")
        if self.R is not None and self.R < 1:
            raise ValueError("angle resolution R must be positive")
        flips = self.flips
        if flips is None:
            flips = (FlipOperator.I,) if self.R is None else tuple(FlipOperator)
        if not flips:
            raise ValueError("empty flip set")
        # I, X, Y order is the sweep's tie order across flips
        object.__setattr__(self, "flips", tuple(f for f in FlipOperator if f in flips))

    @classmethod
    def for_coin(
        cls,
        kind: str,
        t_min: int | None = None,
        t_max: int | None = None,
        R: int | None = None,
        flips: tuple[FlipOperator, ...] | None = None,
    ) -> SweepGrid:
        """Grid of coin family `kind`; t_min, t_max and R left None take its defaults."""
        t_min = 1 if t_min is None else t_min
        if kind == "hadamard":
            if R is not None:
                raise ValueError("angle resolution --R applies to the general coin only")
            return cls(t_min, _T_MAX_HADAMARD if t_max is None else t_max, flips=flips)
        if kind != "general":
            raise ValueError(f"unknown coin family {kind!r}")
        return cls(
            t_min,
            _T_MAX_GENERAL if t_max is None else t_max,
            _R_GENERAL if R is None else R,
            flips,
        )

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
    return generalized_coin_matrix(np.repeat(angles, n), np.tile(angles, n))


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


def _sweep(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    coins: np.ndarray,
) -> dict[MeasurementMode, tuple[float, int, FlipOperator, int]]:
    """Smallest peak of each mode over the grid's steps and flips and a coin batch.

    Each flip runs the whole batch over the time range.  For every
    (t, flip) the record keeps the batch's smallest peak and the first coin
    reaching it; one row-major argmin over the record then picks the
    smallest t, then the first flip.  Returns (value, t, flip, coin index)
    per mode.
    """
    WalkConfig(P=P, kappa=kappa, T=0)  # validates dimensions
    source = step_source(P, kappa)
    shape = (len(modes), grid.t_max - grid.t_min + 1, len(grid.flips))
    values = np.empty(shape)
    coin_at = np.empty(shape, dtype=np.intp)
    for j, flip in enumerate(grid.flips):
        start = initial_state(WalkConfig(P, kappa, 0, flip=flip)).amplitudes
        states = np.repeat(start.reshape(1, P, -1), coins.shape[0], axis=0)
        for t in range(1, grid.t_max + 1):
            states = _batch_step(states, coins, source)
            i = t - grid.t_min
            if i < 0:
                continue
            weights = np.abs(states) ** 2
            for m, mode in enumerate(modes):
                peaks = marginal(weights, mode).max(axis=-1)
                b = np.argmin(peaks)
                values[m, i, j], coin_at[m, i, j] = peaks[b], b
    best = {}
    for m, mode in enumerate(modes):
        i, j = np.unravel_index(np.argmin(values[m]), shape[1:])
        value, t = float(values[m, i, j]), grid.t_min + int(i)
        best[mode] = (value, t, grid.flips[j], int(coin_at[m, i, j]))
    return best


def g_functions(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...] = (
        MeasurementMode.ALL,
        MeasurementMode.MEMORY_ONLY,
        MeasurementMode.POSITION_ONLY,
    ),
) -> dict[MeasurementMode, MaxProbResult]:
    """Minimum over the grid of the peak outcome probability in each of `modes`.

    One evolution pass serves every mode.  Ties break toward the smallest
    t, then the flip in order I, X, Y, then the smallest theta, then the
    smallest phi.
    """
    angles = grid.angles()
    results: dict[MeasurementMode, MaxProbResult] = {}
    for mode, (value, t, flip, b) in _sweep(P, kappa, grid, modes, _coin_batch(grid)).items():
        # the batch is theta-major, so its first coin has the smallest theta, then phi
        at = (None, None) if angles is None else [float(angles[i]) for i in divmod(b, len(angles))]
        results[mode] = MaxProbResult(value, t, flip, mode, P, kappa, *at)
    return results


def min_over_time(
    P: int,
    kappa: int,
    mode: MeasurementMode,
    coin: CoinOperator,
    flip: FlipOperator,
    t_min: int,
    t_max: int,
) -> MaxProbResult:
    """Minimum over t alone at one fixed coin and flip."""
    grid = SweepGrid(t_min, t_max, flips=(flip,))
    value, t, _, _ = _sweep(P, kappa, grid, (mode,), coin.matrix()[None, :, :])[mode]
    at = (None, None) if coin.kind == "hadamard" else (coin.theta, coin.phi)
    return MaxProbResult(value, t, flip, mode, P, kappa, *at)


__all__ = [
    "SweepGrid",
    "MaxProbResult",
    "gamma_from_g",
    "g_functions",
    "min_over_time",
]
