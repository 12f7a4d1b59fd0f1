"""Grid minimization of the walker's peak outcome probability.

For fixed (P, kappa) the honest state after t steps has some largest
outcome probability in each measurement mode.  Sweeping the step count
(and, for the two-angle coin family, the angles and the pre-walk flip)
and taking the minimum gives the guessing probability charged to the
source; gamma = -log2 of it is the certified min-entropy per signal.

The sweep steps every angle pair of a flip together as one
`walk.BatchWalk`, one step per candidate t, so a full grid costs
O(t_max) batched steps instead of O(sum of t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qwrng.rates import gamma_from_g
from qwrng.walk import (
    BatchWalk,
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    generalized_coin_matrix,
    marginal,
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


def _coin_batch(grid: SweepGrid) -> np.ndarray:
    """Coin matrices for every angle pair, theta-major; Hadamard is a batch of one."""
    angles = grid.angles()
    if angles is None:
        return CoinOperator.hadamard().matrix()[None, :, :]
    n = len(angles)
    return generalized_coin_matrix(np.repeat(angles, n), np.tile(angles, n))


def _peaks(weights: np.ndarray, mode: MeasurementMode) -> np.ndarray:
    """Largest outcome probability of `mode` in each walk of a batch of weights."""
    outcomes = marginal(weights, mode)
    return outcomes.max(axis=tuple(range(outcomes.ndim - 1)))


def sweep_bytes(P: int, kappa: int, grid: SweepGrid) -> int:
    """Bytes a sweep over (P, kappa) and `grid` holds, whatever its window.

    `walk.BatchWalk` keeps 72 per amplitude of each walk: state and coin
    output 16 each, step scratch 8, and the tiled coin entries 32.
    """
    B = 1 if grid.R is None else (grid.R + 1) ** 2
    return 72 * B * WalkConfig(P=P, kappa=kappa, T=0).dim


def _sweep(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    coins: np.ndarray,
) -> dict[MeasurementMode, tuple[float, int, FlipOperator, int]]:
    """Smallest peak of each mode over the grid's steps and flips and a coin batch.

    Each flip runs the whole batch over the time range.  At every (t, flip)
    the batch's smallest peak and the first coin reaching it replace a
    mode's running best when (peak, t, flip index) is smaller, so ties go
    to the smallest t, then the first flip.  Returns (value, t, flip, coin
    index) per mode.
    """
    walk = BatchWalk(P, kappa, coins)
    best = {mode: (math.inf,) for mode in modes}
    for j, flip in enumerate(grid.flips):
        walk.start(flip)
        for t in range(1, grid.t_max + 1):
            walk.step()
            if t < grid.t_min:
                continue
            weights = walk.weights()
            for mode in modes:
                peaks = _peaks(weights, mode)
                b = int(np.argmin(peaks))
                best[mode] = min(best[mode], (float(peaks[b]), t, j, b))
    return {mode: (value, t, grid.flips[j], b) for mode, (value, t, j, b) in best.items()}


def g_functions(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...] = tuple(MeasurementMode),
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
