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
from qwrng.walk import (BatchWalk, CoinOperator, FlipOperator, MeasurementMode, WalkConfig,
                        generalized_coin_matrix)

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
        if self.t_max >= 1 << 63:  # the int64 range; unprinted, as kappa is
            raise ValueError("t_max must be below 2**63")
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

    def matrices(self) -> np.ndarray:
        """(B, 2, 2) matrices of every coin of the grid, theta-major: the sweep's tie order."""
        if self.R is None:
            return CoinOperator.hadamard().matrix()[None]
        a = np.arange(self.R + 1) * (math.pi / self.R)
        return generalized_coin_matrix(np.repeat(a, self.R + 1), np.tile(a, self.R + 1))

    def coin(self, b: int) -> CoinOperator:
        """The coin of `matrices()[b]`: theta and phi are its angles g * pi/R, bit for bit."""
        if self.R is None:
            return CoinOperator.hadamard()
        return CoinOperator.generalized(*(g * (math.pi / self.R) for g in divmod(b, self.R + 1)))


@dataclass(frozen=True)
class MaxProbResult:
    """Minimum peak probability and the grid point achieving it: step count, flip and coin."""

    value: float
    at_t: int
    at_flip: FlipOperator
    mode: MeasurementMode
    P: int
    kappa: int
    coin: CoinOperator

    @property
    def gamma(self) -> float:
        return gamma_from_g(self.value)

    def walk_config(self) -> WalkConfig:
        """Config reproducing the recorded optimum."""
        return WalkConfig(P=self.P, kappa=self.kappa, T=self.at_t, coin=self.coin,
                          flip=self.at_flip)


def sweep_bytes(P: int, kappa: int, grid: SweepGrid) -> int:
    """Bytes a sweep over (P, kappa) and `grid` holds at any window; B is counted, never built."""
    return BatchWalk.nbytes(P, kappa, 1 if grid.R is None else (grid.R + 1) ** 2)


def _sweep(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    coin: CoinOperator | None = None,
) -> dict[MeasurementMode, MaxProbResult]:
    """Smallest peak of each mode over `coin`, or every coin of `grid`, and its steps and flips.

    Each flip runs the whole batch over the time range.  At every (t, flip)
    the batch's smallest peak and the first coin reaching it replace a
    mode's running best when (peak, t, flip index) is smaller, so ties go
    to the smallest t, then the first flip, then the first coin.  A grid's
    batch is its matrices, and only each mode's winner b becomes a coin.
    """
    walk = BatchWalk(P, kappa, grid.matrices() if coin is None else coin.matrix()[None])
    best = {mode: (math.inf,) for mode in modes}
    for j, flip in enumerate(grid.flips):
        walk.start(flip)
        for t in range(1, grid.t_max + 1):
            walk.step()
            if t < grid.t_min:
                continue
            # the comprehension drops each peaks array, so none lives on into the next readout
            least = [(float(p[b]), b) for p in walk.peaks(modes) for b in [int(np.argmin(p))]]
            for mode, (value, b) in zip(modes, least):
                best[mode] = min(best[mode], (value, t, j, b))
    return {mode: MaxProbResult(value, t, grid.flips[j], mode, P, kappa, coin or grid.coin(b))
            for mode, (value, t, j, b) in best.items()}


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
    return _sweep(P, kappa, grid, modes)


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
    return _sweep(P, kappa, SweepGrid(t_min, t_max, flips=(flip,)), (mode,), coin)[mode]
