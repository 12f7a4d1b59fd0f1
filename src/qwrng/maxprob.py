"""Grid minimization of the walker's peak outcome probability.

For fixed (P, kappa) the honest state after t steps has some largest
outcome probability in each measurement mode.  Sweeping the step count
(and, for the two-angle coin family, the angles and the pre-walk flip)
and taking the minimum gives the guessing probability charged to the
source; gamma = -log2 of it is the certified min-entropy per signal.

The sweep numbers the grid's (flip, coin) walks flip-major and steps
them in contiguous blocks of that one range, each one `walk.BatchWalk`
of at most _BLOCK_AMPLITUDES amplitudes built once with its walks' start
states, one step per candidate t, so a full grid costs O(t_max) batched
steps per block instead of O(sum of t).  At each step a block reads out
only each mode's smallest peak (`BatchWalk.least`): exact peaks are
taken only for walks whose approximate peak is near the block's
smallest, and for none when no walk can reach the mode's running best.
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
# the sweep steps its walks in blocks of at most this many amplitudes, or one walk;
# table2 at t <= 200 swept fastest here among 6,000 to 150,000 on a 2 MiB L2 core
_BLOCK_AMPLITUDES = 48_000
# a grid's matrices are built this many coins at a time, so the build's temporaries stay small
_BUILD_COINS = 4096


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
        if not all(isinstance(f, FlipOperator) for f in flips):
            raise ValueError(f"unknown flip in {flips!r}: flips are FlipOperator members")
        # I, X, Y order is the sweep's tie order across flips
        object.__setattr__(self, "flips", tuple(f for f in FlipOperator if f in flips))
        if not self.flips:
            raise ValueError("empty flip set")

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
        out = np.empty(((self.R + 1) ** 2, 2, 2), dtype=np.complex128)
        for lo in range(0, len(out), _BUILD_COINS):
            b = np.arange(lo, min(lo + _BUILD_COINS, len(out)))
            out[lo:lo + len(b)] = generalized_coin_matrix(*(a[g] for g in divmod(b, self.R + 1)))
        return out

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


def _block_count(P: int, kappa: int, walks: int) -> int:
    """How many blocks k a sweep of `walks` walks on (P, kappa) takes: the fewest of at
    most _BLOCK_AMPLITUDES amplitudes, or one walk each, block c holding walks c*walks//k
    up to (c+1)*walks//k."""
    n = WalkConfig(P=P, kappa=kappa, T=0).dim  # validates dimensions
    return min(walks, -(-n * walks // _BLOCK_AMPLITUDES))


def sweep_bytes(P: int, kappa: int, grid: SweepGrid) -> int:
    """Bytes a sweep over (P, kappa) and `grid` holds at any window; B is counted, never built.

    The grid's matrices, 64 bytes per coin, and its largest block's `BatchWalk`.
    """
    B = 1 if grid.R is None else (grid.R + 1) ** 2
    walks = len(grid.flips) * B
    return 64 * B + BatchWalk.nbytes(P, kappa, -(-walks // _block_count(P, kappa, walks)))


def _sweep(
    P: int,
    kappa: int,
    grid: SweepGrid,
    modes: tuple[MeasurementMode, ...],
    coin: CoinOperator | None = None,
) -> dict[MeasurementMode, MaxProbResult]:
    """Smallest peak of each mode over `coin`, or every coin of `grid`, and its steps and flips.

    Walk w = j*B + b starts at flip j of the grid and tosses coin b, and the
    walks run over the time range in contiguous blocks (`_block_count`).  At
    every t a block's smallest peak and the first walk w reaching it replace
    a mode's running best when (peak, t, w) is smaller, so ties go to the
    smallest t, then the first flip, then the first coin, whatever the order
    of the blocks.  A grid's batch is its matrices, and only each mode's
    winner w becomes a flip and a coin.
    """
    matrices = grid.matrices() if coin is None else coin.matrix()[None]
    B = len(matrices)
    walks = len(grid.flips) * B
    k = _block_count(P, kappa, walks)
    best = {mode: (math.inf,) for mode in modes}
    for c in range(k):
        lo, hi = c * walks // k, (c + 1) * walks // k
        walk = BatchWalk(P, kappa, matrices[np.arange(lo, hi) % B],
                         [grid.flips[w // B] for w in range(lo, hi)])
        for t in range(1, grid.t_max + 1):
            walk.step()
            if t < grid.t_min:
                continue
            for mode, found in zip(modes, walk.least(modes, [best[m][0] for m in modes])):
                if found is not None:
                    best[mode] = min(best[mode], (found[0], t, lo + found[1]))
        del walk  # before the next block is built
    return {mode: MaxProbResult(value, t, grid.flips[w // B], mode, P, kappa,
                                coin or grid.coin(w % B))
            for mode, (value, t, w) in best.items()}


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
