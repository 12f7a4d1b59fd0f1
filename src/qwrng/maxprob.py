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


class _BatchWalk:
    """A batch of walks on one (P, kappa), coin b driving walk b, stepped in place.

    The state is float64 of shape (re/im, row, B): planar and batch-minor.
    Amplitude 2p + c (amplitude pair p, active coin c) sits at row
    c*(n/2) + p, so the real and imaginary parts of each active-coin half
    are contiguous (n/2, B) blocks, and every coin product and sum is one
    flat ufunc call over a block, written with `out=` into buffers that
    live as long as the walk.  Each coin entry is tiled once to (n/2, B).
    Output coin value a is (Re/Im of c=0 products) + (Re/Im of c=1
    products): the roundings, in the order, of a complex einsum over c,
    so the step is bit-identical to it; a batched matmul or complex
    multiply differs in the last ulp.  The shift and memory rotation are
    `walk.step_source` carried over to rows, applied as one take.
    """

    def __init__(self, P: int, kappa: int, coins: np.ndarray) -> None:
        n, B = P << kappa, coins.shape[0]
        h = n // 2
        # rows[r] is the amplitude at row r; its inverse is the row of each amplitude
        self.rows = np.arange(n).reshape(h, 2).T.reshape(-1)
        self.source = np.argsort(self.rows)[step_source(P, kappa)[self.rows]]
        self.state = np.empty((2, n, B))
        self.coined = np.empty((2, n, B))
        # two (n/2, B) blocks of step scratch, which the readout reuses as (n, B)
        scratch = np.empty((2, h, B))
        # cr[a, c] and ci[a, c]: real and imaginary part of coin entry (a, c), tiled
        entries = np.stack([coins.real, coins.imag]).transpose(0, 2, 3, 1)
        cr, ci = np.ascontiguousarray(np.broadcast_to(entries[..., None, :], (2, 2, 2, h, B)))
        re, im = self.state.reshape(2, 2, h, B)
        out_re, out_im = self.coined.reshape(2, 2, h, B)
        t, u = scratch
        # output a, Re: sum over c of re*cr - im*ci; Im: sum over c of re*ci + im*cr
        self.ops = []
        for a in (0, 1):
            for out, x, y, combine in ((out_re[a], cr, ci, np.subtract),
                                       (out_im[a], ci, cr, np.add)):
                for c, dst in ((0, out), (1, t)):
                    self.ops += [(np.multiply, re[c], x[a, c], dst),
                                 (np.multiply, im[c], y[a, c], u),
                                 (combine, dst, u, dst)]
                self.ops.append((np.add, out, t, out))
        # the readout's complex buffer shares memory with the coin output
        self.interleaved = self.coined.reshape(-1).view(np.complex128).reshape(n, B)
        self.abs2 = scratch.reshape(n, B)
        self.readout = np.moveaxis(self.abs2.reshape(2, P, -1, B), 0, 2)

    def start(self, amplitudes: np.ndarray) -> None:
        """Set every walk of the batch to the same amplitude vector."""
        self.state[0] = amplitudes.real[self.rows, None]
        self.state[1] = amplitudes.imag[self.rows, None]

    def step(self) -> None:
        """One coin toss, shift and memory rotation of every walk."""
        for ufunc, x, y, out in self.ops:
            ufunc(x, y, out)
        # mode="raise" would buffer `out`; the source rows are all in range
        np.take(self.coined, self.source, axis=1, out=self.state, mode="clip")

    def weights(self) -> np.ndarray:
        """|amplitude|^2 of every walk, as marginal's (P, 2**(kappa-1), 2, B) view.

        The planes go through a complex buffer, for the same complex `np.abs`
        that `walk.distribution` takes.
        """
        np.copyto(self.interleaved.real, self.state[0])
        np.copyto(self.interleaved.imag, self.state[1])
        np.abs(self.interleaved, out=self.abs2)
        np.square(self.abs2, out=self.abs2)
        return self.readout


def _peaks(weights: np.ndarray, mode: MeasurementMode) -> np.ndarray:
    """Largest outcome probability of `mode` in each walk of a batch of weights."""
    outcomes = marginal(weights, mode)
    return outcomes.max(axis=tuple(range(outcomes.ndim - 1)))


def sweep_bytes(P: int, kappa: int, R: int | None = None) -> int:
    """Bytes a sweep over (P, kappa) at angle resolution R (None: one coin) holds.

    `_BatchWalk` keeps 72 per amplitude of each walk: state and coin output
    16 each, step scratch 8, and the tiled coin entries 32.
    """
    B = 1 if R is None else (R + 1) ** 2
    return 72 * B * WalkConfig(P=P, kappa=kappa, T=0).dim


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
    walk = _BatchWalk(P, kappa, coins)
    shape = (len(modes), grid.t_max - grid.t_min + 1, len(grid.flips))
    values = np.empty(shape)
    coin_at = np.empty(shape, dtype=np.intp)
    for j, flip in enumerate(grid.flips):
        walk.start(initial_state(WalkConfig(P, kappa, 0, flip=flip)).amplitudes)
        for t in range(1, grid.t_max + 1):
            walk.step()
            i = t - grid.t_min
            if i < 0:
                continue
            weights = walk.weights()
            for m, mode in enumerate(modes):
                peaks = _peaks(weights, mode)
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
    "sweep_bytes",
]
