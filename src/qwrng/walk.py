"""History-dependent quantum walks on a cycle.

A walker lives on a P-cycle and carries kappa coin qubits: kappa - 1
memory coins plus one active coin.  A single step applies, in order,

* the coin unitary on the active coin,
* a coin-conditioned shift of the position (active coin 0 moves +1,
  active coin 1 moves -1, modulo P),
* a cyclic rotation of the coin register that retires the active coin
  into memory and promotes the oldest memory coin to active duty.

Basis states are indexed position-major with the coin register read as a
big-endian bit string: (x, c_0, ..., c_{kappa-1}) sits at index
x * 2**kappa + sum(c_j << (kappa - 1 - j)), the active coin c_{kappa-1}
being the least significant bit, and the all-zeros point at index 0.
Amplitudes are complex128.  The shift and the memory rotation together
are one gather, :func:`_step_source`.  The functions here return new
states; :class:`BatchWalk`, the sweep's kernel, steps walks in place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class MeasurementMode(enum.Enum):
    """Which registers the user reads out after the walk."""

    ALL = "all"  # position plus every coin, d = 2**kappa * P
    MEMORY_ONLY = "memory"  # position plus memory coins, d = 2**(kappa-1) * P
    POSITION_ONLY = "position"  # position alone, d = P


class FlipOperator(enum.Enum):
    """One-shot unitary applied to the active coin before the walk runs."""

    I = "i"
    X = "x"
    Y = "y"

    def matrix(self) -> np.ndarray:
        if self is FlipOperator.I:
            return np.eye(2, dtype=np.complex128)
        if self is FlipOperator.X:
            return np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF
        return np.array([[1, 1], [1j, -1j]], dtype=np.complex128) * _SQRT_HALF


def generalized_coin_matrix(
    theta: float | np.ndarray, phi: float | np.ndarray
) -> np.ndarray:
    """Two-angle coin unitary, broadcast over array angles to shape (..., 2, 2).

    Rows are (e^{i phi} cos theta, e^{i phi} sin theta) and
    (-e^{-i phi} sin theta, e^{-i phi} cos theta); unitary for every
    angle pair, and the identity at theta = phi = 0.
    """
    theta, phi = np.broadcast_arrays(theta, phi)
    th, ph = theta.reshape(-1), phi.reshape(-1)
    ct, st = np.cos(th), np.sin(th)
    ep = np.exp(1j * ph)
    coins = np.empty((th.size, 2, 2), dtype=np.complex128)
    coins[:, 0, 0] = ep * ct
    coins[:, 0, 1] = ep * st
    coins[:, 1, 0] = -np.conj(ep) * st
    coins[:, 1, 1] = np.conj(ep) * ct
    return coins.reshape(theta.shape + (2, 2))


@dataclass(frozen=True)
class CoinOperator:
    """2x2 unitary tossed on the active coin each step.

    `kind` is "hadamard" (the angles are ignored) or "general" (the
    two-angle family of :func:`generalized_coin_matrix`).
    """

    kind: str = "hadamard"
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("hadamard", "general"):
            raise ValueError(f"unknown coin kind {self.kind!r}")

    @classmethod
    def hadamard(cls) -> "CoinOperator":
        return cls("hadamard")

    @classmethod
    def generalized(cls, theta: float, phi: float) -> "CoinOperator":
        return cls("general", theta, phi)

    def matrix(self) -> np.ndarray:
        if self.kind == "hadamard":
            return FlipOperator.X.matrix()
        return generalized_coin_matrix(self.theta, self.phi)


@dataclass(frozen=True)
class WalkConfig:
    """Full description of one walk: dimensions, depth, coin and flip."""

    P: int
    kappa: int
    T: int
    coin: CoinOperator = CoinOperator("hadamard")
    flip: FlipOperator = FlipOperator.I

    def __post_init__(self) -> None:
        if self.P < 2:
            raise ValueError("need P >= 2: a one-site cycle has nowhere to walk")
        if self.kappa < 1:
            raise ValueError("need kappa >= 1: the active coin is mandatory")
        if self.T < 0:
            raise ValueError("step count T must be non-negative")

    @property
    def dim(self) -> int:
        """Walker dimension 2**kappa * P."""
        return (1 << self.kappa) * self.P


@dataclass(frozen=True)
class WalkState:
    """Amplitude vector over the walker basis, tied to its config.

    Treat `amplitudes` as read-only; operations return fresh states.
    """

    amplitudes: np.ndarray  # shape (2**kappa * P,), complex128
    config: WalkConfig

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Distribution:
    """Outcome probabilities of one measurement mode, indexed densely.

    Outcome i of MEMORY_ONLY keeps the layout of the full index with the
    active-coin bit stripped; POSITION_ONLY outcomes are positions.
    """

    probs: np.ndarray


def initial_state(config: WalkConfig) -> WalkState:
    """The all-zeros point, index 0, with the flip applied to the active coin.

    The identity flip leaves a pure basis state; X and Y spread it over
    the two active-coin values before any step runs.
    """
    amps = np.zeros(config.dim, dtype=np.complex128)
    # the active coin is the least significant index bit, so indices 0 and 1
    # are the origin with active coin 0 and 1: the flip's first column
    amps[:2] = config.flip.matrix()[:, 0]
    return WalkState(amps, config)


def _memory_rotation_gather(kappa: int) -> np.ndarray:
    """Source indices realizing the right rotation of the coin register.

    new[j] = old[gather[j]] rotates (c_0, ..., c_{kappa-1}) to
    (c_{kappa-1}, c_0, ..., c_{kappa-2}) on big-endian coin codes.
    """
    nc = 1 << kappa
    codes = np.arange(nc)
    return ((codes << 1) | (codes >> (kappa - 1))) & (nc - 1)


def _step_source(P: int, kappa: int) -> np.ndarray:
    """Flat source index of one shift plus memory rotation: new[j] = old[src[j]].

    Slot k at position x takes coin code g = rotation[k], which the shift
    brought from x - 1 when g's active bit is 0 and from x + 1 when it is 1.
    """
    nc = 1 << kappa
    codes = _memory_rotation_gather(kappa)  # the identity for kappa = 1
    origin = (np.arange(P)[:, None] - 1 + 2 * (codes & 1)) % P
    return (origin * nc + codes).reshape(-1)


def evolve(config: WalkConfig) -> WalkState:
    """Run the walk: T repetitions of coin toss, shift, memory rotation."""
    amps = initial_state(config).amplitudes
    u = config.coin.matrix()
    source = _step_source(config.P, config.kappa)
    for _ in range(config.T):
        # a matmul coin, not BatchWalk's: the seed-7 digests perfbench pins are its bits
        amps = np.take((amps.reshape(-1, 2) @ u.T).reshape(-1), source)
    return WalkState(amps, config)


class BatchWalk:
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
    :func:`_step_source` carried over to rows, applied as one take.
    """

    def __init__(self, P: int, kappa: int, coins: np.ndarray) -> None:
        self.config = WalkConfig(P=P, kappa=kappa, T=0)  # validates dimensions
        n, B = self.config.dim, coins.shape[0]
        h = n // 2
        # rows[r] is the amplitude at row r; its inverse is the row of each amplitude
        self.rows = np.arange(n).reshape(h, 2).T.reshape(-1)
        self.source = np.argsort(self.rows)[_step_source(P, kappa)[self.rows]]
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

    def start(self, flip: FlipOperator) -> None:
        """Set every walk of the batch to :func:`initial_state` under `flip`."""
        amplitudes = initial_state(replace(self.config, flip=flip)).amplitudes
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
        that :func:`distribution` takes.
        """
        np.copyto(self.interleaved.real, self.state[0])
        np.copyto(self.interleaved.imag, self.state[1])
        np.abs(self.interleaved, out=self.abs2)
        np.square(self.abs2, out=self.abs2)
        return self.readout


def marginal(weights: np.ndarray, mode: MeasurementMode) -> np.ndarray:
    """Outcome probabilities of `mode` from basis weights of shape (P, 2**(kappa-1), 2, ...).

    The axes are position, memory coins and active coin, then any batch
    axes, whose walks are read out side by side.  The result has shape
    (P, 2**(kappa-1), 2, ...) for ALL, which keeps every basis weight,
    (P, 2**(kappa-1), ...) for MEMORY_ONLY, which adds each active-coin
    pair, and (P, ...) for POSITION_ONLY, which adds the coin codes left
    to right; its outcome axes flattened in C order are the dense outcome
    index.  The walk and the sweep both read out through here, so a
    certified peak and the sampled distribution round alike; numpy's
    pairwise sum would round differently once 2**kappa >= 8, and table
    CSVs print every digit.
    """
    if mode is MeasurementMode.ALL:
        return weights
    if mode is MeasurementMode.MEMORY_ONLY:
        return weights[:, :, 0] + weights[:, :, 1]
    if mode is MeasurementMode.POSITION_ONLY:
        codes = [weights[:, m, c] for m in range(weights.shape[1]) for c in (0, 1)]
        position = codes[0].copy()
        for code in codes[1:]:
            position += code
        return position
    raise ValueError(f"unknown measurement mode {mode!r}")


def distribution(state: WalkState, mode: MeasurementMode) -> Distribution:
    """Measurement statistics of the state in the given mode.

    For kappa = 1 MEMORY_ONLY and POSITION_ONLY coincide, both tracing
    out the lone coin.
    """
    weights = np.abs(state.amplitudes.reshape(state.config.P, -1, 2)) ** 2
    return Distribution(marginal(weights, mode).reshape(-1))
