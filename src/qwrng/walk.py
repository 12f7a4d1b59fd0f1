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
from dataclasses import dataclass

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


def generalized_coin_matrix(theta: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """Two-angle coin unitary, broadcast over array angles to shape (..., 2, 2).

    Rows are (e^{i phi} cos theta, e^{i phi} sin theta) and
    (-e^{-i phi} sin theta, e^{-i phi} cos theta); unitary for every
    angle pair, and the identity at theta = phi = 0.
    """
    theta, phi = np.broadcast_arrays(theta, phi)
    th, ph = theta.reshape(-1), phi.reshape(-1)
    ct, st = np.cos(th), np.sin(th)
    ep = np.exp(1j * ph)
    coins = np.stack([ep * ct, ep * st, -np.conj(ep) * st, np.conj(ep) * ct], axis=-1)
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
        if self.kappa > 61:
            # before anything forms 2**kappa; unprinted, as Python formats no int past 4300 digits
            raise ValueError("need kappa <= 61: 2**kappa * P amplitudes would exceed "
                             "numpy's index range of 2**63 - 1")
        if not 0 <= self.T < 1 << 63:  # the int64 range; unprinted, as kappa is
            raise ValueError("step count T must be non-negative and below 2**63")

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
    """A batch of walks on one (P, kappa), stepped in place; walk b starts at
    :func:`initial_state` of flip `flips[b]` and tosses coin `matrices[b]`.

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
    :func:`_step_source` carried over to rows, applied as one take.  The
    (B, 2, 2) complex128 `matrices` and the B `flips` are read only while
    the batch is built.

    `least` reads each mode's smallest peak out in two passes.  It first
    reduces the weights re*re + im*im of every walk to approximate peaks,
    each within a relative `delta` of the exact one, then takes the exact
    peaks (`peaks`: complex `np.abs` squared, as :func:`distribution`
    computes) of only the walks whose approximate peak is within `delta`
    of the smallest.  Every walk reaching the exact minimum is among
    them, so the minimum and its first walk are those of a full readout.
    """

    def __init__(self, P: int, kappa: int, matrices: np.ndarray,
                 flips: list[FlipOperator]) -> None:
        self.config = WalkConfig(P=P, kappa=kappa, T=0)  # validates dimensions
        n, B = self.config.dim, matrices.shape[0]
        h = n // 2
        # least's two readouts of a peak differ by under 2**(kappa - 52) + 2**-49
        # relative: each marginal adds 2**kappa rounded terms, complex np.abs and the
        # squarings round a few times, and a weight far below a unit-norm walk's peak
        # may underflow, which moves the sum far less; the filter needs twice the
        # difference, and delta is at least twice that
        self.delta = 2.0 ** -38 + 2.0 ** (kappa - 50)
        # _step_source in row order, each source amplitude 2p + c taken to its row c*h + p
        source = _step_source(P, kappa).reshape(h, 2).T
        self.source = ((source & 1) * h + (source >> 1)).reshape(-1)
        del source  # freed here, not at return, so it is never held with the state
        self.state = np.zeros((2, n, B))
        # rows 0 and h, amplitudes 0 and 1 (the origin at active coin 0 and 1), hold
        # each walk's flip's first column, as initial_state writes it
        first = {flip: flip.matrix()[:, 0] for flip in FlipOperator}
        self.state[:, ::h] = np.array([first[f] for f in flips]).view(np.float64).reshape(B, 2, 2).T
        self.coined = np.empty((2, n, B))
        # two (n/2, B) blocks of step scratch, which the readout reuses as (n, B)
        scratch = np.empty((2, h, B))
        # cr[a, c] and ci[a, c]: real and imaginary part of coin entry (a, c), tiled
        entries = matrices.view(np.float64).reshape(B, 2, 2, 2).transpose(3, 1, 2, 0)
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
        # the readout's weights reuse the step scratch, free after the take
        self.weights = scratch.reshape(n, B)
        self.readout = self._readout(self.weights)

    @staticmethod
    def nbytes(P: int, kappa: int, B: int) -> int:
        """Bytes a sweep holds while it steps and reads out a batch of B walks on (P, kappa).

        Per walk, 76 per amplitude (state and coin output 16 each, scratch 8,
        tiled coin entries 32, one mode's marginal sum 4) and 64: its coin matrix
        until the batch is built, then the readout's (B,) peaks, masks and indices;
        per batch, the step's row index, 8 per amplitude, and 16 KiB of Python objects.
        """
        n = WalkConfig(P=P, kappa=kappa, T=0).dim
        return (76 * n + 64) * B + 8 * n + 16384

    def step(self) -> None:
        """One coin toss, shift and memory rotation of every walk."""
        for ufunc, x, y, out in self.ops:
            ufunc(x, y, out)
        # mode="raise" would buffer `out`; the source rows are all in range
        np.take(self.coined, self.source, axis=1, out=self.state, mode="clip")

    def _readout(self, weights: np.ndarray) -> np.ndarray:
        """(n, k) weights in state rows as `marginal`'s (P, 2**(kappa-1), 2, k) view."""
        return np.moveaxis(weights.reshape(2, self.config.P, -1, weights.shape[1]), 0, 2)

    def peaks(self, modes: tuple[MeasurementMode, ...], walks: np.ndarray) -> list[np.ndarray]:
        """Largest outcome probability of each of `modes` for walks `walks`, one array per mode.

        The walks' planes go through a complex buffer, which shares memory with
        the coin output, for the complex `np.abs` of :func:`distribution`.
        """
        n, k = self.config.dim, len(walks)
        interleaved = self.coined.reshape(-1)[:2 * n * k].view(np.complex128).reshape(n, k)
        abs2 = self.weights.reshape(-1)[:n * k].reshape(n, k)
        for plane, part in zip(self.state, (interleaved.real, interleaved.imag)):
            np.take(plane, walks, axis=1, out=abs2, mode="clip")
            np.copyto(part, abs2)
        np.abs(interleaved, out=abs2)
        np.square(abs2, out=abs2)
        readout = self._readout(abs2)
        return [_mode_peaks(abs2, readout, mode) for mode in modes]

    def least(self, modes: tuple[MeasurementMode, ...],
              bounds: list[float]) -> list[tuple[float, int] | None]:
        """Each mode's smallest peak and the first walk reaching it, or None.

        None says that no walk's peak can be at most the mode's bound; then
        no exact peak of that mode is taken.
        """
        # approximate weights re*re + im*im, squared in the coin output buffer
        np.square(self.state, out=self.coined)
        np.add(*self.coined, out=self.weights)
        live, wanted = [], False
        for m, (mode, bound) in enumerate(zip(modes, bounds)):
            rough = _mode_peaks(self.weights, self.readout, mode)
            low = np.minimum.reduce(rough)
            if low * (1 - self.delta) <= bound:
                live.append(m)
                wanted = wanted | (rough <= low * (1 + self.delta))
        found: list[tuple[float, int] | None] = [None] * len(modes)
        if live:
            walks = np.flatnonzero(wanted)
            # a walk wanted only for another mode peaks above this mode's minimum
            for m, peaks in zip(live, self.peaks(tuple(modes[m] for m in live), walks)):
                i = int(np.argmin(peaks))
                found[m] = (float(peaks[i]), int(walks[i]))
        return found


def _mode_peaks(weights: np.ndarray, readout: np.ndarray, mode: MeasurementMode) -> np.ndarray:
    """Each walk's largest outcome probability of `mode` from (n, k) weights in `BatchWalk` rows.

    `readout` is the weights' `marginal`-shaped view.
    """
    if mode is not MeasurementMode.ALL:  # a max is exact in any order, so ALL reads the rows
        weights = marginal(readout, mode).reshape(-1, weights.shape[1])
    return np.maximum.reduce(weights, axis=0)


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
