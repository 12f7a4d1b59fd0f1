"""End-to-end protocol runs: sample signals, test a random subset, hash the rest.

The source emits N copies of the configured walker state; each copy is
independently depolarized with probability Q.  A random size-m subset is
measured with the two-outcome honest-state test, the remaining n = N - m
signals are measured in the extraction mode, and the resulting digit
string is compressed by a seeded binary Toeplitz matrix to the output
length that the observed test weight certifies.

All randomness flows from one 64-bit seed through fixed, numbered
Philox streams (see _stream); renumbering them would silently change
every seeded run, so the layout is part of the file-format contract.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from qwrng.maxprob import gamma_from_g
from qwrng.rates import ProtocolCase, ProtocolParams, RateResult, pa_margin, rate_for_mode
from qwrng.walk import MeasurementMode, WalkConfig, distribution, evolve

# stream numbers: depolarization mask, test outcomes, honest extraction
# draws, depolarized extraction draws, subset choice, hash seed
_S_DEPOLARIZE, _S_TEST, _S_HONEST, _S_MIXED, _S_SUBSET, _S_HASH = range(6)

# t_subset is written out in full below this size and digested above it
SUBSET_INLINE_LIMIT = 10_000


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(which,))))


@dataclass(frozen=True)
class SourceModel:
    """Signal source: honest walker states, each depolarized with probability Q."""

    config: WalkConfig
    Q: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.Q <= 1.0:
            raise ValueError("depolarization weight Q must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError("run seed must be a non-negative integer")


def sample_outcomes(
    source: SourceModel, N: int, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-signal results for both roles a signal can play.

    `probs` is the honest walk's outcome distribution under the
    extraction measurement; the caller evolves the walk once and passes
    it in.  Returns (digits, test_bits).  digits[i] is the outcome, in
    0..len(probs)-1, that signal i would give under that measurement;
    test_bits[i] is what the honest-state test would return on it.
    Honest signals pass the test with certainty and draw from `probs`;
    depolarized ones fail the test with probability 1 - 1/(2**kappa P),
    the maximally mixed state's overlap, and extract uniformly.  Fully
    deterministic given the source seed.
    """
    if N < 2:
        raise ValueError("need at least two signals")
    cfg = source.config
    d = probs.shape[0]
    seed = source.rng_seed

    depolarized = _stream(seed, _S_DEPOLARIZE).random(N) < source.Q
    test_bits = depolarized & (
        _stream(seed, _S_TEST).random(N) < 1.0 - 1.0 / cfg.dim
    )
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard accumulated rounding so every draw lands
    honest = np.searchsorted(cdf, _stream(seed, _S_HONEST).random(N), side="right")
    mixed = _stream(seed, _S_MIXED).integers(0, d, size=N)
    digits = np.where(depolarized, mixed, honest).astype(np.int64)
    return digits, test_bits.astype(np.uint8)


def digit_width(d: int) -> int:
    """Bits per encoded digit: fixed width ceil(log2 d)."""
    if d < 2:
        raise ValueError("alphabet size d must be at least 2")
    return (d - 1).bit_length()


def encode_digits(digits: np.ndarray, d: int) -> np.ndarray:
    """Big-endian fixed-width bit encoding of a digit string over 0..d-1."""
    digits = np.asarray(digits, dtype=np.int64)
    if digits.size and (digits.min() < 0 or digits.max() >= d):
        raise ValueError("digit outside the alphabet")
    shifts = np.arange(digit_width(d) - 1, -1, -1, dtype=np.int64)
    return ((digits[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def toeplitz_seed_bits(seed: int, ell: int, length: int) -> np.ndarray:
    """Seed bit string s defining the hash matrix T[i, j] = s[i - j + length - 1].

    ell + length - 1 bits drawn from a Philox generator keyed by the
    seed alone; the matrix is public once chosen.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.integers(0, 2, size=ell + length - 1, dtype=np.uint8)


def _smooth_len(n: int) -> int:
    """Smallest 5-smooth integer >= n.

    numpy's FFT is fast only at lengths with small prime factors; a
    large prime factor in the length can make a transform over ten
    times slower.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_counts(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integer counts sum_j s[i - j + L - 1] x[j] for i < len(s) - L + 1, L = len(x).

    One cyclic float64 convolution of length M >= ell + L - 1 = len(s):
    output i < ell reads s[i - j + L - 1] for 0 <= j < L, an index in
    [0, ell + L - 1), so no wrapped term reaches the ell outputs kept.
    They are rounded back to exact bit counts.
    """
    L = x.shape[0]
    M = _smooth_len(s.shape[0])
    spectrum = np.fft.rfft(s.astype(np.float64), M)
    spectrum *= np.fft.rfft(x.astype(np.float64), M)
    counts = np.fft.irfft(spectrum, M)[L - 1 : s.shape[0]]
    rounded = np.rint(counts)
    # entries are exact bit counts; a residual near 0.5 would mean the
    # float path lost them
    if np.abs(counts - rounded).max() > 1e-2:
        raise FloatingPointError("convolution residual too large for exact bit counts")
    return rounded.astype(np.int64)


def privacy_amplify(raw: np.ndarray, ell: int, seed: int, *, d: int) -> np.ndarray:
    """Hash raw digits down to ell bits with a seeded binary Toeplitz matrix.

    The digits are encoded to a bit string x of length L (fixed width
    per digit), and output bit i is xor_j T[i, j] x_j with
    T[i, j] = s[i - j + L - 1] over the seed bits s.  The Toeplitz
    family is two-universal, and the map is linear over GF(2).  Only
    the ell outputs are computed, as the middle of the convolution of
    s with x: one float64 cyclic FFT of 5-smooth length
    M >= ell + L - 1, which no wrapped term reaches, rounded back to
    integers.
    """
    if ell < 0:
        raise ValueError("output length cannot be negative")
    bits = encode_digits(raw, d)
    L = bits.shape[0]
    if ell > L:
        raise ValueError(f"cannot stretch {L} input bits to {ell} output bits")
    if ell == 0:
        return np.zeros(0, dtype=np.uint8)
    s = toeplitz_seed_bits(seed, ell, L)
    return (_toeplitz_counts(s, bits) & 1).astype(np.uint8)


@dataclass(frozen=True)
class RunRecord:
    """Everything one protocol run produced, enough to replay or audit it."""

    case: ProtocolCase
    config: WalkConfig
    source_Q: float
    rng_seed: int
    params: ProtocolParams
    t_subset: np.ndarray  # sorted test indices, size m
    q: np.ndarray  # test outcomes on t_subset, 1 = failed the honest test
    w_q: float
    gamma: float
    delta: float
    ell: float
    rate: float
    aborted: bool
    raw: np.ndarray  # extraction digits, size N - m
    output: np.ndarray  # hashed bits, size floor(max(0, ell))
    seed_matrix_id: int

    def output_bytes(self) -> bytes:
        """Output bits packed big-endian, zero-padded to a whole byte."""
        return np.packbits(self.output).tobytes() if self.output.size else b""

    def write_output_bits(self, path) -> None:
        """Raw binary dump for external statistical test suites."""
        with open(path, "wb") as fh:
            fh.write(self.output_bytes())

    def summary_items(self) -> list[tuple[str, str]]:
        cfg = self.config
        if len(self.t_subset) > SUBSET_INLINE_LIMIT:
            subset = _digest(",".join(map(str, self.t_subset)))
        else:
            subset = ",".join(map(str, self.t_subset))
        return [
            ("case", self.case.value),
            ("P", str(cfg.P)),
            ("kappa", str(cfg.kappa)),
            ("T", str(cfg.T)),
            ("coin", cfg.coin.kind),
            ("theta", repr(cfg.coin.theta)),
            ("phi", repr(cfg.coin.phi)),
            ("flip", cfg.flip.name),
            ("Q", repr(self.source_Q)),
            ("rng_seed", str(self.rng_seed)),
            ("N", str(self.params.N)),
            ("m", str(self.params.m)),
            ("epsilon", repr(self.params.epsilon)),
            ("epsilon_pa", repr(self.params.epsilon_pa)),
            ("beta", repr(self.params.beta)),
            ("t_subset", subset),
            ("q_digest", _digest("".join(map(str, self.q)))),
            ("w_q", repr(self.w_q)),
            ("gamma", repr(self.gamma)),
            ("delta", repr(self.delta)),
            ("ell", repr(self.ell)),
            ("rate", repr(self.rate)),
            ("aborted", str(self.aborted).lower()),
            ("output_bits", str(int(self.output.size))),
            ("seed_matrix_id", str(self.seed_matrix_id)),
            ("output_hex", self.output_bytes().hex()),
        ]

    def to_text(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.summary_items())

    def to_json_dict(self) -> dict:
        return dict(self.summary_items())


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


def run_protocol(
    source: SourceModel,
    params: ProtocolParams,
    case: MeasurementMode,
    gamma: float | None = None,
) -> RunRecord:
    """One full run: sample, test a random m-subset, hash the remainder.

    gamma defaults to the per-signal min-entropy of the configured walk
    in this mode; pass a sweep optimum to model the tuned protocol.  The
    output length always comes from the observed test weight, never the
    configured Q, and a non-positive length aborts the run with an empty
    output.
    """
    if case is MeasurementMode.ALL:
        pa_margin(params)  # fails before the sampling run, not after it
    cfg = source.config
    probs = distribution(evolve(cfg), case).probs
    if gamma is None:
        gamma = gamma_from_g(float(probs.max()))

    N, m = params.N, params.m
    digits, test_bits = sample_outcomes(source, N, probs)
    t_subset = np.sort(_stream(source.rng_seed, _S_SUBSET).choice(N, size=m, replace=False))
    q = test_bits[t_subset]
    w_q = float(q.mean())
    keep = np.ones(N, dtype=bool)
    keep[t_subset] = False
    raw = digits[keep]

    observed = replace(params, Q=w_q)
    rr: RateResult = rate_for_mode(observed, gamma, cfg.P, cfg.kappa, case)
    aborted = rr.ell <= 0.0
    ell_bits = 0 if aborted else math.floor(rr.ell)
    seed_matrix_id = int(_stream(source.rng_seed, _S_HASH).integers(0, 2**63, dtype=np.int64))
    if aborted:
        output = np.zeros(0, dtype=np.uint8)
    else:
        output = privacy_amplify(raw, ell_bits, seed_matrix_id, d=probs.shape[0])
    return RunRecord(
        case=rr.case,
        config=cfg,
        source_Q=source.Q,
        rng_seed=source.rng_seed,
        params=params,
        t_subset=t_subset,
        q=q,
        w_q=w_q,
        gamma=gamma,
        delta=rr.delta,
        ell=rr.ell,
        rate=rr.rate,
        aborted=aborted,
        raw=raw,
        output=output,
        seed_matrix_id=seed_matrix_id,
    )


__all__ = [
    "SourceModel",
    "RunRecord",
    "SUBSET_INLINE_LIMIT",
    "sample_outcomes",
    "run_protocol",
    "privacy_amplify",
    "toeplitz_seed_bits",
    "digit_width",
    "encode_digits",
]
