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

from qwrng.rates import ProtocolCase, ProtocolParams, gamma_from_g, pa_margin, rate_for_mode
from qwrng.walk import MeasurementMode, WalkConfig, distribution, evolve

# stream numbers: depolarization mask, test outcomes, honest extraction
# draws, depolarized extraction draws, subset choice, hash seed
_S_DEPOLARIZE, _S_TEST, _S_HONEST, _S_MIXED, _S_SUBSET, _S_HASH = range(6)

# t_subset is written out in full below this size and digested above it
_SUBSET_INLINE_LIMIT = 10_000

# signals sampled per pass; any size gives the same bits
_SAMPLE_CHUNK = 1 << 16

# bytes the hash's FFT working set may hold (_fft_working_set); the hash
# picks its tile sizes to fit
_FFT_BUDGET = 27 << 25  # 864 MiB

# rows the four-step transform twiddles and transforms at a time; a
# block of 16 rows of a few thousand bins stays in L2
_ROW_BLOCK = 16

# columns of dst that _copy_transposed copies at a time
_TILE = 512

# what a transform costs beyond its points (the call, encoding and staging
# an input block), in points, so that many tiny tiles never look cheapest
_CALL_POINTS = 1 << 10


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
    deterministic given the source seed.  The draws are made
    _SAMPLE_CHUNK signals at a time into preallocated outputs; chunked
    float and integer draws continue each Philox stream exactly where a
    single draw of N would, so the chunk size changes no bit.
    """
    if N < 2:
        raise ValueError("need at least two signals")
    cfg = source.config
    d = probs.shape[0]
    depolarize, test, honest, mixed = (
        _stream(source.rng_seed, which) for which in (_S_DEPOLARIZE, _S_TEST, _S_HONEST, _S_MIXED)
    )
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard accumulated rounding so every draw lands
    digits = np.empty(N, dtype=np.min_scalar_type(d - 1))
    test_bits = np.empty(N, dtype=np.uint8)
    draws = np.empty(min(N, _SAMPLE_CHUNK))
    for c0 in range(0, N, _SAMPLE_CHUNK):
        u = draws[: min(N - c0, _SAMPLE_CHUNK)]
        c1 = c0 + u.shape[0]
        depolarized = depolarize.random(out=u) < source.Q
        test_bits[c0:c1] = depolarized & (test.random(out=u) < 1.0 - 1.0 / cfg.dim)
        honest_digits = np.searchsorted(cdf, honest.random(out=u), side="right")
        digits[c0:c1] = np.where(depolarized, mixed.integers(0, d, size=u.shape[0]), honest_digits)
    return digits, test_bits


def digit_width(d: int) -> int:
    """Bits per encoded digit: fixed width ceil(log2 d)."""
    if d < 2:
        raise ValueError("alphabet size d must be at least 2")
    return (d - 1).bit_length()


def _checked_digits(digits: np.ndarray, d: int) -> np.ndarray:
    digits = np.asarray(digits)
    if digits.size and (digits.min() < 0 or digits.max() >= d):
        raise ValueError("digit outside the alphabet")
    return digits


def encode_digits(digits: np.ndarray, d: int) -> np.ndarray:
    """Big-endian fixed-width bit encoding of a digit string over 0..d-1."""
    digits = _checked_digits(digits, d)
    w = digit_width(d)
    # row v holds the w bits of v, so encoding is one gather
    table = ((np.arange(d)[:, None] >> np.arange(w - 1, -1, -1)) & 1).astype(np.uint8)
    return table[digits].reshape(-1)


def run_bytes(N: int, m: int, d: int) -> int:
    """Bytes a run of N signals, m of them tested, over d outcomes holds at most.

    Its O(N) arrays (digits, test bits, np.delete's kept-signal mask, the
    kept digits, ell + L - 1 seed bits and the ell output bits, with
    ell <= L = (N - m) ceil(log2 d)) plus the hash's working set.  Every
    hash plan has b_o <= ell <= L and b_i <= L, so that set is at most
    _FFT_BUDGET and one untiled tile's, which holds that tile's M bytes.
    """
    digit = np.min_scalar_type(d - 1).itemsize
    L = (N - m) * digit_width(d)
    M = _smooth_len(2 * L - 1)
    fft = _FFT_BUDGET if M >= _FFT_BUDGET else min(_FFT_BUDGET, _fft_working_set(M, L))
    return N * digit + 2 * N + (N - m) * digit + 3 * L + fft


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


def _root_divisor(n: int) -> int:
    """The largest divisor of n that is at most sqrt(n)."""
    r = math.isqrt(n)
    while n % r:
        r -= 1
    return r


class _RealFFT:
    """Real DFT of length M by Bailey's four-step method.

    With M = M1 M2, M1 = _root_divisor(M), a real x is viewed as the
    (M1, M2) array x[n1 M2 + n2], rfft-ed along axis 0, multiplied by
    W^(k1 n2) with W = exp(-2 pi i / M), and fft-ed along axis 1.  Entry
    (k1, k2) of the (M1 // 2 + 1, M2) spectrum is DFT bin k1 + M1 k2, so
    the spectrum holds one bin of every Hermitian pair: a product of two
    spectra is the spectrum of the cyclic convolution of their inputs,
    and a sum of them is the spectrum of the sum.  Every sub-transform
    has about sqrt(M) points and stays in cache, where one 1-D transform
    of length M streams the whole array through every radix pass.  The
    twiddles, with n2 = a + A b, are the product of two tables,
    W^(k1 a) and W^(k1 A b), applied to _ROW_BLOCK rows at a time.

    `forward` runs every transform along contiguous rows.  It copies x
    transposed, a block of columns at a time, into a small block buffer
    and rfft-s its rows into the (M2, M1 // 2 + 1) array it owns.  Then
    it copies each _ROW_BLOCK spectrum rows back out of that array into
    the block buffer, twiddles and fft-s them there, and stores them in
    the output or multiplies them into it, so a product of spectra needs
    no third spectrum.  `inverse` runs the steps backwards in place on
    the spectrum, with the rfft's inverse down axis 0.
    """

    def __init__(self, M: int):
        self.M1, self.M2, A = _four_step_split(M)
        rows = self.M1 // 2 + 1
        self.shape = (rows, self.M2)
        k1 = np.arange(rows)[:, None]
        w = -2j * np.pi / M
        self._lo = np.exp(w * (k1 * np.arange(A)))[:, None, :]
        self._hi = np.exp(w * (k1 * np.arange(0, self.M2, A)))[:, :, None]
        self._split = (self.M2 // A, A)  # a row as n2 = a + A b, for the twiddles
        self._cols = np.empty((self.M2, rows), dtype=np.complex128)
        self._block = np.empty((min(_ROW_BLOCK, rows), self.M2), dtype=np.complex128)

    def forward(
        self, x: np.ndarray, out: np.ndarray, factor: np.ndarray | None = None, add: bool = False
    ) -> np.ndarray:
        """Stream the spectrum X of the M reals x into out, of shape self.shape.

        out becomes X; given a factor of that shape, which may be out
        itself, it becomes factor * X, or with add set, out + factor * X.
        """
        M1, M2 = self.M1, self.M2
        x = x.reshape(M1, M2)
        # the column blocks fill the row-block buffer, read as floats
        real = self._block.reshape(-1).view(np.float64)
        step = min(M2, real.shape[0] // M1)
        for c0 in range(0, M2, step):
            cols = real[: min(step, M2 - c0) * M1].reshape(-1, M1)
            _copy_transposed(cols, x[:, c0 : c0 + step])
            np.fft.rfft(cols, axis=1, out=self._cols[c0 : c0 + step])
        for r0 in range(0, self.shape[0], _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, self.shape[0])
            block = self._block[: r1 - r0]
            _copy_transposed(block, self._cols[:, r0:r1])
            twiddled = block.reshape(r1 - r0, *self._split)
            twiddled *= self._hi[r0:r1]
            twiddled *= self._lo[r0:r1]
            if factor is None:
                np.fft.fft(block, axis=1, out=out[r0:r1])
                continue
            np.fft.fft(block, axis=1, out=block)
            if add:
                out[r0:r1] += np.multiply(factor[r0:r1], block, out=block)
            else:
                np.multiply(factor[r0:r1], block, out=out[r0:r1])
        return out

    def inverse(self, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The M floats whose spectrum is spec, written into out; spec is overwritten."""
        for r0 in range(0, self.shape[0], _ROW_BLOCK):
            rows = spec[r0 : r0 + _ROW_BLOCK]
            twiddled = rows.reshape(rows.shape[0], *self._split)
            np.fft.ifft(rows, axis=1, out=rows)
            twiddled *= self._lo[r0 : r0 + _ROW_BLOCK].conj()
            twiddled *= self._hi[r0 : r0 + _ROW_BLOCK].conj()
        return np.fft.irfft(spec, self.M1, axis=0, out=out.reshape(self.M1, self.M2)).reshape(-1)


def _copy_transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src.T, _TILE columns of dst at a time.

    A tile's strided reads touch _TILE rows of src, few enough to stay
    in cache while every row of dst reads them; an untiled copy of a few
    thousand rows evicts each line before the next row of dst comes back
    to it.
    """
    for c0 in range(0, dst.shape[1], _TILE):
        np.copyto(dst[:, c0 : c0 + _TILE], src[c0 : c0 + _TILE].T)


def _four_step_split(M: int) -> tuple[int, int, int]:
    """(M1, M2, A) of _RealFFT(M): M = M1 M2, and A divides M2."""
    M1 = _root_divisor(M)
    return M1, M // M1, _root_divisor(M // M1)


def _fft_working_set(M: int, b_i: int) -> int:
    """Bytes one tile pass of the hash holds at its peak.

    Two _RealFFT(M) spectra of (M1 // 2 + 1, M2) complex bins (the
    running sum and a seed segment's; the inverse writes into the
    second), the transform's own (M2, M1 // 2 + 1) first-pass array,
    its _ROW_BLOCK-row block buffer and two twiddle tables, the M-byte
    stage that feeds each transform, and an input block's bits, charged
    twice for encode_digits' gather buffers.
    """
    M1, M2, A = _four_step_split(M)
    rows = M1 // 2 + 1
    bins = rows * (3 * M2 + A + M2 // A) + min(_ROW_BLOCK, rows) * M2
    return 16 * bins + M + 2 * b_i


def _hash_plan(ell: int, L: int) -> tuple[int, int]:
    """Output and input block sizes (b_o, b_i) of the tiled hash.

    With n_out = ceil(ell / b_o) output blocks and n_in = ceil(L / b_i)
    input blocks, each output block transforms every input block and its
    seed segment and inverts their summed products once:
    n_out (2 n_in + 1) transforms of length M = smooth(b_o + b_i - 1).
    Of the splits whose working set fits _FFT_BUDGET, this returns the
    cheapest, a transform costing M + _CALL_POINTS points, and the first
    in (n_out, n_in) order on a tie.
    """

    def fits(n_out: int, n_in: int) -> bool:
        b_i = -(-L // n_in)
        return _fft_working_set(_smooth_len(-(-ell // n_out) + b_i - 1), b_i) <= _FFT_BUDGET

    best: tuple[int, int, int] | None = None
    # a split costs more than 2 n_out L, since (2 n_in + 1) b_i > 2 L
    for n_out in range(1, ell + 1):
        if best is not None and 2 * n_out * L >= best[0]:
            break
        if not fits(n_out, L):
            continue
        b_o = -(-ell // n_out)
        n_in = 1  # the working set shrinks as n_in grows, and n_in = L fits
        while not fits(n_out, n_in):
            n_in += 1
        while n_in <= L:
            b_i = -(-L // n_in)
            # a lower bound on this split's cost that grows with n_in
            bound = n_out * ((2 * n_in + 1) * (b_o - 1 + _CALL_POINTS) + 2 * L)
            if best is not None and bound >= best[0]:
                break
            cost = n_out * (2 * n_in + 1) * (_smooth_len(b_o + b_i - 1) + _CALL_POINTS)
            if best is None or cost < best[0]:
                best = (cost, b_o, b_i)
            n_in += 1
    if best is None:
        raise MemoryError("the hash does not fit its FFT memory budget")
    return best[1], best[2]


def _toeplitz_parity(s: np.ndarray, raw: np.ndarray, d: int) -> np.ndarray:
    """Parities of sum_j s[i - j + L - 1] x[j] for i < len(s) - L + 1, x = encode_digits(raw, d).

    The middle product is tiled by _hash_plan.  Output block [i0, i1)
    and input block [j0, j1) read the seed segment
    s[L - j1 + i0 : i1 - j0 + L - 1].  A ragged last block is padded
    with zeros (a zero input bit, or a seed bit outside s), so every
    tile is b_o by b_i and keeps the slice [b_i - 1, b_i - 1 + b_o) of
    a cyclic convolution of length M >= b_o + b_i - 1, which no wrapped
    term reaches.  Every transform is a _RealFFT of length M, fed from
    one M-byte stage.  An output block sums its tiles' spectra, each
    input block's streamed into the sum as it is made, and inverts once;
    its counts, at most L, are rounded back to exact integers.
    Each input block is encoded from its own digits, so the L-bit string
    never exists.
    """
    w = digit_width(d)
    L = raw.shape[0] * w
    ell = s.shape[0] - L + 1
    b_o, b_i = _hash_plan(ell, L)
    M = _smooth_len(b_o + b_i - 1)
    fft = _RealFFT(M)
    acc, seg = (np.empty(fft.shape, dtype=np.complex128) for _ in range(2))
    stage = np.empty(M, dtype=np.uint8)
    out = np.empty(ell, dtype=np.uint8)
    for i0 in range(0, ell, b_o):
        n = min(b_o, ell - i0)
        for j0 in range(0, L, b_i):
            lo = L - j0 - b_i + i0
            hi = min(i0 + b_o - j0 + L - 1, s.shape[0])
            # lo < 0 only under a ragged input block: the seed bits before s
            # meet only its zero padding, and are zeroed so that no stale
            # byte enters the spectrum
            pad = max(0, -lo)
            stage[:pad] = 0
            stage[pad : hi - lo] = s[lo + pad : hi]
            stage[hi - lo :] = 0
            # the first seed segment's spectrum starts the running sum, and
            # its block's is multiplied in; later ones add seg times theirs
            first = j0 == 0
            fft.forward(stage, acc if first else seg)
            j1 = min(j0 + b_i, L)
            stage[: j1 - j0] = encode_digits(raw[j0 // w : -(-j1 // w)], d)[j0 % w :][: j1 - j0]
            stage[j1 - j0 :] = 0
            fft.forward(stage, acc, factor=acc if first else seg, add=not first)
        counts = fft.inverse(acc, seg.reshape(-1).view(np.float64)[:M])[b_i - 1 : b_i - 1 + n]
        rounded = np.rint(counts, out=acc.reshape(-1).view(np.float64)[:n])
        # entries are exact bit counts; a residual near 0.5 would mean the
        # float path lost them
        residual = np.abs(np.subtract(counts, rounded, out=counts), out=counts)
        if residual.max() > 1e-2:
            raise FloatingPointError("convolution residual too large for exact bit counts")
        # a count is odd when half of it is not a whole number; np.remainder
        # gives the same bits at about seven times the cost
        half = np.multiply(rounded, 0.5, out=rounded)
        np.not_equal(half, np.floor(half, out=counts), out=out[i0 : i0 + n])
    return out


def privacy_amplify(raw: np.ndarray, ell: int, seed: int, *, d: int) -> np.ndarray:
    """Hash raw digits down to ell bits with a seeded binary Toeplitz matrix.

    The digits are encoded to a bit string x of length L (fixed width
    per digit), and output bit i is xor_j T[i, j] x_j with
    T[i, j] = s[i - j + L - 1] over the seed bits s.  The Toeplitz
    family is two-universal, and the map is linear over GF(2).  Only
    the ell outputs are computed, as the middle of the convolution of
    s with x, in float64 FFT tiles whose working set fits _FFT_BUDGET;
    the counts are exact integers, so the bits do not depend on the
    tiling.
    """
    if ell < 0:
        raise ValueError("output length cannot be negative")
    raw = _checked_digits(raw, d)
    L = raw.shape[0] * digit_width(d)
    if ell > L:
        raise ValueError(f"cannot stretch {L} input bits to {ell} output bits")
    if ell == 0:
        return np.zeros(0, dtype=np.uint8)
    return _toeplitz_parity(toeplitz_seed_bits(seed, ell, L), raw, d)


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
        return np.packbits(self.output).tobytes()

    def summary_items(self) -> list[tuple[str, str]]:
        cfg = self.config
        if len(self.t_subset) > _SUBSET_INLINE_LIMIT:
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
    raw = np.delete(digits, t_subset)
    del digits, test_bits  # only raw and q are read from here on

    observed = replace(params, Q=w_q)
    rr = rate_for_mode(observed, gamma, cfg.P, cfg.kappa, case)
    aborted = rr.ell <= 0.0
    ell_bits = 0 if aborted else math.floor(rr.ell)
    seed_matrix_id = int(_stream(source.rng_seed, _S_HASH).integers(0, 2**63, dtype=np.int64))
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
