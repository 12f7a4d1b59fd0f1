import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it on first use; do so before any trace
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrng import pipeline
from qwrng.maxprob import g_functions, SweepGrid
from qwrng.pipeline import (
    RunRecord,
    SourceModel,
    digit_width,
    encode_digits,
    privacy_amplify,
    run_protocol,
    sample_outcomes,
    toeplitz_seed_bits,
)
from qwrng.rates import ProtocolCase, ProtocolParams, ell_memory_case, gamma_from_g
from qwrng.walk import MeasurementMode, WalkConfig, distribution, evolve

ALL = MeasurementMode.ALL
POS = MeasurementMode.POSITION_ONLY


def source(P=5, kappa=1, T=8, Q=0.0, seed=12345):
    return SourceModel(config=WalkConfig(P=P, kappa=kappa, T=T), Q=Q, rng_seed=seed)


def sample(src, N, mode):
    """Sample the source's own walk distribution in `mode`."""
    return sample_outcomes(src, N, distribution(evolve(src.config), mode).probs)


# -- digit codec ---------------------------------------------------------------

def test_digit_width_is_ceil_log2():
    assert [digit_width(d) for d in (2, 3, 4, 5, 8, 9, 10, 12)] == [1, 2, 2, 3, 3, 4, 4, 4]


def test_encoding_is_big_endian_fixed_width():
    np.testing.assert_array_equal(encode_digits(np.array([5]), 10), [0, 1, 0, 1])
    np.testing.assert_array_equal(encode_digits(np.array([1, 2]), 3), [0, 1, 1, 0])


def test_encoding_rejects_out_of_alphabet_digits():
    with pytest.raises(ValueError):
        encode_digits(np.array([10]), 10)
    with pytest.raises(ValueError):
        encode_digits(np.array([-1]), 10)
    with pytest.raises(ValueError, match="alphabet size d must be at least 2"):
        digit_width(1)


@given(
    d=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 200),
)
@settings(max_examples=100)
def test_digit_codec_roundtrip(d, seed, n):
    digits = np.random.default_rng(seed).integers(0, d, size=n)
    w = digit_width(d)
    bits = encode_digits(digits, d)
    assert bits.shape[0] == n * w
    text = "".join(map(str, bits))
    assert text == "".join(np.binary_repr(int(x), width=w) for x in digits)


# -- source sampling -----------------------------------------------------------

def test_honest_source_never_fails_the_test():
    digits, test_bits = sample(source(Q=0.0), 5000, ALL)
    assert test_bits.sum() == 0
    assert digits.shape == (5000,)


def test_depolarized_source_fails_at_the_mixed_state_rate():
    # fully depolarized two-coin walker on P=3: failure rate 1 - 1/12
    src = SourceModel(config=WalkConfig(P=3, kappa=2, T=4), Q=1.0, rng_seed=7)
    N = 100_000
    _, test_bits = sample(src, N, ALL)
    p = 1.0 - 1.0 / 12.0
    sigma = math.sqrt(p * (1 - p) / N)
    assert abs(test_bits.mean() - p) < 3 * sigma


def test_honest_extraction_follows_the_walk_distribution():
    src = source(P=5, kappa=1, T=1, seed=99)
    N = 100_000
    digits, _ = sample(src, N, ALL)
    probs = distribution(evolve(src.config), ALL).probs
    counts = np.bincount(digits, minlength=10)
    support = probs > 0
    assert not counts[~support].any()
    chi2 = (((counts[support] - N * probs[support]) ** 2) / (N * probs[support])).sum()
    # seeded run; generous bound around the support-size degrees of freedom
    assert chi2 < 10 * support.sum()


def test_depolarized_extraction_covers_the_whole_alphabet():
    src = SourceModel(config=WalkConfig(P=3, kappa=2, T=0), Q=1.0, rng_seed=3)
    digits, _ = sample(src, 50_000, ALL)
    assert np.bincount(digits, minlength=12).min() > 0


def test_sampling_is_reproducible():
    a = sample(source(seed=42), 1000, POS)
    b = sample(source(seed=42), 1000, POS)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = sample(source(seed=43), 1000, POS)
    assert (a[0] != c[0]).any()


def test_sampling_draws_from_the_given_distribution():
    probs = np.zeros(40)
    probs[3] = 1.0
    digits, _ = sample_outcomes(source(P=5, kappa=3, T=137), 1000, probs)
    assert (digits == 3).all()


def test_sampling_needs_two_signals():
    with pytest.raises(ValueError):
        sample(source(), 1, ALL)
    with pytest.raises(ValueError):
        SourceModel(config=WalkConfig(P=3, kappa=1, T=0), Q=1.5)
    with pytest.raises(ValueError, match="run seed must be a non-negative integer"):
        SourceModel(config=WalkConfig(P=3, kappa=1, T=0), rng_seed=-1)


def single_shot_sample(src, N, probs):
    """The sampling draws made in one call per stream, the layout chunking must keep."""
    seed, d = src.rng_seed, probs.shape[0]
    depolarized = pipeline._stream(seed, pipeline._S_DEPOLARIZE).random(N) < src.Q
    test_bits = depolarized & (
        pipeline._stream(seed, pipeline._S_TEST).random(N) < 1.0 - 1.0 / src.config.dim
    )
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = pipeline._stream(seed, pipeline._S_HONEST).random(N)
    honest = np.searchsorted(cdf, u, side="right")
    mixed = pipeline._stream(seed, pipeline._S_MIXED).integers(0, d, size=N)
    return np.where(depolarized, mixed, honest).astype(np.int64), test_bits.astype(np.uint8)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_sampling_reproduces_the_single_shot_streams(monkeypatch, chunk):
    # the stream layout is part of the file-format contract, so the chunk
    # size must not move a bit
    monkeypatch.setattr(pipeline, "_SAMPLE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for d in (2, 5, 300):
        probs = rng.random(d)
        probs /= probs.sum()
        for Q in (0.0, 0.3, 1.0):
            for N in (2, 7, 8, 1000):
                src = source(P=5, kappa=2, Q=Q, seed=int(rng.integers(0, 2**63)))
                digits, test_bits = sample_outcomes(src, N, probs)
                want_digits, want_bits = single_shot_sample(src, N, probs)
                assert digits.dtype == np.min_scalar_type(d - 1)
                np.testing.assert_array_equal(digits, want_digits)
                np.testing.assert_array_equal(test_bits, want_bits)
                assert test_bits.dtype == np.uint8


# -- Toeplitz hashing ----------------------------------------------------------

def toeplitz_matrix(seed, ell, length):
    """Dense reference matrix built directly from the seed-bit contract."""
    s = toeplitz_seed_bits(seed, ell, length)
    T = np.empty((ell, length), dtype=np.int64)
    for i in range(ell):
        for j in range(length):
            T[i, j] = s[i - j + length - 1]
    return T


def test_hash_matches_dense_gf2_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, 65))
        raw = rng.integers(0, d, size=n)
        L = n * digit_width(d)
        ell = int(rng.integers(0, L + 1))
        seed = int(rng.integers(0, 2**63))
        got = privacy_amplify(raw, ell, seed, d=d)
        expect = (toeplitz_matrix(seed, ell, L) @ encode_digits(raw, d)) % 2 if ell else np.zeros(0, np.int64)
        np.testing.assert_array_equal(got, expect)


def test_hash_is_linear_over_gf2():
    rng = np.random.default_rng(5)
    d, n, ell, seed = 2, 128, 32, 777
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    hx = privacy_amplify(x, ell, seed, d=d)
    hy = privacy_amplify(y, ell, seed, d=d)
    hxy = privacy_amplify(x ^ y, ell, seed, d=d)
    np.testing.assert_array_equal(hxy, hx ^ hy)


def test_hash_edge_cases():
    assert privacy_amplify(np.array([1, 0, 1]), 0, 9, d=2).size == 0
    out = privacy_amplify(np.zeros(64, dtype=int), 16, 9, d=4)
    np.testing.assert_array_equal(out, np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError):
        privacy_amplify(np.array([1, 0]), 3, 9, d=2)
    with pytest.raises(ValueError):
        privacy_amplify(np.array([1, 0]), -1, 9, d=2)


def test_fft_convolution_path_agrees_with_exact_path():
    # (L, ell): ell = 1 and ell = L, and seed lengths ell + L - 1 that
    # are 5-smooth (the FFT length equals them) or one above one
    cases = [(4096, 512), (1000, 1), (1001, 1), (500, 500), (513, 513), (600, 401), (600, 402)]
    rng = np.random.default_rng(11)
    for L, ell in cases:
        raw = rng.integers(0, 2, size=L)
        via_fft = privacy_amplify(raw, ell, 31337, d=2)
        s = toeplitz_seed_bits(31337, ell, L).astype(np.int64)
        exact = np.convolve(s, raw.astype(np.int64), mode="valid") & 1
        np.testing.assert_array_equal(via_fft, exact, err_msg=f"L={L} ell={ell}")
        dense = (toeplitz_matrix(31337, ell, L) @ raw) % 2
        np.testing.assert_array_equal(via_fft, dense, err_msg=f"L={L} ell={ell}")


# 3^12 and 5^8 have odd M1 (729, 625), wider than a _copy_transposed tile
@pytest.mark.parametrize("M", [1, 2, 3, 5, 9, 15, 45, 1024, 4500, 3**12, 5**8])
def test_four_step_transform_pair(M):
    fft = pipeline._RealFFT(M)
    assert fft.M1 * fft.M2 == M
    assert fft.M1 == max(k for k in range(1, math.isqrt(M) + 1) if M % k == 0)
    rng = np.random.default_rng(M)
    a, b = rng.integers(0, 2, size=(2, M))

    def spectrum(v, out=None, **kwargs):
        out = np.empty(fft.shape, dtype=np.complex128) if out is None else out
        return fft.forward(v, out, **kwargs)

    fa, fb = (spectrum(v.astype(np.float64)) for v in (a, b))
    # entry (k1, k2) is DFT bin k1 + M1 k2, wherever that bin is in rfft's half
    k = np.arange(fft.shape[0])[:, None] + fft.M1 * np.arange(fft.M2)
    half = k <= M // 2
    np.testing.assert_allclose(fa[half], np.fft.rfft(a)[k[half]], rtol=0, atol=1e-9)
    # the hash stages its bits as bytes
    np.testing.assert_array_equal(spectrum(a.astype(np.uint8)), fa)
    # the streamed product and sum are the separate ones, bit for bit
    np.testing.assert_array_equal(spectrum(b, factor=fa), fa * fb)
    running = fa.copy()
    np.testing.assert_array_equal(spectrum(b, out=running, factor=running), fa * fb)
    running = fb.copy()
    np.testing.assert_array_equal(spectrum(a, out=running, factor=fb, add=True), fb + fb * fa)
    # the product inverts to the exact integer cyclic convolution
    if M <= 4500:
        full = np.convolve(a, b)
        cyclic = full[:M] + np.append(full[M:], 0)
    else:  # np.convolve is quadratic; numpy's own transform rounds to the same integers
        cyclic = np.rint(np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), M))
    got = fft.inverse(fa * fb, np.empty(M))
    np.testing.assert_array_equal(np.rint(got), cyclic)


def tile_counts(ell, L):
    b_o, b_i = pipeline._hash_plan(ell, L)
    return -(-ell // b_o), -(-L // b_i)


def test_hash_plan_at_the_benchmark_size():
    # extract-1e7 hashes L = 29,990,514 bits to ell = 8,510,981: one output
    # block and two input blocks, within 2% of the FFT points of one
    # untiled transform set
    ell, L = 8_510_981, 29_990_514
    b_o, b_i = pipeline._hash_plan(ell, L)
    M = pipeline._smooth_len(b_o + b_i - 1)
    assert tile_counts(ell, L) == (1, 2)
    assert M == 23_592_960
    assert 5 * M <= 1.02 * 3 * pipeline._smooth_len(ell + L - 1)
    assert pipeline._fft_working_set(M, b_i) <= min(pipeline._FFT_BUDGET, 600 << 20)


def test_hash_plan_fits_the_budget_at_1e8_signals():
    # the seed-7 run of extract-1e7's walk at N = 1e8
    ell, L = 128_702_601, (10**8 - 10**4) * 3
    b_o, b_i = pipeline._hash_plan(ell, L)
    assert 0 < b_o <= ell and 0 < b_i <= L
    assert tile_counts(ell, L) == (7, 19)
    M = pipeline._smooth_len(b_o + b_i - 1)
    assert pipeline._fft_working_set(M, b_i) <= pipeline._FFT_BUDGET


@pytest.mark.parametrize("N", [100, 10**5, 10**7, 10**9, 10**12])
def test_run_charge_past_the_budget_is_the_factored_one(N):
    # an untiled set holds its M-byte stage, so skipping the factoring of
    # an M past the budget leaves the charge as it was
    m, d = math.isqrt(N), 20
    L = (N - m) * pipeline.digit_width(d)
    factored = pipeline._fft_working_set(pipeline._smooth_len(2 * L - 1), L)
    rest = pipeline.run_bytes(N, m, d) - min(pipeline._FFT_BUDGET, factored)
    assert rest == N + 2 * N + (N - m) + 3 * L


@pytest.mark.parametrize("ell", [1, 2, 100])
def test_hash_plan_keeps_few_tiles_at_small_output_lengths(ell):
    # a run just above abort hashes extract-1e7's L bits to a few outputs;
    # ranking splits by points alone would pick one-bit input tiles, about
    # 6e7 transforms at ell = 1
    L = 29_990_514
    n_out, n_in = tile_counts(ell, L)
    assert n_out == 1 and n_in <= 200, (ell, n_in)


def test_hash_plan_is_the_cheapest_split_that_fits(monkeypatch):
    monkeypatch.setattr(pipeline, "_FFT_BUDGET", 3000)
    for ell, L in [(1, 1), (1, 300), (40, 41), (90, 300), (300, 300), (17, 250)]:
        cheapest = None
        for n_out in range(1, ell + 1):
            for n_in in range(1, L + 1):
                b_o, b_i = -(-ell // n_out), -(-L // n_in)
                M = pipeline._smooth_len(b_o + b_i - 1)
                if pipeline._fft_working_set(M, b_i) <= pipeline._FFT_BUDGET:
                    cost = n_out * (2 * n_in + 1) * (M + pipeline._CALL_POINTS)
                    cheapest = cost if cheapest is None else min(cheapest, cost)
        b_o, b_i = pipeline._hash_plan(ell, L)
        n_out, n_in = tile_counts(ell, L)
        M = pipeline._smooth_len(b_o + b_i - 1)
        assert n_out * (2 * n_in + 1) * (M + pipeline._CALL_POINTS) == cheapest, (ell, L)


def test_hash_plan_reports_a_budget_nothing_fits(monkeypatch):
    monkeypatch.setattr(pipeline, "_FFT_BUDGET", 10)
    with pytest.raises(MemoryError):
        pipeline._hash_plan(5, 5)


@pytest.mark.parametrize("budget", [700, 2000, 4000])
@pytest.mark.parametrize("d", [2, 5, 17])
def test_tiled_hash_agrees_with_exact_paths(monkeypatch, budget, d):
    # a small budget forces many tiles; sizes give ragged last blocks,
    # ell = 1 and ell = L
    monkeypatch.setattr(pipeline, "_FFT_BUDGET", budget)
    w = digit_width(d)
    rng = np.random.default_rng(budget + d)
    seen = set()
    for n, ell in [(97, 1), (97, 97 * w), (61, 50), (128, 101), (150, 37)]:
        L = n * w
        raw = rng.integers(0, d, size=n).astype(np.min_scalar_type(d - 1))
        seed = int(rng.integers(0, 2**63))
        got = privacy_amplify(raw, ell, seed, d=d)
        x = encode_digits(raw, d).astype(np.int64)
        s = toeplitz_seed_bits(seed, ell, L).astype(np.int64)
        np.testing.assert_array_equal(got, np.convolve(s, x, mode="valid") & 1,
                                      err_msg=f"n={n} ell={ell}")
        np.testing.assert_array_equal(got, (toeplitz_matrix(seed, ell, L) @ x) % 2,
                                      err_msg=f"n={n} ell={ell}")
        b_o, b_i = pipeline._hash_plan(ell, L)
        n_out, n_in = tile_counts(ell, L)
        seen.add((n_out > 1, n_in > 1, ell % b_o != 0, L % b_i != 0))
    assert any(split_out and split_in for split_out, split_in, _, _ in seen)
    assert any(ragged_out for _, _, ragged_out, _ in seen)
    assert any(ragged_in for _, _, _, ragged_in in seen)


@pytest.mark.parametrize("N, ell, budget, tiles", [
    (200_000, 300_000, None, (1, 1)),
    (200_000, 20_000, None, (1, 3)),  # the cheapest split at a short output
    (60_000, 150_000, 5_000_000, (2, 2)),
])
def test_hash_working_set_model_bounds_what_the_hash_allocates(monkeypatch, N, ell, budget, tiles):
    """_fft_working_set, plus the ell output bits, against the hash's traced peak.

    tracemalloc sees numpy's arrays but not pocketfft's internal scratch,
    so this checks the arrays the model charges, not the process's RSS.
    """
    if budget is not None:
        monkeypatch.setattr(pipeline, "_FFT_BUDGET", budget)
    d = 5
    raw = np.random.default_rng(N + ell).integers(0, d, size=N).astype(np.uint8)
    L = N * digit_width(d)
    s = toeplitz_seed_bits(1, ell, L)
    assert tile_counts(ell, L) == tiles
    b_o, b_i = pipeline._hash_plan(ell, L)
    bound = pipeline._fft_working_set(pipeline._smooth_len(b_o + b_i - 1), b_i) + ell
    tracemalloc.start()
    try:
        pipeline._toeplitz_parity(s, raw, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.9 * bound <= peak <= bound, (peak, bound)


# -- full protocol -------------------------------------------------------------

def test_honest_run_certifies_the_analytic_length():
    src = source(P=5, kappa=1, T=8, Q=0.0, seed=2718)
    params = ProtocolParams(N=20_000, m=2000)
    rec = run_protocol(src, params, POS)
    assert rec.w_q == 0.0
    peak = float(distribution(evolve(src.config), POS).probs.max())
    expected = ell_memory_case(
        params, gamma_from_g(peak), 10, case=ProtocolCase.NOT_USING_MEMORY
    )
    assert rec.ell == expected.ell
    assert rec.output.size == math.floor(expected.ell)
    assert not rec.aborted
    assert rec.raw.size == params.N - params.m


def test_run_reads_gamma_and_digits_from_one_evolution(monkeypatch):
    # a stand-in walk that never leaves the origin: gamma, the sampled
    # digits and the hash alphabet must all come from its one evolution
    calls = []

    def frozen(cfg):
        calls.append(cfg)
        return evolve(replace(cfg, T=0))

    monkeypatch.setattr(pipeline, "evolve", frozen)
    src = source(P=5, kappa=3, T=137, seed=3)
    rec = run_protocol(src, ProtocolParams(N=20_000, m=2000), POS)
    assert calls == [src.config]
    assert rec.gamma == 0.0
    assert not rec.raw.any()


def test_run_accepts_a_supplied_gamma():
    src = source(seed=5)
    res = g_functions(5, 1, SweepGrid(1, 200), (POS,))[POS]
    rec = run_protocol(
        SourceModel(config=res.walk_config(), Q=0.0, rng_seed=5),
        ProtocolParams(N=10_000),
        POS,
        gamma=res.gamma,
    )
    assert rec.gamma == res.gamma


def test_runs_are_reproducible():
    params = ProtocolParams(N=5000)
    a = run_protocol(source(Q=0.1, seed=99), params, ALL)
    b = run_protocol(source(Q=0.1, seed=99), params, ALL)
    np.testing.assert_array_equal(a.output, b.output)
    np.testing.assert_array_equal(a.t_subset, b.t_subset)
    assert a.seed_matrix_id == b.seed_matrix_id
    c = run_protocol(source(Q=0.1, seed=100), params, ALL)
    assert (a.output != c.output).any() or a.w_q != c.w_q


def test_observed_weight_concentrates_around_expectation():
    src = SourceModel(config=WalkConfig(P=3, kappa=2, T=6), Q=0.2, rng_seed=8)
    params = ProtocolParams(N=1_000_000)
    rec = run_protocol(src, params, ALL)
    p = 0.2 * (1.0 - 1.0 / 12.0)
    sigma = math.sqrt(p * (1 - p) / params.m)
    assert abs(rec.w_q - p) < 3 * sigma


def test_noisy_run_aborts_with_empty_output():
    rec = run_protocol(source(Q=0.9, seed=1), ProtocolParams(N=5000), POS)
    assert rec.aborted
    assert rec.ell <= 0.0
    assert rec.rate == 0.0
    assert rec.output.size == 0
    assert rec.output_bytes() == b""


def test_honest_output_passes_a_monobit_check():
    res = g_functions(5, 1, SweepGrid(1, 200), (POS,))[POS]
    src = SourceModel(config=res.walk_config(), Q=0.0, rng_seed=31415)
    rec = run_protocol(src, ProtocolParams(N=100_000, m=10_000), POS, gamma=res.gamma)
    assert rec.output.size >= 10_000
    assert abs(rec.output.mean() - 0.5) < 0.02


# -- record serialization --------------------------------------------------------

def test_record_text_layout():
    rec = run_protocol(source(seed=4), ProtocolParams(N=20_000, m=2000), POS)
    text = rec.to_text()
    lines = dict(line.split(": ", 1) for line in text.strip().splitlines())
    assert lines["case"] == "not_using_memory"
    assert lines["N"] == "20000"
    assert int(lines["output_bits"]) == rec.output.size
    assert lines["t_subset"] == ",".join(map(str, rec.t_subset))
    assert lines["q_digest"].startswith("sha256:")
    assert lines["output_hex"] == rec.output_bytes().hex()
    assert lines["aborted"] == "false"
    assert dict(rec.summary_items()) == lines


def test_record_digests_large_subsets():
    src = source(P=5, kappa=1, T=4, seed=6)
    rec = run_protocol(src, ProtocolParams(N=30_000, m=10_001), POS)
    text = dict(line.split(": ", 1) for line in rec.to_text().strip().splitlines())
    assert text["t_subset"].startswith("sha256:")


def test_output_bit_file_roundtrip():
    # the bytes `extract` writes to its .bits file
    rec = run_protocol(source(seed=7), ProtocolParams(N=5000), POS)
    stored = np.unpackbits(np.frombuffer(rec.output_bytes(), dtype=np.uint8))
    np.testing.assert_array_equal(stored[: rec.output.size], rec.output)
    assert not stored[rec.output.size :].any()  # zero padding only
