import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrng.rates import (
    ProtocolCase,
    ProtocolParams,
    case_for_mode,
    classical_sampling_error,
    ell_memory_case,
    ell_using_all,
    entropy_d,
    extended_entropy_d,
    rate_for_mode,
    sampling_delta,
)
from qwrng.walk import MeasurementMode


# -- entropy -------------------------------------------------------------------

def test_binary_entropy_endpoints_and_peak():
    assert entropy_d(0.0, 2) == 0.0
    assert entropy_d(1.0, 2) == 0.0
    assert entropy_d(0.5, 2) == pytest.approx(1.0)


def test_quaternary_entropy_peak_value():
    # the d-ary entropy peaks at exactly 1 when x = 1 - 1/d
    assert entropy_d(0.75, 4) == pytest.approx(1.0, abs=1e-12)


def test_entropy_domain_errors():
    with pytest.raises(ValueError):
        entropy_d(-0.1, 2)
    with pytest.raises(ValueError):
        entropy_d(1.1, 2)
    with pytest.raises(ValueError):
        entropy_d(0.5, 1)
    with pytest.raises(ValueError, match="alphabet size d must be at least 2"):
        extended_entropy_d(0.5, 1)


def test_extended_entropy_clamps():
    assert extended_entropy_d(-0.1, 8) == 0.0
    assert extended_entropy_d(0.95, 2) == 1.0
    for d in (2, 3, 12, 408):
        assert extended_entropy_d(1.0 - 1.0 / d, d) == pytest.approx(1.0, abs=1e-12)
        assert extended_entropy_d(1.0 - 1.0 / d + 1e-9, d) == 1.0


def test_extended_entropy_continuous_at_boundaries():
    assert extended_entropy_d(1e-12, 5) < 1e-10
    assert extended_entropy_d(0.75 - 1e-12, 4) == pytest.approx(1.0, abs=1e-9)


@given(
    x=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    d=st.integers(2, 500),
)
@settings(max_examples=200)
def test_extended_entropy_monotone_below_peak(x, d):
    lo, hi = (min(v, 1.0 - 1.0 / d) for v in x)
    assert extended_entropy_d(lo, d) <= extended_entropy_d(hi, d) + 1e-12


# -- sampling delta ------------------------------------------------------------

def test_sampling_delta_frozen_value():
    # sqrt(1000002 * ln(2e14) / 1e9), frozen from an arbitrary-precision run
    assert sampling_delta(10**6, 10**3, 1e-7) == pytest.approx(0.18146460905960024, rel=1e-14)


@given(
    N=st.integers(4, 10**12),
    frac=st.floats(1e-6, 0.5),
    eps=st.floats(1e-12, 0.99),
)
@settings(max_examples=300)
def test_delta_forms_agree(N, frac, eps):
    m = min(max(1, int(N * frac)), N - 1)
    n = N - m
    # the split form in terms of (m, n) is the same number
    split_form = math.sqrt((m + n + 2) * math.log(2.0 / eps**2) / (m * (m + n)))
    assert sampling_delta(N, m, eps) == pytest.approx(split_form, rel=1e-15)


def test_delta_decreases_with_larger_sample():
    assert sampling_delta(10**6, 10**4, 1e-7) < sampling_delta(10**6, 10**3, 1e-7)


def test_delta_input_validation():
    with pytest.raises(ValueError):
        sampling_delta(100, 100, 1e-7)
    with pytest.raises(ValueError):
        sampling_delta(100, 0, 1e-7)
    with pytest.raises(ValueError):
        sampling_delta(100, 10, 1.5)
    # the sampling error checks its m as sampling_delta does, and its delta
    for m in (0, 100):
        with pytest.raises(ValueError, match="need 1 <= m < N"):
            classical_sampling_error(100, m, 0.1)
    with pytest.raises(ValueError, match="delta must be non-negative"):
        classical_sampling_error(100, 10, -0.1)


# -- classical sampling error ----------------------------------------------------

def test_sampling_error_vacuous_at_zero_delta():
    assert classical_sampling_error(100, 10, 0.0) == 2.0


@given(
    N=st.integers(4, 10**10),
    frac=st.floats(1e-4, 0.5),
    eps=st.floats(1e-10, 0.9),
)
@settings(max_examples=300)
def test_sampling_error_inverts_delta_calibration(N, frac, eps):
    m = min(max(1, int(N * frac)), N - 1)
    delta = sampling_delta(N, m, eps)
    assert classical_sampling_error(N, m, delta) == pytest.approx(eps**2, rel=1e-12)


def test_sampling_error_decreases_in_delta():
    assert classical_sampling_error(1000, 100, 0.2) < classical_sampling_error(1000, 100, 0.1)


# -- params --------------------------------------------------------------------

def test_sample_size_defaults_to_sqrt():
    assert ProtocolParams(N=10**6).m == 1000
    assert ProtocolParams(N=10**10).m == 100000
    assert ProtocolParams(N=10).m == 3


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(N=1)
    with pytest.raises(ValueError):
        ProtocolParams(N=100, m=51)  # above N/2
    with pytest.raises(ValueError):
        ProtocolParams(N=100, m=0)
    with pytest.raises(ValueError):
        ProtocolParams(N=100, epsilon=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(N=100, beta=0.5)
    with pytest.raises(ValueError):
        ProtocolParams(N=100, Q=1.0001)
    assert ProtocolParams(N=10**6).n == 999000


# -- full-readout route ----------------------------------------------------------

def params8(Q=0.0):
    return ProtocolParams(N=10**8, m=10**4, Q=Q)


def test_full_readout_frozen_value():
    # gamma = 3 over d = 12, no noise; frozen from an arbitrary-precision run
    res = ell_using_all(params8(), gamma=3.0, d=12)
    assert res.ell == pytest.approx(248426280.43600457, rel=1e-12)
    assert res.rate == pytest.approx(2.4842628043600457, rel=1e-12)
    assert res.case is ProtocolCase.USING_ALL


def test_full_readout_bookkeeping_fields():
    res = ell_using_all(params8(), gamma=3.0, d=12)
    assert res.failure_prob == pytest.approx(2.0 * (1e-7) ** 0.5, rel=1e-12)
    assert res.closeness == pytest.approx(4e-7 + 2.0 * (1e-7) ** 0.25, rel=1e-12)
    assert res.delta == pytest.approx(sampling_delta(10**8, 10**4, 1e-7), rel=1e-15)


def test_full_readout_clamps_under_heavy_noise():
    res = ell_using_all(params8(Q=0.9), gamma=3.0, d=12)
    assert res.ell < 0.0
    assert res.rate == 0.0


def test_full_readout_needs_pa_headroom():
    with pytest.raises(ValueError):
        ell_using_all(ProtocolParams(N=10**6, epsilon=1e-6, epsilon_pa=2e-6), gamma=2.0, d=12)


def test_full_readout_approaches_gamma_with_dense_sampling():
    # with a sample growing faster than sqrt(N) both delta and m/N vanish
    res = ell_using_all(ProtocolParams(N=10**12, m=10**9), gamma=3.0, d=12)
    assert res.rate > 0.99 * 3.0
    assert res.rate < 3.0


@given(Q=st.floats(0.0, 1.0), gamma=st.floats(0.01, 3.585), frac=st.floats(1e-4, 0.5))
@settings(max_examples=150)
def test_full_readout_rate_bounded_by_gamma(Q, gamma, frac):
    params = ProtocolParams(N=10**6, m=max(1, int(10**6 * frac) // 2 or 1), Q=Q)
    res = ell_using_all(params, gamma=gamma, d=12)
    assert 0.0 <= res.rate <= gamma + 1e-12


def test_full_readout_monotone_in_noise():
    rates = [ell_using_all(params8(Q=q), gamma=3.0, d=12).rate for q in (0.0, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


# -- coin-discarding route -------------------------------------------------------

def test_memory_route_frozen_value():
    res = ell_memory_case(params8(Q=0.15), gamma_prime=2.0, d_full=12)
    assert res.ell == pytest.approx(13133445.498130796, rel=1e-12)
    assert res.rate == pytest.approx(0.13133445498130796, rel=1e-12)
    assert res.case is ProtocolCase.USING_MEMORY


def test_memory_route_bookkeeping_fields():
    res = ell_memory_case(params8(), gamma_prime=2.0, d_full=12)
    assert res.failure_prob == pytest.approx((1e-7) ** (1.0 / 3.0), rel=1e-12)
    assert res.closeness == pytest.approx(5e-7 + 2.0 * (1e-7) ** (1.0 / 3.0), rel=1e-12)


def test_memory_route_clamps_when_no_signal_is_certified():
    res = ell_memory_case(params8(Q=0.99), gamma_prime=2.0, d_full=12)
    assert res.ell < 0.0
    assert res.rate == 0.0


def test_memory_route_rejects_full_readout_case():
    with pytest.raises(ValueError):
        ell_memory_case(params8(), gamma_prime=2.0, d_full=12, case=ProtocolCase.USING_ALL)


def test_memory_route_approaches_gamma_with_dense_sampling():
    res = ell_memory_case(ProtocolParams(N=10**12, m=10**9), gamma_prime=2.0, d_full=12)
    assert res.rate > 0.99 * 2.0
    assert res.rate < 2.0


@given(Q=st.floats(0.0, 1.0), gamma=st.floats(0.01, 3.585))
@settings(max_examples=150)
def test_memory_route_rate_bounded_by_gamma(Q, gamma):
    res = ell_memory_case(ProtocolParams(N=10**6, Q=Q), gamma_prime=gamma, d_full=12)
    assert 0.0 <= res.rate <= gamma + 1e-12


def test_memory_route_monotone_in_noise():
    rates = [
        ell_memory_case(params8(Q=q), gamma_prime=2.0, d_full=12).rate
        for q in (0.0, 0.1, 0.2, 0.4)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rates_monotone_in_gamma():
    lo = ell_using_all(params8(), gamma=2.0, d=12).rate
    hi = ell_using_all(params8(), gamma=3.0, d=12).rate
    assert hi > lo
    lo = ell_memory_case(params8(), gamma_prime=1.0, d_full=12).rate
    hi = ell_memory_case(params8(), gamma_prime=2.0, d_full=12).rate
    assert hi > lo


# -- dispatch ------------------------------------------------------------------

def test_mode_case_mapping():
    assert case_for_mode(MeasurementMode.ALL) is ProtocolCase.USING_ALL
    assert case_for_mode(MeasurementMode.MEMORY_ONLY) is ProtocolCase.USING_MEMORY
    assert case_for_mode(MeasurementMode.POSITION_ONLY) is ProtocolCase.NOT_USING_MEMORY


def test_rate_for_mode_dispatch():
    params = params8(Q=0.1)
    full = rate_for_mode(params, 3.0, P=3, kappa=2, mode=MeasurementMode.ALL)
    assert full == ell_using_all(params, 3.0, 12)
    pos = rate_for_mode(params, 1.5, P=3, kappa=2, mode=MeasurementMode.POSITION_ONLY)
    assert pos == ell_memory_case(params, 1.5, 12, case=ProtocolCase.NOT_USING_MEMORY)
    mem = rate_for_mode(params, 1.5, P=3, kappa=2, mode=MeasurementMode.MEMORY_ONLY)
    assert mem.case is ProtocolCase.USING_MEMORY
