"""Closed-form security arithmetic for the sampled extraction protocol.

Everything here is pure scalar math: the min-entropy rate gamma of a
guessing probability, the d-ary entropy and its clamped extension, the
sampling confidence radius delta, and the two secure output lengths.
The full-readout route keeps every register in the raw string and pays
a privacy-amplification term in epsilon_pa; the coin-discarding routes
(memory kept, or position only) instead scale the entropy credit by the
fraction of signals certified close to honest.  Both penalty logarithms
are taken base 2 since lengths are in bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from qwrng.walk import MeasurementMode

# how far rounding may move a walk's peak of 1 off 1, either way: it drifts
# by about 5.8e-17 per step, so this covers some 1.7e7 steps
_G_ROUNDING = 1e-9


class ProtocolCase(enum.Enum):
    """Which registers feed the raw string."""

    USING_ALL = "using_all"
    USING_MEMORY = "using_memory"
    NOT_USING_MEMORY = "not_using_memory"


_MODE_TO_CASE = {
    MeasurementMode.ALL: ProtocolCase.USING_ALL,
    MeasurementMode.MEMORY_ONLY: ProtocolCase.USING_MEMORY,
    MeasurementMode.POSITION_ONLY: ProtocolCase.NOT_USING_MEMORY,
}


def case_for_mode(mode: MeasurementMode) -> ProtocolCase:
    return _MODE_TO_CASE[mode]


@dataclass(frozen=True)
class ProtocolParams:
    """Sizes and security knobs of one protocol run.

    m defaults to floor(sqrt(N)).  epsilon drives the sampling
    confidence; epsilon_pa and beta matter only on the full-readout
    route.  Q is the expected relative weight of failed tests, which the
    analytic rate formulas plug in for the observed weight.
    """

    N: int
    m: int | None = None
    epsilon: float = 1e-7
    epsilon_pa: float = 1e-6
    beta: float = 0.25
    Q: float = 0.0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("need at least two signals")
        if self.m is None:
            object.__setattr__(self, "m", math.isqrt(self.N))
        if not 1 <= self.m or 2 * self.m > self.N:
            raise ValueError("sample size must satisfy 1 <= m <= N/2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.epsilon_pa < 1.0:
            raise ValueError("epsilon_pa must lie in (0, 1)")
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie in (0, 1/2)")
        if not 0.0 <= self.Q <= 1.0:
            raise ValueError("Q must lie in [0, 1]")

    @property
    def n(self) -> int:
        """Signals left for extraction."""
        return self.N - self.m


@dataclass(frozen=True)
class RateResult:
    """Output length and bookkeeping of one rate evaluation.

    ell may be negative; rate is already clamped to max(0, ell) / N.
    """

    case: ProtocolCase
    gamma: float
    delta: float
    ell: float
    rate: float
    failure_prob: float
    closeness: float


def gamma_from_g(g: float) -> float:
    """Min-entropy rate -log2(g) of a guessing probability; +0.0 for g within _G_ROUNDING of 1.

    The certain readout a rounded peak of 1 stands for has no entropy, so
    this gives up at most 1.5e-9 bits, the safe direction.
    """
    if not 0.0 < g <= 1.0 + _G_ROUNDING:
        raise ValueError(f"guessing probability must lie in (0, 1], got {g}")
    return -math.log2(g) if g < 1.0 - _G_ROUNDING else 0.0


def _xlogy(x: float, y: float) -> float:
    """x log y, with 0 log y = 0."""
    return 0.0 if x == 0 else x * math.log(y)


def entropy_d(x: float, d: int) -> float:
    """d-ary Shannon entropy h_d(x) with the 0 log 0 = 0 convention.

    h_d(x) = x log_d(d-1) - x log_d(x) - (1-x) log_d(1-x); equals 1 at
    the peak x = 1 - 1/d.
    """
    if d < 2:
        raise ValueError("alphabet size d must be at least 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    return (x * math.log(d - 1) - _xlogy(x, x) - _xlogy(1.0 - x, 1.0 - x)) / math.log(d)


def extended_entropy_d(x: float, d: int) -> float:
    """h_d clamped: 0 below x = 0 and 1 above the peak x = 1 - 1/d."""
    if d < 2:
        raise ValueError("alphabet size d must be at least 2")
    if x < 0.0:
        return 0.0
    if x > 1.0 - 1.0 / d:
        return 1.0
    return entropy_d(x, d)


def sampling_delta(N: int, m: int, epsilon: float) -> float:
    """Confidence radius tying the tested weight to the untested rest.

    sqrt((N + 2) ln(2 / epsilon^2) / (m N)); calibrated so the classical
    sampling failure bound equals epsilon^2, and shrinking like
    1/sqrt(m).
    """
    if not 1 <= m < N:
        raise ValueError("need 1 <= m < N")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.sqrt((N + 2) * math.log(2.0 / epsilon**2) / (m * N))


def classical_sampling_error(N: int, m: int, delta: float) -> float:
    """Failure bound 2 exp(-delta^2 m N / (N + 2)) of the sampling step."""
    if not 1 <= m < N:
        raise ValueError("need 1 <= m < N")
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    return 2.0 * math.exp(-(delta**2) * m * N / (N + 2))


def pa_margin(params: ProtocolParams) -> float:
    """epsilon_pa - 2 epsilon, which the full-readout route needs positive."""
    margin = params.epsilon_pa - 2.0 * params.epsilon
    if margin <= 0.0:
        raise ValueError("the full-readout route needs epsilon_pa > 2 * epsilon")
    return margin


def ell_using_all(params: ProtocolParams, gamma: float, d: int) -> RateResult:
    """Secure output length when the raw string keeps every register.

    gamma is the per-signal min-entropy rate certified for the full
    outcome space of size d = 2**kappa * P.  Requires
    epsilon_pa > 2 epsilon; fails with probability 2 epsilon^(1 - 2 beta)
    and the smoothing radius 4 epsilon + 2 epsilon^beta is recorded as
    closeness.
    """
    eps = params.epsilon
    eps_tilde = pa_margin(params)
    n = params.n
    dl = sampling_delta(params.N, params.m, eps)
    penalty = extended_entropy_d(params.Q + dl, d) * math.log2(d)
    ell = n * (gamma - penalty) - 2.0 * math.log2(1.0 / eps_tilde)
    return RateResult(
        case=ProtocolCase.USING_ALL,
        gamma=gamma,
        delta=dl,
        ell=ell,
        rate=max(0.0, ell) / params.N,
        failure_prob=2.0 * eps ** (1.0 - 2.0 * params.beta),
        closeness=4.0 * eps + 2.0 * eps**params.beta,
    )


def ell_memory_case(
    params: ProtocolParams,
    gamma_prime: float,
    d_full: int,
    case: ProtocolCase = ProtocolCase.USING_MEMORY,
) -> RateResult:
    """Secure output length when the raw string discards the active coin
    (memory kept) or every coin (position only).

    gamma_prime is the min-entropy rate of the marginal readout, but the
    entropy penalty runs over the full walker dimension d_full because
    that is where the tested states live.  Only the certified-honest
    fraction eta = n (1 - Q - delta) of signals earns entropy credit.
    """
    if case is ProtocolCase.USING_ALL:
        raise ValueError("the full-readout route has its own formula")
    eps = params.epsilon
    n = params.n
    dl = sampling_delta(params.N, params.m, eps)
    eta = n * (1.0 - params.Q - dl)
    penalty = n * extended_entropy_d(params.Q + dl, d_full) * math.log2(d_full)
    ell = eta * gamma_prime - penalty - 2.0 * math.log2(1.0 / eps)
    return RateResult(
        case=case,
        gamma=gamma_prime,
        delta=dl,
        ell=ell,
        rate=max(0.0, ell) / params.N,
        failure_prob=eps ** (1.0 / 3.0),
        closeness=5.0 * eps + 2.0 * eps ** (1.0 / 3.0),
    )


def rate_for_mode(
    params: ProtocolParams,
    gamma: float,
    P: int,
    kappa: int,
    mode: MeasurementMode,
) -> RateResult:
    """Dispatch to the route matching the measurement mode.

    The entropy penalty dimension is the full walker dimension on every
    route; gamma must come from the same mode's sweep.
    """
    d_full = (1 << kappa) * P
    if mode is MeasurementMode.ALL:
        return ell_using_all(params, gamma, d_full)
    return ell_memory_case(params, gamma, d_full, case=case_for_mode(mode))
