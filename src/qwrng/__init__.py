"""Quantum-walk randomness: walk simulation, guessing-probability sweeps,
finite-size security rates, and an end-to-end extraction pipeline."""

from qwrng.walk import (
    CoinOperator,
    Distribution,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    WalkState,
    distribution,
    evolve,
    initial_state,
)

__version__ = "0.1.0"
