"""Quantum-walk randomness: walk simulation, guessing-probability sweeps,
finite-size security rates, and an end-to-end extraction pipeline."""

__version__ = "0.1.0"
