"""One complete extraction round, from walker states to output bits.

Simulates a mildly noisy source, spends a random subset of the signals
on honesty tests, sizes the output from the observed failure weight,
and hashes the remaining digits down to certified bits with a seeded
Toeplitz matrix.  Everything downstream of the seed is deterministic,
so rerunning this script reproduces the byte stream exactly.
"""

from qwrng.maxprob import SweepGrid, g_functions
from qwrng.pipeline import SourceModel, run_protocol
from qwrng.rates import ProtocolParams
from qwrng.walk import MeasurementMode

POS = MeasurementMode.POSITION_ONLY

# adversarial optimum for the 5-cycle, single coin, position readout
res = g_functions(5, 1, SweepGrid.for_coin("hadamard"), (POS,))[POS]
print(f"walk tuned to t={res.at_t}: peak probability {res.value:.4f}, "
      f"gamma = {res.gamma:.4f} bits/signal")

source = SourceModel(config=res.walk_config(), Q=0.02, rng_seed=7)
params = ProtocolParams(N=200_000, m=20_000)
record = run_protocol(source, params, POS, gamma=res.gamma)

print(f"tested {params.m} of {params.N} signals, "
      f"observed failure weight {record.w_q:.4f}")
print(f"sampling deviation delta = {record.delta:.4f}")
print(f"output length ell = {record.ell:.1f} -> {record.output.size} bits "
      f"({record.rate:.3f} bits/signal)")

body = record.output_bytes()
print(f"first bytes: {body[:16].hex()}")
print(f"ones fraction: {record.output.mean():.4f}")
