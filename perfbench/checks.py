"""Output checks for the benchmark's operations.

A check returns a list of problems; an empty list means the output is
right.  Table outputs are pinned by digest.  Extraction outputs are
pinned by digest for the default seed; for every seed the run record
must be self-consistent, its output length must follow from the rate
formulas, and a sample of output bits is recomputed here, from the
documented Philox stream layout and a direct GF(2) product, without
using the program's hashing code.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# SHA-256 of outputs made by the program before any optimisation
TABLE_DIGESTS = {
    "table2-tmax200": "eb6acd696bdaf9b9219933ecce075249507205f901bf08c259f112a2e67951a0",
    "table1-tmax8000": "6104aafb75b246934d9cbd78e9ed5fc5c621b36d438f5326f37cd787d4c11cc1",
}
EXTRACT_DEFAULT_SEED = 7
EXTRACT_DIGESTS = {
    "record": "f10fd9d6372a64e9bac813f0c6281bb344d0ef73d6673eee9d8f743514d54b1f",
    "bits": "c3bf6b015c9a4eb9eff334bb0107f378cf01c15df37076a8759785e8a9d47938",
}

# output bits recomputed per extraction, besides the first and the last
SPOT_BITS = 14

# Philox stream numbers of the honest extraction draws (qwrng.pipeline)
_S_HONEST = 2


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_digest(path: Path, expected: str) -> list[str]:
    if not path.is_file():
        return [f"missing output {path.name}"]
    got = sha256_file(path)
    return [] if got == expected else [f"{path.name}: sha256 {got} != pinned {expected}"]


def read_record(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_record(record: dict[str, str], bits: bytes) -> list[str]:
    """Consistency of a position-mode extraction record with its .bits file and the rates."""
    from qwrng.rates import ProtocolParams, case_for_mode, rate_for_mode
    from qwrng.walk import MeasurementMode

    mode = MeasurementMode.POSITION_ONLY
    problems = []
    if record["case"] != case_for_mode(mode).value:
        problems.append(f"case {record['case']} is not the position-mode case")
    ell = float(record["ell"])
    n_out = int(record["output_bits"])
    if record["aborted"] != "false":
        problems.append("run aborted")
    if n_out != math.floor(ell):
        problems.append(f"output_bits {n_out} != floor(ell) {math.floor(ell)}")
    if bits.hex() != record["output_hex"] or len(bits) != (n_out + 7) // 8:
        problems.append(".bits file does not match output_hex / output_bits")
    params = ProtocolParams(
        N=int(record["N"]), m=int(record["m"]), epsilon=float(record["epsilon"]),
        epsilon_pa=float(record["epsilon_pa"]), beta=float(record["beta"]),
        Q=float(record["w_q"]),
    )
    expected = rate_for_mode(
        params, float(record["gamma"]), int(record["P"]), int(record["kappa"]), mode
    ).ell
    if not math.isclose(ell, expected, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"ell {ell!r} != rate_for_mode {expected!r}")
    return problems


def spot_check_bits(record: dict[str, str], bits: bytes, rng_seed: int) -> list[str]:
    """Recompute a sample of hashed bits of a Q=0 position-mode extraction.

    Q=0 makes every signal honest, so the digits are the honest draws
    of Philox stream 2 mapped through the walk's position distribution.
    Output bit i is the parity of sum_j s[i - j + L - 1] x_j over the
    encoded test-free digits x and the seed bits s.
    """
    from qwrng.walk import MeasurementMode, WalkConfig, distribution, evolve

    seed, N, P, kappa = (int(record[k]) for k in ("rng_seed", "N", "P", "kappa"))
    cfg = WalkConfig(P=P, kappa=kappa, T=int(record["T"]))
    probs = distribution(evolve(cfg), MeasurementMode.POSITION_ONLY).probs
    problems = []
    gamma = -math.log2(float(probs.max()))
    if not math.isclose(gamma, float(record["gamma"]), rel_tol=1e-12):
        problems.append(f"gamma {record['gamma']} != -log2(max p) {gamma!r}")
    if float(record["w_q"]) != 0.0:
        problems.append("Q=0 run recorded a non-zero test weight")

    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    stream = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(_S_HONEST,))))
    digits = np.searchsorted(cdf, stream.random(N), side="right")
    t_subset = np.array([int(v) for v in record["t_subset"].split(",")], dtype=np.int64)
    raw = np.delete(digits, t_subset)
    width = (P - 1).bit_length()
    shifts = np.arange(width - 1, -1, -1)
    x = ((raw[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    L, ell = x.shape[0], int(record["output_bits"])
    s = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(int(record["seed_matrix_id"])))
    ).integers(0, 2, size=ell + L - 1, dtype=np.uint8)
    out = np.unpackbits(np.frombuffer(bits, dtype=np.uint8))
    picks = np.random.default_rng(rng_seed).integers(0, ell, size=SPOT_BITS)
    for i in sorted({0, ell - 1, *map(int, picks)}):
        expect = int(np.count_nonzero(s[i:i + L][::-1] & x)) & 1
        if out[i] != expect:
            problems.append(f"output bit {i} is {out[i]}, direct product gives {expect}")
    return problems
