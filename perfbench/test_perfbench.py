"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import checks
import run


def test_table_check_rejects_a_wrong_digest(tmp_path: Path) -> None:
    wl = run.WORKLOADS["sweep-hadamard"]
    (tmp_path / "table1.csv").write_text("kappa,P,mode,value,t,theta,phi,flip\n")
    problems, _ = wl.check(tmp_path, 7, spot=False)
    assert problems and "pinned" in problems[0]


def test_check_digest_accepts_the_right_digest(tmp_path: Path) -> None:
    path = tmp_path / "f"
    path.write_bytes(b"abc")
    good = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert checks.check_digest(path, good) == []
    assert checks.check_digest(path, "0" * 64)
    assert checks.check_digest(tmp_path / "missing", good)


@pytest.fixture(scope="module")
def small_extract(tmp_path_factory) -> tuple[dict, bytes]:
    """A position-mode Q=0 run small enough for a test (N=1e6, ell about 1.5e5)."""
    from qwrng.cli import main

    out = tmp_path_factory.mktemp("extract") / "run"
    rc = main(["extract", "-P", "5", "-k", "2", "-T", "636", "--mode", "position",
               "-N", "1000000", "-Q", "0", "--seed", "11", "-o", str(out)])
    assert rc == 0
    record = checks.read_record(out.with_name("run.record.txt"))
    return record, out.with_name("run.bits").read_bytes()


def test_extract_checks_pass_on_real_output(small_extract) -> None:
    record, bits = small_extract
    assert checks.check_record(record, bits) == []
    assert checks.spot_check_bits(record, bits, rng_seed=3) == []


def test_spot_check_rejects_a_flipped_output_bit(small_extract) -> None:
    record, bits = small_extract
    flipped = bytes([bits[0] ^ 0x80]) + bits[1:]
    record = dict(record, output_hex=flipped.hex())
    assert checks.spot_check_bits(record, flipped, rng_seed=3)


def test_record_check_rejects_a_wrong_length(small_extract) -> None:
    record, bits = small_extract
    assert checks.check_record(dict(record, ell=repr(float(record["ell"]) + 1.0)), bits)
    assert checks.check_record(dict(record, output_bits="8"), bits)


def test_span_self_time_excludes_children() -> None:
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "b", "parent": 0, "start": 5.0, "end": 6.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    total, self_time = run.span_totals(spans)
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert self_time == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_sweep_work_matches_the_stated_amplitude_steps() -> None:
    assert run.WORKLOADS["sweep-general"].work == 97_104_000
    assert run.WORKLOADS["sweep-hadamard"].work == 20_384_000


def test_layer_metrics_split_a_sweep() -> None:
    wl = run.WORKLOADS["sweep-hadamard"]
    spans = [{"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0, "args": {}},
             {"name": "experiments.run_table", "parent": 0, "start": 1.0, "end": 9.0, "args": {}}]
    for i, (P, kappa) in enumerate(wl.cells):
        spans.append({"name": "maxprob.g_functions", "parent": 1, "start": 1.0 + 0.5 * i,
                      "end": 1.4 + 0.5 * i, "args": {"P": P, "kappa": kappa}})
    m = run.layer_metrics(wl, spans, {}, untraced_wall=9.5)
    assert math.isclose(m["cli.overhead_s"], 2.0)
    assert math.isclose(m["trace.overhead_s"], 0.5)
    assert math.isclose(m["maxprob.step_us"], 1e6 * 0.4 / 8000)
    assert math.isclose(m["maxprob.step_us_max_cell"], 1e6 * 0.4 / 8000)
    assert m["maxprob.state_kib_max_cell"] == 12.75
    assert set(m) == set(run.PER_LAYER_UNITS)
