"""Benchmark of the `qwrng` command, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one `qwrng` command in a fresh interpreter (see
child.py) with its own empty temporary directory, run strictly one at a
time, single-threaded.  Its outputs are checked outside the timed region
and then deleted.

--trace 0 repeats the workload's operation for S seconds and reports the
end-to-end metrics as medians over the operations.  --trace 1 runs one
operation untraced and one with spans around each module's public
functions, then the per-module micro-measurements, and reports the
per-layer metrics.  Either way one result file with every sample and
the environment goes to perfbench/out/, and the last line of stdout is
the JSON result.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (needs the thread settings and src on the path)

# a run, including set-up and checks, must end within this many seconds
RUN_BUDGET_S = 170.0
# set-up time is the median of at least this many process launches
SETUP_SAMPLES = 5
MODULES = ("walk", "maxprob", "rates", "pipeline", "experiments", "cli")


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


@dataclass(frozen=True)
class Sweep:
    """`qwrng table PRESET --tmax T_MAX`: one minima table, all cells swept."""

    preset: str
    t_max: int
    kappas: tuple[int, ...]
    Ps: tuple[int, ...]
    B: int
    flips: int
    lib_span = "experiments.run_table"

    def argv(self, seed: int) -> list[str]:
        return ["table", self.preset, "--tmax", str(self.t_max), "--no-timestamp", "-o", "."]

    @property
    def cells(self) -> list[tuple[int, int]]:
        return [(P, k) for k in self.kappas for P in self.Ps]

    @property
    def work(self) -> int:
        """Amplitude steps: sum over cells of |flips| * B * P * 2**kappa * t_max."""
        return sum(self.flips * self.B * P * (1 << k) * self.t_max for P, k in self.cells)

    def check(self, tmp: Path, seed: int, spot: bool) -> tuple[list[str], str]:
        path = tmp / f"{self.preset}.csv"
        key = f"{self.preset}-tmax{self.t_max}"
        problems = checks.check_digest(path, checks.TABLE_DIGESTS[key])
        return problems, checks.sha256_file(path) if path.is_file() else ""


@dataclass(frozen=True)
class Extract:
    """`qwrng extract` at a fixed step count, so no sweep runs, and Q = 0."""

    N: int
    lib_span = "pipeline.run_protocol"

    def argv(self, seed: int) -> list[str]:
        return ["extract", "-P", "5", "-k", "2", "-T", "636", "--mode", "position",
                "-N", str(self.N), "-Q", "0", "--seed", str(seed), "-o", "run"]

    @property
    def work(self) -> int:
        """Signals."""
        return self.N

    def check(self, tmp: Path, seed: int, spot: bool) -> tuple[list[str], str]:
        record_path, bits_path = tmp / "run.record.txt", tmp / "run.bits"
        if not (record_path.is_file() and bits_path.is_file()):
            return ["missing run.record.txt or run.bits"], ""
        record, bits = checks.read_record(record_path), bits_path.read_bytes()
        problems = checks.check_record(record, bits)
        if int(record["rng_seed"]) != seed:
            problems.append(f"record seed {record['rng_seed']} != {seed}")
        if seed == checks.EXTRACT_DEFAULT_SEED:
            problems += checks.check_digest(record_path, checks.EXTRACT_DIGESTS["record"])
            problems += checks.check_digest(bits_path, checks.EXTRACT_DIGESTS["bits"])
        if spot and not problems:
            problems += checks.spot_check_bits(record, bits, seed)
        return problems, checks.sha256_file(record_path) + checks.sha256_file(bits_path)


# sweep-hadamard runs by hand only; it is too unsteady on a shared host to
# be listed in BENCHMARK.json (see README.md, "Steadiness")
WORKLOADS = {
    "sweep-general": Sweep("table2", 200, (1, 2, 3), (3, 5, 11, 21), B=17 * 17, flips=3),
    "sweep-hadamard": Sweep("table1", 8000, (2, 3, 4), (3, 5, 11, 21, 51), B=1, flips=1),
    "extract-1e7": Extract(N=10_000_000),
}

PER_LAYER_UNITS = {
    "maxprob.step_us": "us",
    "maxprob.step_us_max_cell": "us",
    "maxprob.amp_steps": "count",
    "maxprob.state_kib_max_cell": "KiB",
    "experiments.run_table_s": "s",
    "experiments.emit_s": "s",
    "walk.evolve_us_per_step": "us",
    "walk.evolve_us_per_step_p51k4": "us",
    "walk.distribution_us": "us",
    "pipeline.protocol_s": "s",
    "pipeline.sample_s": "s",
    "pipeline.hash_s": "s",
    "pipeline.encode_s": "s",
    "pipeline.seed_bits_s": "s",
    "pipeline.other_s": "s",
    "pipeline.hash_peak_rss_mb": "MB",
    "pipeline.L_bits": "count",
    "pipeline.ell_bits": "count",
    "pipeline.conv_len": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    **{f"{m}.import_s": "s" for m in MODULES},
}


class Runner:
    """Starts child jobs one at a time inside the run's time budget."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    def child(self, job: str, args: list[str], cwd: Path) -> tuple[float, dict | None, int]:
        """Run `child.py JOB RESULT ARGS` in cwd; returns launch time, result document, exit code."""
        result = cwd / "child_result.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise BenchError("run budget exhausted")
        launched = time.monotonic()
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), job, str(result), *args],
                cwd=cwd, env=self.env, stdout=out, stderr=err, timeout=timeout,
            )
        doc = json.loads(result.read_text()) if result.is_file() else None
        if doc and "qwrng_file" in doc and not Path(doc["qwrng_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"qwrng was imported from {doc['qwrng_file']}, not {SRC}")
        return launched, doc, proc.returncode

    @contextlib.contextmanager
    def scratch(self):
        """A fresh empty directory, deleted on exit."""
        tmp = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        try:
            yield tmp
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def job(self, job: str, args: list[str]) -> tuple[float, dict]:
        """A child job that must succeed for the run to mean anything."""
        with self.scratch() as tmp:
            launched, doc, rc = self.child(job, args, tmp)
            if doc is None or rc != 0:
                raise BenchError(f"child job {job} {args} failed: "
                                 + (tmp / "stderr.txt").read_text(errors="replace")[-2000:])
            return launched, doc

    def setup_sample(self) -> float:
        """Time from launch until `qwrng.cli` is imported, in a process that does nothing else."""
        launched, doc = self.job("import", ["cli"])
        return doc["t_imported"] - launched


@dataclass
class Op:
    wall_s: float | None
    setup_s: float | None
    peak_rss_mb: float | None
    problems: list[str]
    fingerprint: str


def run_op(runner: Runner, wl, seed: int, spot: bool, traced: bool = False) -> tuple[Op, dict]:
    """One operation: fresh process, fresh directory, outputs checked then deleted."""
    with runner.scratch() as tmp:
        opts = ["--spans", str(tmp / "spans.json"), "--capture", str(tmp)] if traced else []
        try:
            launched, doc, rc = runner.child("op", [*opts, "--", *wl.argv(seed)], tmp)
        except subprocess.TimeoutExpired:
            return Op(None, None, None, ["timed out"], ""), {}
        problems = [] if rc == 0 else [
            f"exit code {rc}: " + (tmp / "stderr.txt").read_text(errors="replace")[-500:]]
        found, fingerprint = wl.check(tmp, seed, spot)
        problems += found
        extra = {}
        if traced and doc is not None:
            extra["spans"] = json.loads((tmp / "spans.json").read_text())["spans"]
            if (tmp / "hash_inputs.npz").is_file():
                extra["hash"] = hash_stage(runner, tmp, problems)
        if doc is None:
            return Op(None, None, None, problems, fingerprint), extra
        return Op(doc["wall_s"], doc["t_imported"] - launched, doc["peak_rss_mb"],
                  problems, fingerprint), extra


def hash_stage(runner: Runner, op_dir: Path, problems: list[str]) -> dict:
    """Rerun the traced operation's hash alone in a fresh process, for its own peak memory."""
    with runner.scratch() as tmp:
        _, doc, rc = runner.child("hash", [str(op_dir)], tmp)
        if doc is None or rc != 0:
            problems.append("hash stage failed: "
                            + (tmp / "stderr.txt").read_text(errors="replace")[-500:])
            return {}
    if doc["bits_sha256"] != checks.sha256_file(op_dir / "run.bits"):
        problems.append("hash stage rerun disagrees with the operation's .bits")
    return doc


def run_ops(runner: Runner, wl, seed: int, seconds: float) -> list[Op]:
    """Repeat the operation until `seconds` have passed; outputs must agree across operations."""
    ops: list[Op] = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        op, _ = run_op(runner, wl, seed, spot=not ops)
        if ops and op.fingerprint != ops[0].fingerprint and not op.problems:
            op.problems.append("outputs differ from the run's first operation")
        ops.append(op)
        if op.wall_s is None:
            break
    return ops


def span_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name; self time excludes time covered by child spans."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + d
        if s["parent"] is not None:
            parent = spans[s["parent"]]["name"]
            self_time[parent] = self_time.get(parent, 0.0) - d
    return total, self_time


def layer_metrics(wl, spans: list[dict], hash_doc: dict, untraced_wall: float | None) -> dict:
    total, _ = span_totals(spans)
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    main_s = t("cli.main")
    m["cli.overhead_s"] = main_s - t(wl.lib_span)
    if untraced_wall is not None:
        m["trace.overhead_s"] = main_s - untraced_wall
    m["experiments.run_table_s"] = t("experiments.run_table")
    m["experiments.emit_s"] = t("experiments.emit")
    if isinstance(wl, Sweep):
        steps = wl.t_max * wl.flips
        sweeps = [s for s in spans if s["name"] == "maxprob.g_functions"]
        P, kappa = max(wl.cells, key=lambda c: c[0] << c[1])
        at_max = [s["end"] - s["start"] for s in sweeps
                  if (s["args"].get("P"), s["args"].get("kappa")) == (P, kappa)]
        if sweeps:
            m["maxprob.step_us"] = 1e6 * sum(s["end"] - s["start"] for s in sweeps) / (
                steps * len(sweeps))
        if at_max:
            m["maxprob.step_us_max_cell"] = 1e6 * sum(at_max) / (steps * len(at_max))
        m["maxprob.amp_steps"] = wl.work
        m["maxprob.state_kib_max_cell"] = wl.B * P * (1 << kappa) * 16 / 1024
    m["pipeline.protocol_s"] = t("pipeline.run_protocol")
    m["pipeline.sample_s"] = t("pipeline.sample_outcomes")
    m["pipeline.hash_s"] = t("pipeline.privacy_amplify")
    m["pipeline.encode_s"] = t("pipeline.encode_digits")
    m["pipeline.seed_bits_s"] = t("pipeline.toeplitz_seed_bits")
    m["pipeline.other_s"] = m["pipeline.protocol_s"] - m["pipeline.sample_s"] - m["pipeline.hash_s"]
    hashes = [s["args"] for s in spans if s["name"] == "pipeline.privacy_amplify"]
    if hashes:
        a = hashes[0]
        L = a["n_raw"] * (a["d"] - 1).bit_length()
        m["pipeline.L_bits"], m["pipeline.ell_bits"] = L, a["ell"]
        m["pipeline.conv_len"] = L + a["ell"] - 1
    m["pipeline.hash_peak_rss_mb"] = hash_doc.get("peak_rss_mb", 0.0)
    return m


def module_metrics(runner: Runner) -> dict:
    """Import time of each module in a fresh interpreter, and the walk micro-timings."""
    m = {f"{module}.import_s": runner.job("import", [module])[1]["import_s"]
         for module in MODULES}
    m.update({f"walk.{k}": v for k, v in runner.job("evolve", [])[1].items()})
    return m


def environment() -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "qwrng").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    if not (SRC / "qwrng" / "cli.py").is_file():
        raise BenchError(f"no qwrng source under {SRC}")
    runner = Runner()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "argv": ["qwrng", *wl.argv(seed)], "environment": environment()}
    if trace:
        untraced, _ = run_op(runner, wl, seed, spot=True)
        traced, extra = run_op(runner, wl, seed, spot=False, traced=True)
        ops = [untraced, traced]
        spans = extra.get("spans", [])
        values = layer_metrics(wl, spans, extra.get("hash", {}), untraced.wall_s)
        values.update(module_metrics(runner))
        total, self_time = span_totals(spans)
        record.update(spans=spans, span_total_s=total, span_self_s=self_time,
                      hash_stage=extra.get("hash", {}))
        metrics = {k: metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        ops = run_ops(runner, wl, seed, seconds)
        timed = [op for op in ops if op.wall_s is not None]
        if not timed:
            raise BenchError("no operation completed: " + "; ".join(ops[0].problems))
        setup = [op.setup_s for op in timed]
        while len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_sample())
        wall = statistics.median(op.wall_s for op in timed)
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(op.peak_rss_mb for op in timed), "MB"),
            "work_per_s": metric(wl.work / wall, "1/s"),
        }
        record["setup_samples_s"] = setup
    failed = sum(1 for op in ops if op.problems)
    record.update(
        ops=[vars(op) for op in ops], attempted=len(ops), failed=failed,
        fail_frac=failed / len(ops), work=wl.work,
        work_unit="amplitude steps" if isinstance(wl, Sweep) else "signals",
        metrics=metrics,
    )
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for op in ops:
        for problem in op.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.EXTRACT_DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
