"""Preset evaluation runs: minimum tables over standard grids and rate curves.

Table presets sweep the guessing probability over a published grid of
walker dimensions; curve presets turn the resulting gammas into analytic
rate-versus-N series at several noise levels, plugging the expected test
weight Q straight into the formulas.  Everything is deterministic, so
re-running a preset reproduces its output byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qwrng.maxprob import MaxProbResult, SweepGrid, g_functions
from qwrng.pipeline import usable_cpus
from qwrng.rates import ProtocolCase, ProtocolParams, rate_for_mode
from qwrng.walk import MeasurementMode

_ALL = MeasurementMode.ALL
_MEM = MeasurementMode.MEMORY_ONLY
_POS = MeasurementMode.POSITION_ONLY

_P_FULL = (3, 5, 11, 21, 51)
_P_SMALL = (3, 5, 11, 21)
_NOISE_WIDE = (0.0, 0.15, 0.2, 0.3)
_NOISE_NARROW = (0.0, 0.15, 0.2)
# seconds between the sweep pool's checks that none of its workers died
_POOL_POLL_S = 0.2

# signal counts of the rate curves: _N_POINTS log-spaced from _N_LO to _N_HI
_N_POINTS, _N_LO, _N_HI = 40, 1e3, 1e10

# published sweep minima, read by demos/sweep_minima.py and the tests;
# single-coin walks read the same value through both marginals.
#
# Erratum at Hadamard (kappa=4, P=51), joint readout: the source table
# prints 0.0274, but the minimum over t=1..2000 is 0.02398994728554 at
# t=1759.  A dense 816x816 step matrix built entry by entry from the step
# rules gives the same value at the same t, and a long-double pass agrees
# there to within 1e-14, so this is neither a kernel fault nor float drift
# (the oracle is acceptance criterion 1 in tests/test_acceptance.py).  The
# running minimum goes 0.03125 (t=5), 0.026681 (t=205), ... 0.023990, so
# the window reaches values below 0.0274.  The printed table is not part
# of this repository; the correction rests on the same model reproducing
# the other 54 Hadamard reference numbers to within 1.0e-4, this cell's
# memory (0.0314) and position (0.0709) minima included.
REFERENCE_VALUES: dict[tuple[str, str], dict[tuple[int, int], float]] = {
    ("hadamard", "all"): {
        (1, 3): 0.2224, (1, 5): 0.1474, (1, 11): 0.0983, (1, 21): 0.0642, (1, 51): 0.0367,
        (2, 3): 0.1250, (2, 5): 0.1249, (2, 11): 0.0995, (2, 21): 0.1044, (2, 51): 0.1057,
        (3, 3): 0.0570, (3, 5): 0.0535, (3, 11): 0.0450, (3, 21): 0.0282, (3, 51): 0.0190,
        (4, 3): 0.0312, (4, 5): 0.0312, (4, 11): 0.0312, (4, 21): 0.0272,
        (4, 51): 0.0240,  # erratum: published as 0.0274, see above
    },
    ("hadamard", "memory"): {
        (1, 3): 0.3634, (1, 5): 0.2447, (1, 11): 0.1358, (1, 21): 0.0919, (1, 51): 0.0517,
        (2, 3): 0.2500, (2, 5): 0.1875, (2, 11): 0.1378, (2, 21): 0.1342, (2, 51): 0.1377,
        (3, 3): 0.1120, (3, 5): 0.0656, (3, 11): 0.0524, (3, 21): 0.0374, (3, 51): 0.0233,
        (4, 3): 0.0625, (4, 5): 0.0617, (4, 11): 0.0453, (4, 21): 0.0340, (4, 51): 0.0314,
    },
    ("hadamard", "position"): {
        (1, 3): 0.3634, (1, 5): 0.2447, (1, 11): 0.1358, (1, 21): 0.0919, (1, 51): 0.0517,
        (2, 3): 0.3336, (2, 5): 0.2570, (2, 11): 0.1831, (2, 21): 0.1692, (2, 51): 0.1701,
        (3, 3): 0.3400, (3, 5): 0.2165, (3, 11): 0.1186, (3, 21): 0.0778, (3, 51): 0.0379,
        (4, 3): 0.3437, (4, 5): 0.2055, (4, 11): 0.1230, (4, 21): 0.0808, (4, 51): 0.0709,
    },
    ("general", "all"): {
        (1, 3): 0.1729, (1, 5): 0.1133, (1, 11): 0.0534, (1, 21): 0.0420,
        (2, 3): 0.1228, (2, 5): 0.1251, (2, 11): 0.0799, (2, 21): 0.0709,
        (3, 3): 0.0614, (3, 5): 0.0402, (3, 11): 0.0274, (3, 21): 0.0192,
    },
    ("general", "memory"): {
        (1, 3): 0.3334, (1, 5): 0.2017, (1, 11): 0.0952, (1, 21): 0.0617,
        (2, 3): 0.1751, (2, 5): 0.1615, (2, 11): 0.1082, (2, 21): 0.0743,
        (3, 3): 0.0898, (3, 5): 0.0661, (3, 11): 0.0417, (3, 21): 0.0264,
    },
    ("general", "position"): {
        (1, 3): 0.3334, (1, 5): 0.2017, (1, 11): 0.0952, (1, 21): 0.0617,
        (2, 3): 0.3340, (2, 5): 0.2197, (2, 11): 0.1275, (2, 21): 0.0834,
        (3, 3): 0.3336, (3, 5): 0.2097, (3, 11): 0.1039, (3, 21): 0.0642,
    },
}


def reference_value(coin_kind: str, mode: MeasurementMode, kappa: int, P: int) -> float | None:
    return REFERENCE_VALUES.get((coin_kind, mode.value), {}).get((kappa, P))


def default_signal_grid() -> tuple[int, ...]:
    """Log-spaced signal counts, deduplicated after rounding to integers."""
    grid = np.logspace(math.log10(_N_LO), math.log10(_N_HI), _N_POINTS)
    return tuple(int(n) for n in np.unique(np.rint(grid)))


@dataclass(frozen=True)
class ExperimentSpec:
    """One preset: sweep cells over one grid, and the noise levels of a rate curve.

    Rate curves use the `ProtocolParams` security defaults and `default_signal_grid`.
    """

    name: str
    cases: tuple[tuple[int, int, MeasurementMode], ...]
    grid: SweepGrid
    noise_levels: tuple[float, ...] = ()


@dataclass(frozen=True)
class ResultTable:
    """One sweep result per preset cell, in cell order."""

    name: str
    rows: tuple[MaxProbResult, ...]
    header = ("kappa", "P", "mode", "value", "t", "theta", "phi", "flip")

    def cells(self) -> list[tuple[str, ...]]:
        return [
            (str(r.kappa), str(r.P), r.mode.value, repr(r.value), str(r.at_t),
             *(("", "") if r.coin.kind == "hadamard" else (repr(r.coin.theta), repr(r.coin.phi))),
             r.at_flip.name)
            for r in self.rows
        ]


@dataclass(frozen=True)
class CurvePoint:
    case: ProtocolCase
    kappa: int
    P: int
    Q: float
    N: int
    rate: float


@dataclass(frozen=True)
class RateCurve:
    name: str
    rows: tuple[CurvePoint, ...]
    header = ("case", "kappa", "P", "Q", "N", "rate")

    def cells(self) -> list[tuple[str, ...]]:
        return [
            (p.case.value, str(p.kappa), str(p.P), repr(p.Q), str(p.N), repr(p.rate))
            for p in self.rows
        ]


# (kappas, Ps, modes, coin family, noise levels); a preset with noise levels is a rate curve
_PRESETS: dict[str, tuple] = {
    "table1": ((2, 3, 4), _P_FULL, (_ALL,), "hadamard", ()),
    "table2": ((1, 2, 3), _P_SMALL, (_ALL,), "general", ()),
    "table3": ((2, 3, 4), _P_FULL, (_MEM,), "hadamard", ()),
    "table4": ((1, 2, 3), _P_SMALL, (_MEM,), "general", ()),
    "table5": ((2, 3, 4), _P_FULL, (_POS,), "hadamard", ()),
    "table6": ((1, 2, 3), _P_SMALL, (_POS,), "general", ()),
    "kappa1": ((1,), _P_FULL, (_ALL, _MEM, _POS), "hadamard", ()),
    "fig1": ((1, 3), _P_FULL, (_ALL,), "hadamard", _NOISE_WIDE),
    "fig2": ((2, 4), _P_FULL, (_ALL,), "hadamard", _NOISE_WIDE),
    "fig3": ((1, 2, 3), _P_SMALL, (_ALL,), "general", _NOISE_WIDE),
    "fig4": ((1, 2, 3, 4), _P_FULL, (_MEM,), "hadamard", _NOISE_NARROW),
    "fig5": ((1, 2, 3), _P_SMALL, (_MEM,), "general", _NOISE_NARROW),
    "fig6": ((1, 2, 3, 4), _P_FULL, (_POS,), "hadamard", _NOISE_NARROW),
    "fig7": ((1, 2, 3), _P_SMALL, (_POS,), "general", _NOISE_NARROW),
}

PRESET_NAMES: tuple[str, ...] = tuple(_PRESETS)


def preset(name: str, R: int | None = None, t_max: int | None = None) -> ExperimentSpec:
    """Look up a preset by name; R (general coin only) and t_max override the default grid."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    kappas, Ps, modes, kind, noises = _PRESETS[name]
    grid = SweepGrid.for_coin(kind, t_max=t_max, R=R)
    cases = tuple((P, k, mode) for mode in modes for k in kappas for P in Ps)
    return ExperimentSpec(name=name, cases=cases, grid=grid, noise_levels=noises)


def pool_size(sweeps: int) -> int:
    """Processes that sweep at once: one per CPU this process may use, at most `sweeps`."""
    return min(sweeps, usable_cpus())


def _sweep_cells(spec: ExperimentSpec) -> list[MaxProbResult]:
    """Every cell's result, one pass per (P, kappa) over only the modes its cells ask for."""
    if not spec.cases:
        raise ValueError("spec has no cases")
    requested: dict[tuple[int, int], dict[MeasurementMode, None]] = {}
    for P, kappa, mode in spec.cases:
        requested.setdefault((P, kappa), {})[mode] = None
    # largest (P * 2**kappa, as the cells share one grid) first, each to the next free worker
    keys = sorted(requested, key=lambda key: key[0] << key[1], reverse=True)
    args = [(*key, spec.grid, tuple(requested[key])) for key in keys]
    workers = pool_size(len(keys))
    if workers == 1:
        results = [g_functions(*a) for a in args]
    else:  # imported here, so that the CLI's import does not slow down
        import multiprocessing
        import signal
        # forked with SIGINT blocked, the workers leave an interrupt to this process
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                # a killed worker is replaced, but its sweep's result never comes
                pids = {p.pid for p in multiprocessing.active_children()}
                pending = pool.starmap_async(g_functions, args, chunksize=1)
                while True:
                    try:
                        results = pending.get(_POOL_POLL_S)
                        break
                    except multiprocessing.TimeoutError:
                        if {p.pid for p in multiprocessing.active_children()} != pids:
                            raise ChildProcessError("a sweep worker process was killed") from None
                pool.close()
                pool.join()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    swept = dict(zip(keys, results))
    return [swept[(P, kappa)][mode] for P, kappa, mode in spec.cases]


def run_table(spec: ExperimentSpec) -> ResultTable:
    """Evaluate every cell of a preset."""
    return ResultTable(name=spec.name, rows=tuple(_sweep_cells(spec)))


def run_rate_curve(spec: ExperimentSpec) -> RateCurve:
    """Analytic rate-versus-N series for every (cell, noise) pair of a preset."""
    if not spec.noise_levels:
        raise ValueError(f"{spec.name} is a table preset, not a rate curve: use `qwrng table`")
    points, signals = [], default_signal_grid()
    for (P, kappa, mode), res in zip(spec.cases, _sweep_cells(spec)):
        for Q in spec.noise_levels:
            for N in signals:
                rr = rate_for_mode(ProtocolParams(N=N, Q=Q), res.gamma, P, kappa, mode)
                points.append(CurvePoint(case=rr.case, kappa=kappa, P=P, Q=Q, N=N, rate=rr.rate))
    return RateCurve(name=spec.name, rows=tuple(points))


def emit(
    result: ResultTable | RateCurve,
    fmt: str = "csv",
    path: str | Path = ".",
    timestamp: bool = True,
) -> Path:
    """Write a result to `<name>[_<timestamp>].<ext>` under `path`.

    Column order is fixed; with timestamp=False re-emission of the same
    result is byte-identical.
    """
    header, cells = result.header, result.cells()
    if not cells:
        raise ValueError("nothing to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")

    name = result.name
    if timestamp:
        name += time.strftime("_%Y%m%dT%H%M%S")
    out = Path(path) / f"{name}.{fmt}"
    if fmt == "csv":
        text = "\n".join([",".join(header)] + [",".join(row) for row in cells])
    else:
        text = json.dumps({"name": result.name, "rows": [dict(zip(header, row)) for row in cells]},
                          indent=2)
    write_whole((out, (text + "\n").encode("utf-8")))
    return out


def write_whole(*files: tuple[Path, bytes]) -> None:
    """Write each (path, data) pair, then move the files into place in the order given.

    Each file is written to a temporary name in its own directory, which
    is made if missing, and replaced whole, and none until every one is
    written.  On any failure, an interrupt included, the temporary files
    are removed, and a file not yet replaced keeps its older bytes.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for tmp, (_, data) in zip(temps, files):
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
