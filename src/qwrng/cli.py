"""Command line front end.

Subcommands:

* evolve   print the outcome distribution of one configured walk
* maxprob  minimize the peak outcome probability over a sweep grid
* table    evaluate a minima table preset and write it to disk
* curve    evaluate a rate-curve preset and write it to disk
* extract  simulate one sampling round and extract output bits

Each flag declares its own default.  A --config file of flat
`key = value` lines is read as flags and parsed by the same subcommand
parser, ahead of the explicit flags, which therefore win.  The resolved
configuration and every error go to stderr as single JSON lines, so
stdout carries only results.  Exit status is 0 on success, 2 on any
usage or validation problem, file system error, failed allocation or
lost hash precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import secrets
import sys
from pathlib import Path

from qwrng.experiments import emit, preset, run_rate_curve, run_table
from qwrng.maxprob import SweepGrid, g_functions, sweep_bytes
from qwrng.pipeline import SourceModel, run_bytes, run_protocol
from qwrng.rates import ProtocolParams, pa_margin
from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    distribution,
    evolve,
    initial_state,
)


# a token argparse takes as a value, not as an option, after a flag: every
# negative number float() reads, so that '--phi -1e-3' parses as
# '--phi=-1e-3' does and '--theta -inf' reaches _finite; argparse's own
# pattern has no exponent form and no inf or nan, and no flag here looks
# like a number
_NEGATIVE_FLOAT = re.compile(
    r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)([eE][-+]?\d[\d_]*)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

# outcomes `evolve` prints per piece, so that no list of every label or
# probability, and no whole JSON text, exists at once
_PRINT_CHUNK = 1 << 16

# bytes per amplitude charged to one walk: an `evolve` run, walk and
# printout, peaked at 65 to 67 from kappa = 1 to 20, with or without
# --json, since the printout goes out in chunks
_WALK_BYTES = 72


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):  # noqa: D102 - argparse hook
        print(
            json.dumps({"error": message, "usage": self.format_usage().strip()}),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _finite(text: str) -> float:
    """A float flag's value; nan and +-inf are usage errors, as a non-number is."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


# `key = value  # comment`, where a '#' inside a JSON string value is text
_CONFIG_LINE = re.compile(r'\s*([^=#]*?)\s*=\s*("(?:[^"\\]|\\.)*"|[^#]*?)\s*(?:#.*)?')

# argparse's required= cannot see values that come from a config file
_REQUIRED = {
    "evolve": (("P", "-P"), ("T", "-T/--steps")),
    "maxprob": (("P", "-P"),),
    "extract": (("P", "-P"), ("N", "-N")),
}


def _add_walk_flags(p: argparse.ArgumentParser, one_walk: bool) -> None:
    """Walk flags; `one_walk` adds the step count and angles a sweep chooses itself."""
    p.add_argument("-P", dest="P", type=int, help="cycle length (positions)")
    p.add_argument("-k", "--kappa", dest="kappa", type=int, default=1,
                   help="coin register size")
    p.add_argument("--mode", choices=("all", "memory", "position"), default="all",
                   help="which registers are measured")
    p.add_argument("--coin", choices=("hadamard", "general"), default="hadamard",
                   help="coin family")
    if one_walk:
        p.add_argument("-T", "--steps", dest="T", type=int, help="walk steps")
        p.add_argument("--theta", type=_finite, help="general coin mixing angle (pi/4 if unset)")
        p.add_argument("--phi", type=_finite, help="general coin phase angle (0 if unset)")


def _add_sweep_flags(p: argparse.ArgumentParser, tmin: bool) -> None:
    """Sweep window flags; a preset fixes its own first step, so it takes no --tmin."""
    if tmin:
        p.add_argument("--tmin", type=int, help="first step count of the sweep")
    p.add_argument("--tmax", type=int, help="last step count of the sweep")
    p.add_argument("--R", type=int, help="angle grid resolution for the general coin")


def _add_emit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("preset", help="preset name, e.g. table1 or fig4")
    _add_sweep_flags(p, tmin=False)
    p.add_argument("-o", "--out", dest="out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="file format")
    p.add_argument("--no-timestamp", action="store_true",
                   help="deterministic file name without a timestamp")


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = _Parser(prog="qwrng", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands: dict[str, argparse.ArgumentParser] = {}

    def new(name: str, help_: str) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--config",
                       help="file of key = value lines, each parsed as its flag before the flags")
        p.add_argument("--json", action="store_true", help="print the result as JSON")
        return p

    p = new("evolve", "print the outcome distribution of one configured walk")
    _add_walk_flags(p, one_walk=True)
    p.add_argument("--flip", choices=("i", "x", "y"), default="i",
                   help="pre-walk active-coin unitary")

    p = new("maxprob", "minimize the peak outcome probability over a sweep grid")
    _add_walk_flags(p, one_walk=False)
    _add_sweep_flags(p, tmin=True)
    p.add_argument("--flip", choices=("i", "x", "y"), help="restrict the sweep to one flip")

    _add_emit_flags(new("table", "evaluate a minima table preset and write it to disk"))
    _add_emit_flags(new("curve", "evaluate a rate-curve preset and write it to disk"))

    p = new("extract", "simulate one sampling round and extract output bits")
    _add_walk_flags(p, one_walk=True)
    _add_sweep_flags(p, tmin=True)
    p.add_argument("--flip", choices=("i", "x", "y"),
                   help="pre-walk flip; without -T, restricts the sweep instead")
    p.add_argument("-N", dest="N", type=int, help="total signals per run")
    p.add_argument("-m", dest="m", type=int, help="test subset size")
    p.add_argument("-Q", dest="Q", type=_finite, default=SourceModel.Q,
                   help="source depolarization weight")
    p.add_argument("--eps", type=_finite, default=ProtocolParams.epsilon,
                   help="sampling security parameter")
    p.add_argument("--eps-pa", dest="eps_pa", type=_finite, default=ProtocolParams.epsilon_pa,
                   help="hashing security parameter")
    p.add_argument("--beta", type=_finite, default=ProtocolParams.beta,
                   help="smoothing exponent")
    p.add_argument("--seed", type=int, help="run seed; omitted means generate and print")
    p.add_argument("-o", "--out", dest="out", default="extract", help="output file stem")
    return parser, commands


def _config_flags(path: str, cmd: str, command: argparse.ArgumentParser) -> list[str]:
    """A flat option file as flags of `command`: one `key = value` per line.

    '#' outside a JSON string starts a comment, and a key names an
    option as the logged configuration does (T, kappa, eps_pa), dashes
    and underscores alike.  A JSON string value is unquoted and any
    other value is passed as written; a switch such as --json takes true
    or false.  The parser then checks each value as it checks its flag.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    actions = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags: list[str] = []
    unknown: set[str] = set()
    for raw in text.splitlines():
        if not raw.split("#", 1)[0].strip():
            continue
        line = _CONFIG_LINE.fullmatch(raw)
        if line is None:
            raise ValueError(f"config line is not `key = value`: {raw.strip()!r}")
        key, value = line[1].replace("-", "_"), line[2]
        if key not in actions:
            unknown.add(key)
            continue
        flag = actions[key].option_strings[-1]
        if actions[key].nargs == 0 and value in ("true", "false"):
            flags += [flag] * (value == "true")
            continue
        try:
            unquoted = json.loads(value)
        except json.JSONDecodeError:
            unquoted = None
        # one token, so a value that starts with '-' is not read as a flag
        flags.append(f"{flag}={unquoted if isinstance(unquoted, str) else value}")
    if unknown:
        raise ValueError(f"unknown config keys for {cmd}: {', '.join(sorted(unknown))}")
    return flags


def _resolve(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its options, with a --config file parsed as leading flags."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    cmd = args.command
    if args.config is not None:
        at = argv.index(cmd) + 1
        file_flags = _config_flags(args.config, cmd, commands[cmd])
        args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    for key, flag in _REQUIRED.get(cmd, ()):
        if opts[key] is None:
            raise ValueError(f"missing required option: {flag}")
    # options of a path not taken would go unused, each with the reason
    unused: list[tuple[tuple[str, ...], str]] = []
    if cmd == "extract":
        # -T fixes the walk and skips the sweep, which otherwise picks the coin angles
        if opts["T"] is None:
            unused.append((("theta", "phi"),
                           "needs -T/--steps: without it the sweep picks the angles"))
        else:
            unused.append((("tmin", "tmax", "R"), "sets the sweep, which -T/--steps skips"))
    if opts.get("coin") == "hadamard":
        unused.append((("theta", "phi"), "sets the general coin, but --coin is hadamard"))
    for keys, why in unused:
        for key in keys:
            if opts.get(key) is not None:
                raise ValueError(f"--{key} {why}")
    return cmd, opts


def _walk_config(opts: dict) -> WalkConfig:
    if opts["coin"] == "hadamard":
        coin = CoinOperator.hadamard()
    else:
        theta, phi = opts["theta"], opts["phi"]
        coin = CoinOperator.generalized(math.pi / 4 if theta is None else theta,
                                        0.0 if phi is None else phi)
    return WalkConfig(
        P=opts["P"],
        kappa=opts["kappa"],
        T=opts["T"],
        coin=coin,
        flip=FlipOperator(opts["flip"] or "i"),
    )


def _sweep_grid(opts: dict) -> SweepGrid:
    return SweepGrid.for_coin(
        opts["coin"],
        t_min=opts["tmin"],
        t_max=opts["tmax"],
        R=opts["R"],
        flips=None if opts["flip"] is None else (FlipOperator(opts["flip"]),),
    )


def _check_memory(need: int, what: str) -> None:
    """Fail when `what` needs more memory than the machine has, before it can be killed mid-fill."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError(f"{what} needs about {need / 2**30:.1f} GiB of memory, "
                          f"more than the {have / 2**30:.1f} GiB this machine has")


def _outcome_labels(kappa: int, mode: MeasurementMode, lo: int, hi: int) -> list[str]:
    """Labels of outcomes lo..hi-1 under `mode`."""
    if mode is MeasurementMode.ALL:
        mask = (1 << kappa) - 1
        return [f"x={i >> kappa} coins={i & mask:0{kappa}b}" for i in range(lo, hi)]
    if mode is MeasurementMode.MEMORY_ONLY and kappa > 1:
        w = kappa - 1
        return [f"x={j >> w} mem={j & ((1 << w) - 1):0{w}b}" for j in range(lo, hi)]
    return [f"x={x}" for x in range(lo, hi)]


def _write_in_chunks(d: int, piece, sep: str) -> None:
    """Write piece(lo, hi) for _PRINT_CHUNK outcomes at a time, joined by sep."""
    for lo in range(0, d, _PRINT_CHUNK):
        sys.stdout.write((sep if lo else "") + piece(lo, min(lo + _PRINT_CHUNK, d)))


def _cmd_evolve(opts: dict) -> int:
    cfg = _walk_config(opts)
    mode = MeasurementMode(opts["mode"])
    _check_memory(_WALK_BYTES * cfg.dim, f"a walk over P = {cfg.P}, kappa = {cfg.kappa}")
    probs = distribution(evolve(cfg), mode).probs
    i_max = int(probs.argmax())
    p_max = float(probs[i_max])
    [label_max] = _outcome_labels(cfg.kappa, mode, i_max, i_max + 1)
    if opts["json"]:
        # the text json.dumps gives for the whole document, in pieces
        head = json.dumps({"P": cfg.P, "kappa": cfg.kappa, "T": cfg.T, "mode": mode.value})
        sys.stdout.write(head[:-1] + ', "outcomes": [')
        _write_in_chunks(probs.size, lambda lo, hi: json.dumps(
            _outcome_labels(cfg.kappa, mode, lo, hi))[1:-1], ", ")
        sys.stdout.write('], "probs": [')
        _write_in_chunks(probs.size, lambda lo, hi: json.dumps(probs[lo:hi].tolist())[1:-1], ", ")
        print(f'], "max": {json.dumps({"outcome": label_max, "prob": p_max})}}}')
    else:
        def lines(lo: int, hi: int) -> str:
            labels = _outcome_labels(cfg.kappa, mode, lo, hi)
            return "".join(f"{label}  {p:.10f}\n" for label, p in zip(labels, probs[lo:hi].tolist()))

        _write_in_chunks(probs.size, lines, "")
        print(f"max {label_max}  {p_max:.10f}")
    return 0


def _cmd_maxprob(opts: dict) -> int:
    mode = MeasurementMode(opts["mode"])
    P, kappa, grid = opts["P"], opts["kappa"], _sweep_grid(opts)
    _check_memory(sweep_bytes(P, kappa, grid), f"a sweep over P = {P}, kappa = {kappa}")
    res = g_functions(P, kappa, grid, (mode,))[mode]
    items: list[tuple[str, str]] = [
        ("g", repr(res.value)),
        ("gamma", repr(res.gamma)),
        ("t", str(res.at_t)),
        ("flip", res.at_flip.name),
        ("mode", mode.value),
    ]
    if res.at_theta is not None:
        items.append(("theta", repr(res.at_theta)))
        items.append(("phi", repr(res.at_phi)))
    if opts["json"]:
        print(json.dumps(dict(items)))
    else:
        for key, value in items:
            print(f"{key} = {value}")
    return 0


def _cmd_preset(opts: dict, run) -> int:
    """`table` and `curve`: evaluate a preset with `run` and write the result."""
    spec = preset(opts["preset"], R=opts["R"], t_max=opts["tmax"])
    need, P, kappa = max((sweep_bytes(P, k, spec.grid), P, k) for P, k, _ in spec.cases)
    _check_memory(need, f"the sweep over P = {P}, kappa = {kappa} of {spec.name}")
    Path(opts["out"]).mkdir(parents=True, exist_ok=True)  # a bad -o fails before the sweep
    result = run(spec)
    path = emit(result, fmt=opts["format"], path=opts["out"],
                timestamp=not opts["no_timestamp"])
    rows = len(result.rows)
    if opts["json"]:
        print(json.dumps({"name": result.name, "rows": rows, "path": str(path)}))
    else:
        print(f"wrote {rows} rows to {path}")
    return 0


def _cmd_extract(opts: dict) -> int:
    mode = MeasurementMode(opts["mode"])
    generated = opts["seed"] is None
    seed = secrets.randbits(63) if generated else opts["seed"]
    # a bad output path fails here, before the sweep and the sampling run
    stem = Path(opts["out"])
    if not stem.name:
        raise ValueError(f"-o/--out needs a file stem, such as runs/r1, not {opts['out']!r}")
    stem.parent.mkdir(parents=True, exist_ok=True)
    record_path = stem.with_name(stem.name + ".record.txt")
    bits_path = stem.with_name(stem.name + ".bits")

    # every input is checked before the sweep; until the sweep picks the
    # walk, the source holds the same walk at T = 0
    cfg = _walk_config({**opts, "T": opts["T"] or 0})
    params = ProtocolParams(N=opts["N"], m=opts["m"], epsilon=opts["eps"],
                            epsilon_pa=opts["eps_pa"], beta=opts["beta"])
    if mode is MeasurementMode.ALL:
        pa_margin(params)
    source = SourceModel(config=cfg, Q=opts["Q"], rng_seed=seed)
    # without -T a sweep picks the walk; with it, one walk runs
    grid = None if opts["T"] is not None else _sweep_grid(opts)
    need = _WALK_BYTES * cfg.dim if grid is None else sweep_bytes(cfg.P, cfg.kappa, grid)
    what = "walk" if grid is None else "sweep"
    _check_memory(need, f"the {what} over P = {cfg.P}, kappa = {cfg.kappa}")
    d = distribution(initial_state(cfg), mode).probs.shape[0]
    _check_memory(run_bytes(params.N, params.m, d), f"a run of N = {params.N} signals")
    gamma = None
    if grid is not None:
        # no fixed step count: sweep for the adversarial optimum and run there
        res = g_functions(cfg.P, cfg.kappa, grid, (mode,))[mode]
        source, gamma = dataclasses.replace(source, config=res.walk_config()), res.gamma
    record = run_protocol(source, params, mode, gamma=gamma)

    record_path.write_text(record.to_text(), encoding="ascii")
    bits_path.write_bytes(record.output_bytes())

    summary = dict(record.summary_items())
    if opts["json"]:
        print(json.dumps({**summary, "record_path": str(record_path),
                          "bits_path": str(bits_path)}))
    else:
        if generated:
            print(f"seed = {seed}")
        for key in ("case", "gamma", "w_q", "ell", "rate", "aborted", "output_bits"):
            print(f"{key} = {summary[key]}")
        print(f"record = {record_path}")
        print(f"bits = {bits_path}")
    return 0


_HANDLERS = {
    "evolve": _cmd_evolve,
    "maxprob": _cmd_maxprob,
    "table": lambda opts: _cmd_preset(opts, run_table),
    "curve": lambda opts: _cmd_preset(opts, run_rate_curve),
    "extract": _cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            cmd, opts = _resolve(argv)
        except SystemExit as exc:  # argparse has printed its usage error or the help
            return exc.code if isinstance(exc.code, int) else 0
        print(json.dumps({"command": cmd, "config": {k: opts[k] for k in sorted(opts)}}),
              file=sys.stderr)
        return _HANDLERS[cmd](opts)
    except (ValueError, OSError, MemoryError, FloatingPointError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
