"""Command line front end.

Subcommands:

* evolve   print the outcome distribution of one configured walk
* maxprob  minimize the peak outcome probability over a sweep grid
* table    evaluate a minima table preset and write it to disk
* curve    evaluate a rate-curve preset and write it to disk
* extract  simulate one sampling round and extract output bits

Options resolve in three layers: built-in defaults, then a --config file
of flat `key = value` lines, then explicit flags.  The resolved
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
import secrets
import sys
from pathlib import Path

from qwrng.experiments import emit, preset, run_rate_curve, run_table
from qwrng.maxprob import SweepGrid, g_functions
from qwrng.pipeline import SourceModel, run_protocol
from qwrng.rates import ProtocolParams
from qwrng.walk import (
    CoinOperator,
    FlipOperator,
    MeasurementMode,
    WalkConfig,
    distribution,
    evolve,
)


class CliError(Exception):
    """Bad invocation detected after argparse already accepted the flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        print(
            json.dumps({"error": message, "usage": self.format_usage().strip()}),
            file=sys.stderr,
        )
        raise SystemExit(2)


_WALK_DEFAULTS = {
    "kappa": 1,
    "mode": "all",
    "coin": "hadamard",
    "theta": math.pi / 4,
    "phi": 0.0,
}


def _field_default(cls, name: str):
    """Built-in default of one dataclass field, so each default has one home."""
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


_EMIT_DEFAULTS = {
    "R": None,
    "tmax": None,
    "out": ".",
    "format": "csv",
    "no_timestamp": False,
    "json": False,
}

# every option dest a subcommand understands, with its built-in default;
# None marks "not set", which for required options becomes an error
_DEFAULTS: dict[str, dict] = {
    "evolve": {"P": None, "T": None, "flip": "i", "json": False, **_WALK_DEFAULTS},
    "maxprob": {
        "P": None, "kappa": 1, "mode": "all", "coin": "hadamard",
        "tmin": None, "tmax": None, "R": None, "flip": None, "json": False,
    },
    "table": dict(_EMIT_DEFAULTS),
    "curve": dict(_EMIT_DEFAULTS),
    "extract": {
        "P": None, "N": None, "T": None, "flip": None,
        "tmin": None, "tmax": None, "R": None,
        "m": None,
        "Q": _field_default(SourceModel, "Q"),
        "eps": _field_default(ProtocolParams, "epsilon"),
        "eps_pa": _field_default(ProtocolParams, "epsilon_pa"),
        "beta": _field_default(ProtocolParams, "beta"),
        "seed": None, "out": "extract", "json": False,
        **_WALK_DEFAULTS,
    },
}

_REQUIRED = {
    "evolve": (("P", "-P"), ("T", "-T/--steps")),
    "maxprob": (("P", "-P"),),
    "extract": (("P", "-P"), ("N", "-N")),
}


def _add_walk_flags(p: argparse.ArgumentParser, one_walk: bool) -> None:
    """Walk flags; `one_walk` adds the step count and angles a sweep chooses itself."""
    p.add_argument("-P", dest="P", type=int, help="cycle length (positions)")
    p.add_argument("-k", "--kappa", dest="kappa", type=int, help="coin register size")
    p.add_argument("--mode", choices=("all", "memory", "position"),
                   help="which registers are measured")
    p.add_argument("--coin", choices=("hadamard", "general"), help="coin family")
    if one_walk:
        p.add_argument("-T", "--steps", dest="T", type=int, help="walk steps")
        p.add_argument("--theta", type=float, help="general coin mixing angle")
        p.add_argument("--phi", type=float, help="general coin phase angle")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tmin", type=int, help="first step count of the sweep")
    p.add_argument("--tmax", type=int, help="last step count of the sweep")
    p.add_argument("--R", type=int, help="angle grid resolution for the general coin")


def _add_emit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("preset", help="preset name, e.g. table1 or fig4")
    _add_sweep_flags(p)
    p.add_argument("-o", "--out", dest="out", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), help="file format")
    p.add_argument("--no-timestamp", action="store_true",
                   help="deterministic file name without a timestamp")
    p.add_argument("--json", action="store_true", help="print a JSON summary")


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = _Parser(prog="qwrng", description=__doc__.splitlines()[0],
                     argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands: dict[str, argparse.ArgumentParser] = {}

    def new(name: str, help_: str) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help_, description=help_,
                                            argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="file of key = value lines merged under the flags")
        return p

    p = new("evolve", "print the outcome distribution of one configured walk")
    _add_walk_flags(p, one_walk=True)
    p.add_argument("--flip", choices=("i", "x", "y"), help="pre-walk active-coin unitary")
    p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = new("maxprob", "minimize the peak outcome probability over a sweep grid")
    _add_walk_flags(p, one_walk=False)
    _add_sweep_flags(p)
    p.add_argument("--flip", choices=("i", "x", "y"), help="restrict the sweep to one flip")
    p.add_argument("--json", action="store_true", help="emit a JSON document")

    _add_emit_flags(new("table", "evaluate a minima table preset and write it to disk"))
    _add_emit_flags(new("curve", "evaluate a rate-curve preset and write it to disk"))

    p = new("extract", "simulate one sampling round and extract output bits")
    _add_walk_flags(p, one_walk=True)
    _add_sweep_flags(p)
    p.add_argument("--flip", choices=("i", "x", "y"),
                   help="pre-walk flip; without -T, restricts the sweep instead")
    p.add_argument("-N", dest="N", type=int, help="total signals per run")
    p.add_argument("-m", dest="m", type=int, help="test subset size")
    p.add_argument("-Q", dest="Q", type=float, help="source depolarization weight")
    p.add_argument("--eps", type=float, help="sampling security parameter")
    p.add_argument("--eps-pa", dest="eps_pa", type=float, help="hashing security parameter")
    p.add_argument("--beta", type=float, help="smoothing exponent")
    p.add_argument("--seed", type=int, help="run seed; omitted means generate and print")
    p.add_argument("-o", "--out", dest="out", help="output file stem")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    return parser, commands


def _read_config(path: str) -> dict:
    """Flat option file: one `key = value` per line, '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line is not `key = value`: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _file_value(action: argparse.Action, key: str, value):
    """A config file value, put through the same type and choice checks as its flag.

    A switch such as --json takes true or false; any other option takes
    a string or number that its flag would accept as written.
    """
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            checked = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or checked in action.choices:
                return checked
    flag = "/".join(action.option_strings)
    raise CliError(f"config key {key}: {json.dumps(value)} is not a valid {flag} value")


def _resolve(args: argparse.Namespace, command: argparse.ArgumentParser) -> dict:
    cmd = args.command
    merged = dict(_DEFAULTS[cmd])
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    config_path = getattr(args, "config", None)
    given = set(flags)
    if config_path is not None:
        file_opts = _read_config(config_path)
        unknown = sorted(set(file_opts) - set(merged))
        if unknown:
            raise CliError(f"unknown config keys for {cmd}: {', '.join(unknown)}")
        actions = {a.dest: a for a in command._actions}
        merged.update({k: _file_value(actions[k], k, v) for k, v in file_opts.items()})
        given |= set(file_opts)
    merged.update(flags)
    for key, flag in _REQUIRED.get(cmd, ()):
        if merged.get(key) is None:
            raise CliError(f"missing required option: {flag}")
    # options of a path not taken would go unused, each with the reason
    unused: list[tuple[tuple[str, ...], str]] = []
    if cmd == "extract":
        # -T fixes the walk and skips the sweep, which otherwise picks the coin angles
        if merged["T"] is None:
            unused.append((("theta", "phi"),
                           "needs -T/--steps: without it the sweep picks the angles"))
        else:
            unused.append((("tmin", "tmax", "R"), "sets the sweep, which -T/--steps skips"))
    if merged.get("coin") == "hadamard":
        unused.append((("theta", "phi"), "sets the general coin, but --coin is hadamard"))
    for keys, why in unused:
        for key in keys:
            if key in given:
                raise CliError(f"--{key} {why}")
    return merged


def _coin_from(opts: dict) -> CoinOperator:
    if opts["coin"] == "hadamard":
        return CoinOperator.hadamard()
    return CoinOperator.generalized(opts["theta"], opts["phi"])


def _walk_config(opts: dict) -> WalkConfig:
    return WalkConfig(
        P=opts["P"],
        kappa=opts["kappa"],
        T=opts["T"],
        coin=_coin_from(opts),
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


def _outcome_labels(P: int, kappa: int, mode: MeasurementMode, d: int) -> list[str]:
    if mode is MeasurementMode.ALL:
        mask = (1 << kappa) - 1
        return [f"x={i >> kappa} coins={i & mask:0{kappa}b}" for i in range(d)]
    if mode is MeasurementMode.MEMORY_ONLY and kappa > 1:
        w = kappa - 1
        return [f"x={j >> w} mem={j & ((1 << w) - 1):0{w}b}" for j in range(d)]
    return [f"x={x}" for x in range(d)]


def _cmd_evolve(opts: dict) -> int:
    cfg = _walk_config(opts)
    mode = MeasurementMode(opts["mode"])
    dist = distribution(evolve(cfg), mode)
    labels = _outcome_labels(cfg.P, cfg.kappa, mode, dist.d)
    i_max, p_max = dist.max_outcome()
    if opts["json"]:
        print(json.dumps({
            "P": cfg.P, "kappa": cfg.kappa, "T": cfg.T, "mode": mode.value,
            "outcomes": labels, "probs": [float(p) for p in dist.probs],
            "max": {"outcome": labels[i_max], "prob": p_max},
        }))
    else:
        for label, p in zip(labels, dist.probs):
            print(f"{label}  {p:.10f}")
        print(f"max {labels[i_max]}  {p_max:.10f}")
    return 0


def _cmd_maxprob(opts: dict) -> int:
    mode = MeasurementMode(opts["mode"])
    res = g_functions(opts["P"], opts["kappa"], _sweep_grid(opts), (mode,))[mode]
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


def _emit_preset(opts: dict, run) -> int:
    result = run(preset(opts["preset"], R=opts["R"], t_max=opts["tmax"]))
    path = emit(result, fmt=opts["format"], path=opts["out"],
                timestamp=not opts["no_timestamp"])
    rows = len(result.rows if hasattr(result, "rows") else result.points)
    if opts["json"]:
        print(json.dumps({"name": result.name, "rows": rows, "path": str(path)}))
    else:
        print(f"wrote {rows} rows to {path}")
    return 0


def _cmd_table(opts: dict) -> int:
    return _emit_preset(opts, run_table)


def _cmd_curve(opts: dict) -> int:
    return _emit_preset(opts, run_rate_curve)


def _cmd_extract(opts: dict) -> int:
    mode = MeasurementMode(opts["mode"])
    generated = opts["seed"] is None
    seed = secrets.randbits(63) if generated else opts["seed"]
    # a bad output path fails here, before the sweep and the sampling run
    stem = Path(opts["out"])
    if stem.parent != Path("."):
        stem.parent.mkdir(parents=True, exist_ok=True)
    record_path = stem.with_name(stem.name + ".record.txt")
    bits_path = stem.with_name(stem.name + ".bits")

    if opts["T"] is None:
        # no fixed step count: sweep for the adversarial optimum and run there
        res = g_functions(opts["P"], opts["kappa"], _sweep_grid(opts), (mode,))[mode]
        cfg, gamma = res.walk_config(), res.gamma
    else:
        cfg, gamma = _walk_config(opts), None

    params = ProtocolParams(
        N=opts["N"],
        m=opts["m"],
        epsilon=opts["eps"],
        epsilon_pa=opts["eps_pa"],
        beta=opts["beta"],
    )
    source = SourceModel(config=cfg, Q=opts["Q"], rng_seed=seed)
    record = run_protocol(source, params, mode, gamma=gamma)

    record_path.write_text(record.to_text(), encoding="ascii")
    record.write_output_bits(bits_path)

    if opts["json"]:
        doc = record.to_json_dict()
        doc["record_path"] = str(record_path)
        doc["bits_path"] = str(bits_path)
        print(json.dumps(doc))
    else:
        if generated:
            print(f"seed = {seed}")
        summary = dict(record.summary_items())
        for key in ("case", "gamma", "w_q", "ell", "rate", "aborted", "output_bits"):
            print(f"{key} = {summary[key]}")
        print(f"record = {record_path}")
        print(f"bits = {bits_path}")
    return 0


_HANDLERS = {
    "evolve": _cmd_evolve,
    "maxprob": _cmd_maxprob,
    "table": _cmd_table,
    "curve": _cmd_curve,
    "extract": _cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        opts = _resolve(args, commands[args.command])
        print(json.dumps({"command": args.command,
                          "config": {k: opts[k] for k in sorted(opts)}}),
              file=sys.stderr)
        return _HANDLERS[args.command](opts)
    except (CliError, ValueError, OSError, MemoryError, FloatingPointError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
