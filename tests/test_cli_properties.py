"""Property test of the command line: any argv drawn from a subcommand's
grammar either succeeds with parseable stdout or fails as JSON lines.

Sizes stay small so that every run takes milliseconds; the values around
them (zero, negative, non-finite and huge floats, paths under a regular
file) are the edges the CLI has to turn into one JSON error line.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwrng.cli import _resolve, main
from qwrng.experiments import PRESET_NAMES

EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -1e-05, 0.0])
# values at or past the edge of what a flag, or the run behind it, accepts
EDGES = {
    **{name: EDGE_FLOATS for name in ("--theta", "--phi", "-Q", "--eps", "--eps-pa", "--beta")},
    "-P": st.integers(-1, 1),
    "-k": st.integers(-1, 0),
    "-T": st.just(-1),
    "--tmin": st.sampled_from([-1, 0, 21]),
    "--tmax": st.integers(-1, 0),
    "--R": st.just(0),
    "-N": st.integers(-1, 1),
    "-m": st.sampled_from([-1, 0, 2000]),
    "-o": st.sampled_from(["blocker/out", "blocker/sub/run"]),
}
EDGE_FLAGS = {
    "evolve": ("--theta", "--phi", "-P", "-k", "-T"),
    "maxprob": ("-P", "-k", "--tmin", "--tmax", "--R"),
    "table": ("-o", "--tmax", "--R"),
    "curve": ("-o", "--tmax", "--R"),
    "extract": tuple(EDGES),
}
GENERAL_PRESETS = ("table2", "table4", "table6", "fig3", "fig5", "fig7")


def _or_edge(valid):
    """A float flag's values: one of `valid`, or as often a non-finite or extreme float."""
    return st.one_of(valid, EDGE_FLOATS)


def _maybe(draw, flags, name, values):
    if draw(st.booleans()):
        flags[name] = draw(values)


def _walk(draw, flags, one_walk):
    """Walk flags; the angles only with the general coin, which has them."""
    flags["-P"] = draw(st.integers(2, 7))
    flags["-k"] = draw(st.integers(1, 3))
    flags["--coin"] = draw(st.sampled_from(["hadamard", "general"]))
    _maybe(draw, flags, "--mode", st.sampled_from(["all", "memory", "position"]))
    _maybe(draw, flags, "--flip", st.sampled_from(["i", "x", "y"]))
    if one_walk:
        flags["-T"] = draw(st.integers(0, 20))
        if flags["--coin"] == "general":
            _maybe(draw, flags, "--theta", _or_edge(st.floats(-4, 4)))
            _maybe(draw, flags, "--phi", _or_edge(st.floats(-4, 4)))


def _sweep(draw, flags, general, tmin=True):
    # the window is always set, so no sweep runs its 1000- or 2000-step default
    flags["--tmax"] = draw(st.integers(3, 20))
    if tmin:
        _maybe(draw, flags, "--tmin", st.integers(1, 3))
    if general:
        _maybe(draw, flags, "--R", st.integers(1, 2))


def _valid_flags(draw, cmd):
    """Flags of `cmd` that a run accepts, and its positional preset name if it takes one."""
    flags = {}
    if cmd == "evolve":
        _walk(draw, flags, one_walk=True)
        return flags, []
    if cmd == "maxprob":
        _walk(draw, flags, one_walk=False)
        _sweep(draw, flags, flags["--coin"] == "general")
        return flags, []
    if cmd in ("table", "curve"):
        name = draw(st.sampled_from([n for n in PRESET_NAMES if cmd == "table" or "fig" in n]))
        _sweep(draw, flags, name in GENERAL_PRESETS, tmin=False)
        flags["-o"] = draw(st.sampled_from(["out", "sub/out"]))
        _maybe(draw, flags, "--format", st.sampled_from(["csv", "json"]))
        return flags, [name, *["--no-timestamp"] * draw(st.booleans())]
    fixed = draw(st.booleans())
    _walk(draw, flags, one_walk=fixed)
    if not fixed:
        _sweep(draw, flags, flags["--coin"] == "general")
    flags["-N"] = draw(st.integers(100, 2000))
    _maybe(draw, flags, "-m", st.integers(1, 50))
    for name, valid in (("-Q", st.floats(0, 0.5)), ("--eps", st.floats(1e-9, 1e-3)),
                        ("--eps-pa", st.floats(1e-2, 1e-1)), ("--beta", st.floats(0.01, 0.49))):
        _maybe(draw, flags, name, _or_edge(valid))
    flags["--seed"] = draw(st.integers(0, 3))
    flags["-o"] = draw(st.sampled_from(["run", "sub/run"]))
    return flags, []


@st.composite
def argvs(draw):
    """An argv of one subcommand, half the time with one flag set to an edge value,
    and the same argv with every value in its flag's token.

    Apart from that flag and the float flags, which draw edge values too,
    the argv is one the subcommand accepts.

    Each value is one `name=value` token, except that the floats follow
    their flag as a token of their own half the time, so that a negative
    float such as '-1e-05' or '-inf' must still be read as a value.
    """
    cmd = draw(st.sampled_from(["evolve", "maxprob", "table", "curve", "extract"]))
    flags, positional = _valid_flags(draw, cmd)
    if draw(st.booleans()):
        # any flag the subcommand has, so an angle may also meet the Hadamard coin
        name = draw(st.sampled_from(EDGE_FLAGS[cmd]))
        flags[name] = draw(EDGES[name])
    argv, joined = [cmd, *positional], [cmd, *positional]
    for k, v in flags.items():
        token = f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
        joined.append(token)
        if isinstance(v, float) and draw(st.booleans()):
            argv += [k, repr(v)]
        else:
            argv.append(token)
    tail = ["--json"] * draw(st.booleans())
    return argv + tail, joined + tail


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens Python would write."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _parsed(argv):
    """The options argv resolves to, or the error it is refused with."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return _resolve(argv)
        except (SystemExit, ValueError) as exc:
            return repr(exc), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-property")
    (path / "blocker").write_text("a regular file, so nothing can be written under it\n")
    return path


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs=argvs())
def test_every_run_succeeds_cleanly_or_fails_as_json(workdir, monkeypatch, argvs):
    argv, joined = argvs
    assert _parsed(argv) == _parsed(joined)
    monkeypatch.chdir(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # an uncaught exception here is the traceback a user would see
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2), argv
    logged = [_strict_json(line) for line in err.splitlines()]
    if rc == 2:
        assert out == "", argv
        assert logged and "error" in logged[-1], argv
        assert all("error" not in doc for doc in logged[:-1]), argv
        return
    assert out, argv
    assert all("error" not in doc for doc in logged), argv
    if "--json" in argv:
        _strict_json(out)
    else:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), argv
