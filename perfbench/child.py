"""Work that the benchmark runs in a fresh interpreter, one job per process.

    python3 child.py op RESULT [--spans SPANS --capture DIR] -- QWRNG_ARGS...
    python3 child.py import RESULT MODULE
    python3 child.py hash RESULT CAPTURE_DIR
    python3 child.py evolve RESULT

Each job writes one JSON object to RESULT.  `op` runs `qwrng.cli.main`
as the `qwrng` command would, and exits with its status; with `--spans`
it first wraps the public
functions named in SPANNED so that every call records a span (name,
start, end, parent), kept in memory and written out once main returns.
`t_imported` is `time.monotonic()` right after the target import; the
parent subtracts its own launch time from it, which is valid because
CLOCK_MONOTONIC is shared by all processes.  Peak memory is this
process's own `ru_maxrss`.
"""

import sys
import time

# public functions timed in a traced run, by module
SPANNED = {
    "qwrng.cli": ("main",),
    "qwrng.experiments": ("run_table", "emit"),
    "qwrng.maxprob": ("g_functions",),
    "qwrng.walk": ("evolve", "distribution"),
    "qwrng.pipeline": (
        "run_protocol", "sample_outcomes", "privacy_amplify",
        "encode_digits", "toeplitz_seed_bits",
    ),
    "qwrng.rates": ("rate_for_mode",),
}

# call arguments kept on a span, to size the work it did
_SPAN_ARGS = ("P", "kappa", "ell", "d")


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, doc: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class _Tracer:
    """Span recorder installed by rebinding module attributes to wrappers."""

    def __init__(self, capture_dir: str | None) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._capture_dir = capture_dir

    def install(self) -> None:
        import importlib

        for mod_name, names in SPANNED.items():
            module = importlib.import_module(mod_name)
            for name in names:
                orig = getattr(module, name, None)
                if callable(orig):
                    self._rebind(orig, self._wrap(f"{mod_name[6:]}.{name}", orig))

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        # callers reach a function through whichever module imported it
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qwrng" or mod_name.startswith("qwrng."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    def _wrap(self, span_name: str, fn):
        import functools
        import inspect

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            info = {k: bound[k] for k in _SPAN_ARGS if isinstance(bound.get(k), int)}
            if "raw" in bound:
                info["n_raw"] = int(len(bound["raw"]))
            if span_name == "pipeline.privacy_amplify" and self._capture_dir:
                self._capture(bound)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": span_name, "parent": parent, "args": info}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _capture(self, bound: dict) -> None:
        """Save the hash inputs so the hash can be rerun alone in a fresh process."""
        import os

        import numpy as np

        np.savez(
            os.path.join(self._capture_dir, "hash_inputs.npz"),
            raw=np.asarray(bound["raw"]),
            ell=int(bound["ell"]),
            seed=int(bound["seed"]),
            d=int(bound["d"]),
        )


def _op(result_path: str, rest: list[str]) -> int:
    sep = rest.index("--")
    opts, qwrng_args = rest[:sep], rest[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    capture_dir = opts[opts.index("--capture") + 1] if "--capture" in opts else None

    import qwrng.cli

    t_imported = time.monotonic()
    tracer = None
    if spans_path is not None:
        tracer = _Tracer(capture_dir)
        tracer.install()
    start = time.perf_counter()
    rc = qwrng.cli.main(qwrng_args)
    wall = time.perf_counter() - start
    doc = {
        "t_imported": t_imported,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "qwrng_file": qwrng.cli.__file__,
    }
    if tracer is not None:
        _write(spans_path, {"spans": tracer.spans})
    _write(result_path, doc)
    return rc


def _import(result_path: str, argv: list[str]) -> int:
    import importlib

    (module,) = argv
    start = time.perf_counter()
    mod = importlib.import_module(f"qwrng.{module}")
    import_s = time.perf_counter() - start
    _write(result_path, {
        "t_imported": time.monotonic(),
        "import_s": import_s,
        "qwrng_file": mod.__file__,
    })
    return 0


def _hash(result_path: str, argv: list[str]) -> int:
    import hashlib
    import os

    import numpy as np

    from qwrng.pipeline import privacy_amplify

    (capture_dir,) = argv
    with np.load(os.path.join(capture_dir, "hash_inputs.npz")) as z:
        raw, ell, seed, d = z["raw"], int(z["ell"]), int(z["seed"]), int(z["d"])
    rss_before = _peak_rss_mb()
    start = time.perf_counter()
    out = privacy_amplify(raw, ell, seed, d=d)
    hash_s = time.perf_counter() - start
    _write(result_path, {
        "hash_s": hash_s,
        "rss_before_mb": rss_before,
        "peak_rss_mb": _peak_rss_mb(),
        "bits_sha256": hashlib.sha256(np.packbits(out).tobytes()).hexdigest(),
    })
    return 0


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _evolve(result_path: str, argv: list[str]) -> int:
    from qwrng.walk import MeasurementMode, WalkConfig, distribution, evolve

    small = WalkConfig(P=5, kappa=2, T=636)
    large = WalkConfig(P=51, kappa=4, T=2000)
    state = evolve(small)
    _write(result_path, {
        "evolve_us_per_step": 1e6 * _median_time(lambda: evolve(small), 5) / small.T,
        "evolve_us_per_step_p51k4": 1e6 * _median_time(lambda: evolve(large), 3) / large.T,
        "distribution_us": 1e6 * _median_time(
            lambda: distribution(state, MeasurementMode.POSITION_ONLY), 201),
    })
    return 0


_JOBS = {"op": _op, "import": _import, "hash": _hash, "evolve": _evolve}

if __name__ == "__main__":
    raise SystemExit(_JOBS[sys.argv[1]](sys.argv[2], sys.argv[3:]))
