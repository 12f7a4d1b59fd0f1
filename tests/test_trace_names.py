"""The names the benchmark's traced runs wrap must exist in the package.

`perfbench/child.py` times every function named in its `SPANNED` table and
skips a name that no longer resolves, so a rename would silently drop a
per-layer metric.  The file imports only `sys` and `time` at module level,
so it loads here by path without running anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _function(mod_name, name):
    return getattr(importlib.import_module(mod_name), name, None)


def test_every_spanned_name_is_a_function():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{mod_name}.{name}" for mod_name, names in child.SPANNED.items()
               for name in names if not callable(_function(mod_name, name))]
    assert not missing, f"traced by perfbench but not in the package: {missing}"


def test_spans_read_their_size_arguments():
    for mod_name, name, params in (
        ("qwrng.maxprob", "g_functions", ("P", "kappa")),
        ("qwrng.pipeline", "privacy_amplify", ("ell", "d")),
    ):
        signature = inspect.signature(_function(mod_name, name))
        for param in params:
            assert param in signature.parameters, f"{mod_name}.{name} lost {param!r}"
