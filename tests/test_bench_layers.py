"""Every function the bench tracer wraps is still in stancelab.

``bench/traced.py`` replaces each (module, function) of its LAYERS table and
skips one the package no longer has, so a renamed or deleted layer function
would read 0 in the benchmark's per-layer figures without any error.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"

# Deleted with the set-based vectorizer; the benchmark still reports its
# counters, which read 0 until the benchmark retires them.
GONE = {("features", "vectorize")}


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = {target for group in traced.LAYERS.values() for target in group}
    missing = {
        (module, name) for module, name in targets - GONE
        if not callable(getattr(importlib.import_module(f"stancelab.{module}"), name, None))
    }
    assert not missing, f"bench/traced.py wraps functions stancelab lacks: {sorted(missing)}"
