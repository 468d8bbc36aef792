"""The benchmark's tracer (perfbench/tracing.py) wraps gapforge functions by
name, so a renamed function would silently drop out of its per-layer
metrics. Every traced name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_resolve():
    missing = []
    for layer, names in traced_names().items():
        mod = importlib.import_module(f"gapforge.{layer}")
        for qual in names:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{qual}")
    assert missing == []
