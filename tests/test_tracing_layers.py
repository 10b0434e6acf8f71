"""The benchmark's span tracer names layer functions of braidtrace by
module and function; each name must still resolve, or a traced run fails
to install.  Read from perfbench/tracing.py, which imports no braidtrace."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{name}"
        for mod, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"braidtrace.{mod}"), name, None))
    ]
    assert not missing
