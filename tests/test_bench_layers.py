"""The benchmark's tracer patches adaseries names by lookup; they must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_names_an_existing_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}: {getattr(owner, '__name__', owner)}.{attr}"
               for layer, owner, attr, _ in tracing.LAYERS if attr not in vars(owner)]
    assert not missing, f"bench/tracing.py patches names that no longer exist: {missing}"
