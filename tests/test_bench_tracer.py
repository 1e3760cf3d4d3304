"""The benchmark's span tracer in perfbench/tracer.py still finds every padia
name it looks up, so deleting one fails here and not only in traced runs."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bench_tracer", SCRIPT)
tracer = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracer  # dataclasses look their module up there
spec.loader.exec_module(tracer)


def test_layer_metrics_of_an_empty_pass():
    metrics = tracer.layer_metrics(tracer.Tracer().snapshot())
    assert metrics["sweeps.emit_s"] == 0.0
    assert metrics["dynamics.rounds"] == 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)
