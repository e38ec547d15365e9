"""The program surface that the benchmark's tracer wraps by name."""

import importlib.util
from pathlib import Path

from mdg.diagrams import algebra_for

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_wraps_every_traced_function(pi3):
    # start_tracing looks up every traced function by module and name, so a
    # rename fails here; the call is the three-slot form worker.py uses
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.start_tracing()
    try:
        algebra_for(pi3).diagrams_within((3, 2, 3))
    finally:
        tracer.stop_tracing()
    assert tracer.metrics()["diagrams.diagrams_within.calls"] == 1
