"""The program surface that the benchmark's tracer wraps by name."""

import importlib.util
from pathlib import Path

from mdg.diagrams import algebra_for

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_wraps_every_traced_function(pi3):
    # start_tracing looks up every traced function by module and name, so a
    # rename fails here; the call is the three-slot form worker.py uses.
    # The recorders read CohomologyBlock.healed and the rows, cols and nnz
    # of each matrix passed to linalg.rank, so the block is traced too.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.start_tracing()
    try:
        algebra_for(pi3).diagrams_within((3, 2, 3))
        algebra_for(pi3).cohomology_block(pi3.top, (3, 2))
    finally:
        tracer.stop_tracing()
    metrics = tracer.metrics()
    assert metrics["diagrams.diagrams_within.calls"] == 2
    assert metrics["diagrams.cohomology_block.healed"] == 0
    assert metrics["linalg.rank.calls"] > 0
