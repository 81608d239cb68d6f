"""The traced benchmark in ``perfbench/`` wraps package functions by name; each must exist."""

from pathlib import Path


def test_every_function_the_traced_benchmark_wraps_exists(monkeypatch):
    # perfbench skips a name it cannot find and lists it in ``missing``, so a rename
    # would only turn a per-layer metric into 0
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import layers
    import tracing

    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
