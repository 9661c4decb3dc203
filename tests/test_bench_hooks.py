"""The benchmark's tracer must find every name it hooks in fvig.

``bench/tracing.py`` wraps fvig functions by module path and name; a name
it cannot find is skipped and its layer reads 0. A rename in fvig must
therefore fail here rather than silently zero a benchmark layer.
"""

import importlib.util
import inspect
from pathlib import Path

from fvig import graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_and_op_resolves():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert len(tracing.LAYERS) > 0 and len(tracing.OPS + tracing.OTHER_OPS) > 0
    assert missing == []


def test_hooked_signatures():
    # the tracer reads dilation from the fourth positional argument and
    # the distance kernel's input from the first
    params = list(inspect.signature(graph.build_graph).parameters.values())
    assert [p.name for p in params[:4]] == ["features", "k", "alpha", "dilation"]
    assert params[3].default == 1
    assert list(inspect.signature(graph.pairwise_sq_euclidean).parameters)[0] == "features"
