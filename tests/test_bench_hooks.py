"""The benchmark's tracer must find every name it hooks in fvig.

``bench/tracing.py`` wraps fvig functions by module path and name; a name
it cannot find is skipped and its layer reads 0. A rename in fvig must
therefore fail here rather than silently zero a benchmark layer. The
tracer also walks the autodiff graph through ``Tensor._parents``,
``Tensor._backward_rule`` and the rules' captured arrays, so a change to
those internals must fail here rather than only in a traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from fvig import checksuite, graph, train
from fvig.model import FViGModel, ModelConfig

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


MID = ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4)


def training_loss(config: ModelConfig, batch: int):
    """A training-mode cross-entropy loss, looked up at call time so an installed tracer sees it."""
    rng = np.random.default_rng(0)
    model = FViGModel(config, rng=rng)
    images = rng.random((batch, 3, config.image_size, config.image_size))
    labels = rng.integers(0, config.num_classes, size=batch)
    return train.cross_entropy(model.forward(images, training=True, rng=rng), labels)


# The traced benchmark reads tensor.graph_nodes_per_step and tensor.graph_bytes_held off this walk
# over Tensor._backward_rule, Tensor._parents and the arrays each rule captured. Bytes are bounds:
# measured 3,656,888 (micro) and 25,586,856 (mid) with value-free graph nodes.
@pytest.mark.parametrize(
    "config, batch, nodes, max_bytes",
    [(checksuite.micro_config(), 16, 129, 4_000_000), (MID, 8, 241, 28_000_000)],
    ids=["micro-b16", "mid-b8"],
)
def test_graph_footprint_walks_a_training_loss(config, batch, nodes, max_bytes):
    held_nodes, held_bytes = load_tracing().graph_footprint(training_loss(config, batch))
    assert held_nodes == nodes
    assert 0 < held_bytes <= max_bytes


def test_installed_tracer_times_and_counts_the_backward():
    # the tracer wraps each op's rule through the Tensor._backward_rule setter and reads
    # matmul's operands through Tensor._parents
    tracing = load_tracing()
    untraced = tracing.graph_footprint(training_loss(checksuite.micro_config(), 16))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training_loss(checksuite.micro_config(), 16).backward()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert (metrics["tensor.graph_nodes_per_step"], metrics["tensor.graph_bytes_held"]) == untraced
    assert metrics["tensor.matmul.flops"] > 0 and metrics["tensor.matmul.bwd_s"] > 0
    assert metrics["tensor.Tensor.backward.calls"] == 1
