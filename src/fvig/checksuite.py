"""Named finite-difference checks covering every differentiable operation.

Each entry pins a small seeded input and compares the analytic gradient
against central differences; the full-model entry spot-checks randomly
selected parameters of a micro configuration through the classification
loss. Used by the ``gradcheck`` CLI command and the acceptance suite.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import cluster as cl
from . import saliency as sal
from . import tensor as T
from .gradcheck import GradCheckReport, grad_check, model_grad_check
from .model import FfnBlock, FViGModel, GrapherBlock, ModelConfig, NodeNorm, max_relative_aggregate
from .train import cross_entropy


class _ParamSet:
    """Adapter so ``model_grad_check`` can probe any collection of parameters."""

    def __init__(self, named: Iterable[tuple[str, T.Tensor]]):
        self._named = list(named)

    def named_parameters(self):
        return list(self._named)

    def zero_grad(self):
        for _, t in self._named:
            t.grad = None


def micro_config() -> ModelConfig:
    """The small end-to-end configuration used for whole-model verification."""
    return ModelConfig(
        image_size=32,
        patch_size=8,
        dim=32,
        depth=2,
        k=4,
        heads=4,
        dilation_schedule="1,2",
        num_classes=3,
    )


def _weighted_sum(out: T.Tensor, rng: np.random.Generator) -> T.Tensor:
    """Scalarize an op output so every component contributes to the loss."""
    return (out * T.Tensor(rng.normal(size=out.shape))).sum()


def build_suite(seed: int = 0) -> list[tuple[str, Callable[[float, float], GradCheckReport]]]:
    """Return (name, runner) pairs; each runner takes (h, tol) and reports."""
    suite: list[tuple[str, Callable[[float, float], GradCheckReport]]] = []

    def op(name: str):
        def register(fn):
            suite.append((name, fn))
            return fn

        return register

    @op("matmul")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(5, 3))  # 4-D as in the cluster projections

        def f(a, b):
            return _weighted_sum(T.matmul(T.as_tensor(a), T.as_tensor(b)), np.random.default_rng(seed + 1))

        reports = [grad_check(lambda t: f(t, w), x, h, tol), grad_check(lambda t: f(x, t), w, h, tol)]
        return max(reports, key=lambda r: r.max_rel_error)

    @op("broadcast_add")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10, 1))
        b = T.Tensor(rng.normal(size=(1, 1, 4)))
        return grad_check(lambda t: _weighted_sum(T.broadcast_add(t, b), np.random.default_rng(seed + 1)), x, h, tol)

    @op("multiply")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        b = T.Tensor(rng.normal(size=(10,)))
        return grad_check(lambda t: _weighted_sum(T.multiply(t, b), np.random.default_rng(seed + 1)), x, h, tol)

    @op("divide")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        b = T.Tensor(rng.uniform(0.5, 2.0, size=(10,)))
        return grad_check(lambda t: _weighted_sum(T.divide(t, b), np.random.default_rng(seed + 1)), x, h, tol)

    @op("power")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2.0, size=(10, 10))
        return grad_check(lambda t: _weighted_sum(T.power(t, -0.5), np.random.default_rng(seed + 1)), x, h, tol)

    @op("exp")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        return grad_check(lambda t: _weighted_sum(T.exp(t), np.random.default_rng(seed + 1)), x, h, tol)

    @op("log")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 3.0, size=(10, 10))
        return grad_check(lambda t: _weighted_sum(T.log(t), np.random.default_rng(seed + 1)), x, h, tol)

    @op("softmax")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        return grad_check(lambda t: _weighted_sum(T.softmax_lastdim(t), np.random.default_rng(seed + 1)), x, h, tol)

    @op("leaky_relu")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=128)
        x = np.where(np.abs(x) < 1e-3, 0.5, x)  # keep probes away from the kink
        return grad_check(lambda t: _weighted_sum(T.leaky_relu(t, 0.2), np.random.default_rng(seed + 1)), x, h, tol)

    @op("sigmoid")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=128)
        return grad_check(lambda t: _weighted_sum(T.sigmoid(t), np.random.default_rng(seed + 1)), x, h, tol)

    @op("cosine_similarity")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 9))
        b = T.Tensor(rng.normal(size=(12, 9)))
        return grad_check(
            lambda t: _weighted_sum(T.cosine_similarity(t, b), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("reduce_sum")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 5, 4))
        return grad_check(lambda t: _weighted_sum(t.sum(axis=1), np.random.default_rng(seed + 1)), x, h, tol)

    @op("reduce_mean")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 5, 4))
        return grad_check(lambda t: _weighted_sum(t.mean(axis=-1), np.random.default_rng(seed + 1)), x, h, tol)

    @op("reduce_max")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 5, 4)) * 3.0  # well-separated values keep FD off ties
        return grad_check(lambda t: _weighted_sum(t.max(axis=1), np.random.default_rng(seed + 1)), x, h, tol)

    @op("concat")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        b = T.Tensor(rng.normal(size=(10, 2)))
        return grad_check(
            lambda t: _weighted_sum(T.concat_lastdim([t, b, t]), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("slice")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 12))
        return grad_check(
            lambda t: _weighted_sum(T.slice_lastdim(t, 1, 9), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("transpose")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 5, 5))
        return grad_check(
            lambda t: _weighted_sum(T.transpose_last2(t), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("reshape")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        return grad_check(
            lambda t: _weighted_sum(T.reshape(t, (4, 25)), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("gather")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 10, 5))
        idx = rng.integers(0, 10, size=(2, 10, 4))
        return grad_check(
            lambda t: _weighted_sum(T.gather_neighbors(t, idx), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("scatter")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 5, 5, 2))
        idx = rng.integers(0, 5, size=(2, 5, 5))
        return grad_check(
            lambda t: _weighted_sum(T.scatter_add_neighbors(t, idx, 5), np.random.default_rng(seed + 1)),
            x,
            h,
            tol,
        )

    @op("dropout")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 10))
        # a fresh identically-seeded rng per call fixes the mask across FD probes
        return grad_check(
            lambda t: _weighted_sum(
                T.dropout(t, 0.3, training=True, rng=np.random.default_rng(seed + 9)),
                np.random.default_rng(seed + 1),
            ),
            x,
            h,
            tol,
        )

    @op("node_norm")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        norm = NodeNorm(6)
        norm.gain.data = rng.normal(1.0, 0.1, size=6)
        norm.bias.data = rng.normal(0.0, 0.1, size=6)
        x = rng.normal(size=(2, 10, 6))
        return grad_check(lambda t: _weighted_sum(norm(t), np.random.default_rng(seed + 1)), x, h, tol)

    @op("cross_entropy")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        labels = rng.integers(0, 10, size=10)
        return grad_check(lambda t: cross_entropy(t, labels), x, h, tol)

    def saliency_setup():
        rng = np.random.default_rng(seed)
        params = sal.ChannelSaliencyParams.initialize(6, 4, rng)
        features = T.Tensor(rng.normal(size=(2, 5, 6)))
        return params, features

    def saliency_entry(field: str):
        def run(h, tol):
            params, features = saliency_setup()
            original = getattr(params, field)

            def f(t: T.Tensor) -> T.Tensor:
                setattr(params, field, t)  # graph links to the probed leaf
                alpha = sal.channel_saliency_forward(features, params)
                return _weighted_sum(alpha, np.random.default_rng(seed + 1))

            try:
                return grad_check(f, original.data, h, tol)
            finally:
                setattr(params, field, original)

        return run

    # probing structure parameters: rebind the leaf, run the chain, restore
    for field_name in ("weight", "self_score", "neighbor_score"):
        suite.append((f"channel_saliency.{field_name}", saliency_entry(field_name)))

    def cluster_setup():
        rng = np.random.default_rng(seed)
        params = cl.ClusterParams.initialize(8, 8, 2, rng)
        params.gate_scale.data = rng.normal(1.0, 0.2, size=2)
        params.gate_shift.data = rng.normal(0.0, 0.2, size=2)
        features = T.Tensor(rng.normal(size=(2, 6, 8)))
        adjacency = np.stack(
            [np.stack([np.array([i, (i + 1) % 6, (i + 3) % 6]) for i in range(6)]) for _ in range(2)]
        )
        return params, features, adjacency

    def cluster_entry(field: str):
        def run(h, tol):
            params, features, adjacency = cluster_setup()
            original = getattr(params, field)

            def f(t: T.Tensor) -> T.Tensor:
                setattr(params, field, t)
                out = cl.cluster_block(features, adjacency, params)
                return _weighted_sum(out, np.random.default_rng(seed + 1))

            try:
                return grad_check(f, original.data, h, tol)
            finally:
                setattr(params, field, original)

        return run

    for field_name in ("gate_scale", "gate_shift", "weight_in", "weight_out"):
        suite.append((f"cluster.{field_name}", cluster_entry(field_name)))

    @op("cluster.features")
    def _(h, tol):
        params, features, adjacency = cluster_setup()
        return grad_check(
            lambda t: _weighted_sum(cl.cluster_block(t, adjacency, params), np.random.default_rng(seed + 1)),
            features.data,
            h,
            tol,
        )

    @op("max_relative")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 10, 5)) * 2.0
        idx = rng.integers(0, 10, size=(2, 10, 3))
        return grad_check(
            lambda t: _weighted_sum(max_relative_aggregate(t, idx), np.random.default_rng(seed + 1)), x, h, tol
        )

    @op("grapher_block")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        config = micro_config()
        block = GrapherBlock(config, dilation=1, rng=rng)
        x = T.Tensor(rng.normal(size=(2, config.num_nodes, config.dim)))
        shim = _ParamSet(block.parameters())
        return model_grad_check(
            shim,
            lambda: _weighted_sum(block.forward(x)[0], np.random.default_rng(seed + 1)),
            num_params=16,
            h=h,
            tol=tol,
            rng=np.random.default_rng(seed + 2),
        )

    @op("ffn_block")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        config = micro_config()
        block = FfnBlock(config, rng=rng)
        x = T.Tensor(rng.normal(size=(2, config.num_nodes, config.dim)))
        shim = _ParamSet(block.parameters())
        return model_grad_check(
            shim,
            lambda: _weighted_sum(block.forward(x), np.random.default_rng(seed + 1)),
            num_params=16,
            h=h,
            tol=tol,
            rng=np.random.default_rng(seed + 2),
        )

    @op("model")
    def _(h, tol):
        rng = np.random.default_rng(seed)
        config = micro_config()
        model = FViGModel(config, rng=np.random.default_rng(seed + 3))
        images = rng.random((2, 3, config.image_size, config.image_size))
        labels = rng.integers(0, config.num_classes, size=2)
        return model_grad_check(
            model,
            lambda: cross_entropy(model.forward(images, training=False), labels),
            num_params=20,
            h=h,
            tol=tol,
            rng=np.random.default_rng(seed + 4),
        )

    return suite


def run_suite(
    tol: float = 1e-4, h: float = 1e-6, only: str | None = None, seed: int = 0
) -> list[tuple[str, GradCheckReport]]:
    """Run all (or name-filtered) checks and return their reports."""
    results = []
    for name, runner in build_suite(seed):
        if only is not None and only not in name:
            continue
        results.append((name, runner(h, tol)))
    if only is not None and not results:
        raise ValueError(f"no gradient check matches '{only}'")
    return results
