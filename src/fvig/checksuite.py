"""Named finite-difference checks covering every differentiable operation.

Each entry pins a small seeded input and compares the analytic gradient
against central differences; the full-model entry spot-checks randomly
selected parameters of a micro configuration through the classification
loss. Used by the ``gradcheck`` CLI command and the acceptance suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import cluster as cl
from . import saliency as sal
from . import tensor as T
from .gradcheck import TOL, GradCheckReport, model_grad_check
from .model import ConfigError, FfnBlock, FViGModel, GrapherBlock, ModelConfig, NodeNorm, max_relative_aggregate, named_parameters
from .train import cross_entropy


def micro_config() -> ModelConfig:
    """The small end-to-end configuration used for whole-model verification."""
    return ModelConfig(
        image_size=32, patch_size=8, dim=32, depth=2, k=4, heads=4, dilation_schedule="1,2", num_classes=3
    )


def build_suite(seed: int) -> list[tuple[str, Callable, tuple[int, int] | None]]:
    """Return ``(name, setup, probes)`` rows; ``setup(rng)`` gives the named leaves as a list and the loss."""

    def weigh(out: T.Tensor) -> T.Tensor:
        """Scalarize an op output with fixed weights so every component contributes to the loss."""
        if out.ndim == 0:  # already a loss
            return out
        return (out * T.Tensor(np.random.default_rng(seed + 1).normal(size=out.shape))).sum()

    def op_setup(make_inputs, fn, names=("x",)):
        """Probe the first ``len(names)`` inputs of ``fn(*probed, *fixed)``; ``worst_at`` names one."""

        def setup(rng):
            inputs = make_inputs(rng)
            probed = [T.Tensor(T.as_tensor(v).data, requires_grad=True) for v in inputs[: len(names)]]
            return list(zip(names, probed)), lambda: weigh(fn(*probed, *inputs[len(names) :]))

        return setup

    def field_rows(group: str, make_inputs, fn):
        """A row per live parameter of ``fn(*inputs, params)``, named as ``params``'s constructor assigns it."""

        def field_setup(field):
            def setup(rng):
                *inputs, params = make_inputs(rng)
                return [(field, getattr(params, field))], lambda: weigh(fn(*inputs, params))

            return setup

        *_, params = make_inputs(np.random.default_rng(seed))
        return [(f"{group}.{field}", field_setup(field), None) for field, _ in named_parameters(params)]

    def block_setup(make_block, fn):
        """The parameters of a block built on the micro configuration."""

        def setup(rng):
            config = micro_config()
            block = make_block(config, rng)
            x = T.Tensor(rng.normal(size=(2, config.num_nodes, config.dim)))
            return list(named_parameters(block)), lambda: weigh(fn(block, x))

        return setup

    def model_setup(rng):
        config = micro_config()
        model = FViGModel(config, rng=np.random.default_rng(seed + 3))
        images = rng.random((2, 3, config.image_size, config.image_size))
        labels = rng.integers(0, config.num_classes, size=2)
        return model.named_parameters(), lambda: cross_entropy(model.forward(images, training=False), labels)

    def off_kink(rng):
        x = rng.normal(size=128)
        return (np.where(np.abs(x) < 1e-3, 0.5, x),)  # keep probes away from the kink

    def node_norm_inputs(rng):
        norm = NodeNorm(6)
        norm.gain.data = rng.normal(1.0, 0.1, size=6)
        norm.bias.data = rng.normal(0.0, 0.1, size=6)
        return rng.normal(size=(2, 10, 6)), norm

    def saliency_inputs(rng):
        params = sal.ChannelSaliencyParams(6, 4, rng, ModelConfig.leaky_slope)
        return T.Tensor(rng.normal(size=(2, 5, 6))), params

    def cluster_inputs(rng):
        params = cl.ClusterParams(8, 8, 2, rng)
        params.gate_scale.data = rng.normal(1.0, 0.2, size=2)
        params.gate_shift.data = rng.normal(0.0, 0.2, size=2)
        features = T.Tensor(rng.normal(size=(2, 6, 8)))
        adjacency = np.stack(
            [np.stack([np.array([i, (i + 1) % 6, (i + 3) % 6]) for i in range(6)]) for _ in range(2)]
        )
        return features, adjacency, params

    def max_relative_inputs(rng):
        return rng.normal(size=(2, 10, 5)) * 2.0, rng.integers(0, 10, size=(2, 10, 3))

    def gated_inputs(rng):
        return rng.uniform(0.2, 1.0, size=(2, 7, 3, 2)), rng.normal(size=(2, 7, 6)), rng.integers(0, 7, size=(2, 7, 3))

    def normal(*shape):
        return lambda rng: (rng.normal(size=shape),)

    # (name, make_inputs(rng) -> (*probed arrays, *fixed operands), op(*probed, *fixed)[, probed names])
    ops = [
        # rank 4: all leading dims fold into GEMM rows
        ("matmul", lambda r: (r.normal(size=(2, 3, 4, 5)), r.normal(size=(5, 3))), T.matmul, ("a", "b")),
        # a center [.., 1, heads, dh] against its members [.., K, heads, dh]: the broadcasting backward
        # that composed_neighbor_cosine, the reference of the fused neighbor_cosine, relies on
        (
            "cosine_similarity_broadcast",
            lambda r: (r.normal(size=(3, 1, 2, 5)), r.normal(size=(3, 4, 2, 5))),
            T.cosine_similarity,
            ("a", "b"),
        ),
        # the fused neighbor ops: 2 heads of width 3 over 7 nodes, random indices with repeats
        ("gated_gather_sum", gated_inputs, T.gated_gather_sum, ("gates", "rows")),
        ("gated_scatter_sum", gated_inputs, T.gated_scatter_sum, ("gates", "rows")),
        (
            "neighbor_cosine",
            lambda r: (r.normal(size=(2, 7, 6)), r.normal(size=(2, 7, 6)), r.integers(0, 7, size=(2, 7, 3))),
            lambda c, x, idx: T.neighbor_cosine(c, x, idx, 2),
            ("centers", "x"),
        ),
        ("broadcast_add", lambda r: (r.normal(size=(10, 10, 1)), r.normal(size=(1, 1, 4))), T.broadcast_add),
        ("multiply", lambda r: (r.normal(size=(10, 10)), r.normal(size=(10,))), T.multiply),
        ("divide", lambda r: (r.normal(size=(10, 10)), r.uniform(0.5, 2.0, size=(10,))), T.divide),
        ("power", lambda r: (r.uniform(0.5, 2.0, size=(10, 10)),), lambda t: T.power(t, -0.5)),
        ("exp", normal(10, 10), T.exp),
        ("log", lambda r: (r.uniform(0.5, 3.0, size=(10, 10)),), T.log),
        ("softmax", normal(10, 10), T.softmax_lastdim),
        ("leaky_relu", off_kink, lambda t: T.leaky_relu(t, ModelConfig.leaky_slope)),
        ("sigmoid", normal(128), T.sigmoid),
        ("cosine_similarity", lambda r: (r.normal(size=(12, 9)), r.normal(size=(12, 9))), T.cosine_similarity),
        ("reduce_sum", normal(5, 5, 4), lambda t: t.sum(axis=1)),
        ("reduce_mean", normal(5, 5, 4), lambda t: t.mean(axis=-1)),
        # well-separated values keep FD off ties
        ("reduce_max", lambda r: (r.normal(size=(5, 5, 4)) * 3.0,), lambda t: t.max(axis=1)),
        (
            "concat",
            lambda r: (r.normal(size=(10, 10)), r.normal(size=(10, 2))),
            lambda t, b: T.concat_lastdim([t, b, t]),
        ),
        ("slice", normal(10, 12), lambda t: T.slice_lastdim(t, 1, 9)),
        ("transpose", normal(4, 5, 5), T.transpose_last2),
        ("reshape", normal(10, 10), lambda t: T.reshape(t, (4, 25))),
        ("gather", lambda r: (r.normal(size=(2, 10, 5)), r.integers(0, 10, size=(2, 10, 4))), T.gather_neighbors),
        # well-separated values keep FD off ties between distinct neighbors
        ("gather_max", lambda r: (r.normal(size=(2, 10, 5)) * 3.0, r.integers(0, 10, size=(2, 10, 4))), T.gather_max),
        (
            "scatter",
            lambda r: (r.normal(size=(2, 5, 5, 2)), r.integers(0, 5, size=(2, 5, 5))),
            lambda t, idx: T.scatter_add_neighbors(t, idx, 5),
        ),
        # a fresh identically-seeded rng per call fixes the mask across FD probes
        ("dropout", normal(20, 10), lambda t: T.dropout(t, 0.3, training=True, rng=np.random.default_rng(seed + 9))),
        ("node_norm", node_norm_inputs, lambda t, norm: norm(t)),
        ("cross_entropy", lambda r: (r.normal(size=(10, 10)), r.integers(0, 10, size=10)), cross_entropy),
    ]
    return [
        *[(name, op_setup(*row), None) for name, *row in ops],
        *field_rows("channel_saliency", saliency_inputs, sal.channel_saliency_forward),
        *field_rows("cluster", cluster_inputs, cl.cluster_block),
        ("cluster.features", op_setup(cluster_inputs, cl.cluster_block), None),
        ("max_relative", op_setup(max_relative_inputs, max_relative_aggregate), None),
        ("grapher_block", block_setup(lambda c, r: GrapherBlock(c, dilation=1, rng=r), lambda b, x: b.forward(x)[0]),
         (16, 2)),
        ("ffn_block", block_setup(lambda c, r: FfnBlock(c, rng=r), lambda b, x: b.forward(x)), (16, 2)),
        ("model", model_setup, (20, 4)),
    ]


def run_suite(tol: float = TOL, only: str | None = None, seed: int = 0) -> list[tuple[str, GradCheckReport]]:
    """Run all (or name-filtered) rows at ``fvig.gradcheck``'s step ``H`` and return their reports.

    Each row's set-up draws from ``default_rng(seed)``. Its check probes every leaf entry, or with
    ``probes = (count, offset)`` that many entries drawn by ``default_rng(seed + offset)``.
    """
    results = []
    for name, setup, probes in build_suite(seed):
        if only is None or only in name:
            leaves, loss = setup(np.random.default_rng(seed))
            count, offset = probes or (sum(t.size for _, t in leaves), 0)
            rng = np.random.default_rng(seed + offset)
            results.append((name, model_grad_check(leaves, loss, count, tol=tol, rng=rng)))
    if only is not None and not results:
        raise ConfigError(f"no gradient check matches '{only}'")
    return results
