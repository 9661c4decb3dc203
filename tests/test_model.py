"""Network assembly tests: patchify oracle, baseline equivalence, census, checkpoints."""

import dataclasses
import itertools
import weakref

import numpy as np
import pytest

import fvig.model
import fvig.tensor
from fvig import checksuite
from fvig.checkpoint import CheckpointError, load_checkpoint
from fvig.cli import main
from fvig.gradcheck import model_grad_check
from fvig.graph import pairwise_sq_euclidean, select_neighbors
from fvig.model import (
    EVAL_BATCH,
    ConfigError,
    FfnBlock,
    FViGModel,
    GrapherBlock,
    ModelConfig,
    NodeNorm,
    config_text,
    count_params,
    max_relative_aggregate,
    named_parameters,
    parse_config_text,
    patchify,
)
from fvig.tensor import (
    Tensor, concat_lastdim, gather_neighbors, leaky_relu, matmul, no_grad, reshape, softmax_lastdim
)
from fvig.train import TrainConfig
from test_tensor import edge_sized_buffers


def micro_config(**overrides):
    return dataclasses.replace(checksuite.micro_config(), **overrides)


class TestPatchEmbed:
    def test_node_count(self):
        cfg = micro_config()
        assert cfg.num_nodes == 16
        model = FViGModel(cfg, rng=np.random.default_rng(0))
        logits = model.forward(np.zeros((1, 3, 32, 32)))
        assert logits.shape == (1, 3)

    def test_zero_image_zero_bias_gives_positional_only(self):
        cfg = micro_config()
        model = FViGModel(cfg, rng=np.random.default_rng(1))
        x = patchify(np.zeros((1, 3, 32, 32)), 8)
        embedded = x @ model.embed.weight.data + model.embed.bias.data
        np.testing.assert_array_equal(embedded, np.zeros((1, 16, 32)))

    def test_patchify_vs_explicit_loop(self):
        rng = np.random.default_rng(2)
        images = rng.random((2, 3, 16, 16))
        p = 4
        out = patchify(images, p)
        grid = 4
        for b in range(2):
            for gi in range(grid):
                for gj in range(grid):
                    node = gi * grid + gj
                    expected = []
                    for c in range(3):
                        for u in range(p):
                            for v in range(p):
                                expected.append(images[b, c, gi * p + u, gj * p + v])
                    np.testing.assert_array_equal(out[b, node], expected)

    def test_wrong_image_size_rejected(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(3))
        with pytest.raises(ConfigError, match="expected images"):
            model.forward(np.zeros((1, 3, 16, 16)))


class TestMaxRelative:
    def test_identical_neighbors_give_zero_relative_part(self):
        v = np.tile(np.array([1.0, -2.0, 0.5]), (1, 4, 1))
        adj = np.tile(np.arange(4)[None, :, None], (1, 1, 2))
        adj[0, :, 1] = (np.arange(4) + 1) % 4
        out = max_relative_aggregate(Tensor(v), adj)
        np.testing.assert_array_equal(out.data[..., :3], v)
        np.testing.assert_array_equal(out.data[..., 3:], np.zeros((1, 4, 3)))

    def test_self_only_neighborhood(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(2, 5, 3))
        adj = np.tile(np.arange(5)[None, :, None], (2, 1, 1))
        out = max_relative_aggregate(Tensor(v), adj)
        np.testing.assert_array_equal(out.data[..., 3:], np.zeros((2, 5, 3)))

    def test_random_vs_loop_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(2, 6, 4))
        adj = np.stack([np.stack([np.array([i, (i + 2) % 6, (i + 4) % 6]) for i in range(6)])] * 2)
        out = max_relative_aggregate(Tensor(v), adj).data
        for b in range(2):
            for i in range(6):
                rel = np.full(4, -np.inf)
                for j in adj[b, i]:
                    rel = np.maximum(rel, v[b, j] - v[b, i])
                np.testing.assert_allclose(out[b, i], np.concatenate([v[b, i], rel]), atol=1e-12)

    def test_forward_bit_equal_to_subtract_then_max(self):
        rng = np.random.default_rng(6)
        b, n, k, d = 3, 12, 5, 4
        # per-node scales from 1e-3 to 1e16: next to a large |x_i| every x_j - x_i rounds
        v = rng.normal(size=(b, n, d)) * 10.0 ** rng.uniform(-3, 16, size=(b, n, 1))
        adj = rng.integers(0, n, size=(b, n, k))
        relative = v[np.arange(b)[:, None, None], adj] - v[:, :, None, :]
        expected = np.concatenate([v, relative.max(axis=2)], axis=-1)
        assert max_relative_aggregate(Tensor(v), adj).data.tobytes() == expected.tobytes()

    def test_gradient_goes_to_first_argmax_under_ties_and_duplicates(self):
        # small integers: ties are exact and every gradient sum is exact
        rng = np.random.default_rng(7)
        b, n, k, d = 2, 6, 4, 3
        v = rng.integers(-1, 2, size=(b, n, d)).astype(np.float64)
        v[:, 3] = v[:, 1]  # two equal-valued nodes
        adj = rng.integers(0, n, size=(b, n, k))
        adj[..., -1] = adj[..., 0]  # a duplicate index in every row
        w = rng.integers(-3, 4, size=(b, n, 2 * d)).astype(np.float64)
        x = Tensor(v, requires_grad=True)
        (max_relative_aggregate(x, adj) * Tensor(w)).sum().backward()
        expected = w[..., :d].copy()
        for bi, i, c in itertools.product(range(b), range(n), range(d)):
            values = v[bi, adj[bi, i], c]
            first = next(j for j, value in zip(adj[bi, i], values) if value == values.max())
            expected[bi, first, c] += w[bi, i, d + c]
            expected[bi, i, c] -= w[bi, i, d + c]
        np.testing.assert_array_equal(x.grad, expected)

    def test_graph_holds_no_edge_sized_array(self):
        b, n, k, d = 2, 6, 5, 4
        x = Tensor(np.random.default_rng(8).normal(size=(b, n, d)), requires_grad=True)
        out = max_relative_aggregate(x, np.random.default_rng(9).integers(0, n, size=(b, n, k)))
        # gather_max holds x and the index; its backward gathers again
        assert edge_sized_buffers(out, b * n * k * d) == []


def baseline_block_forward(block: GrapherBlock, x: Tensor) -> Tensor:
    """Straight-line reimplementation of the flags-off block (plain KNN + max-relative conv)."""
    normed = block.norm(x)
    adjacency = select_neighbors(pairwise_sq_euclidean(normed.data), block.config.k)
    b, n, d = normed.shape
    neighbors = gather_neighbors(normed, adjacency)
    relative = neighbors - reshape(normed, (b, n, 1, d))
    agg = concat_lastdim([normed, relative.max(axis=2)])
    y = leaky_relu(matmul(agg, block.agg.weight) + block.agg.bias, block.config.leaky_slope)
    y = matmul(y, block.update.weight) + block.update.bias
    return x + y


class TestNodeNorm:
    def test_square_is_freed_and_gradients_are_exact(self, monkeypatch):
        squares = []
        multiply = fvig.tensor.multiply

        def recording(a, b):
            out = multiply(a, b)
            if a is b:
                squares.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(fvig.tensor, "multiply", recording)
        rng = np.random.default_rng(46)
        norm = NodeNorm(4)
        norm.gain.data = rng.normal(1.0, 0.1, size=4)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(2, 3, 4))
        loss = (norm(x) * Tensor(w)).sum()
        assert len(squares) == 1 and squares[0]() is None  # no rule reads x*x: the graph keeps its node only
        loss.backward()
        centered = x.data - x.data.mean(axis=-1, keepdims=True)
        inv = ((centered * centered).mean(axis=-1, keepdims=True) + NodeNorm.EPS) ** -0.5
        xhat, dxhat = centered * inv, w * norm.gain.data
        expected = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        np.testing.assert_allclose(x.grad, expected, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(norm.gain.grad, (w * xhat).sum(axis=(0, 1)), rtol=1e-13)
        np.testing.assert_allclose(norm.bias.grad, w.sum(axis=(0, 1)), rtol=1e-13)


class TestGrapherBlock:
    def test_flags_off_equals_baseline_bit_for_bit(self):
        cfg = micro_config(
            use_channel_saliency=False, use_spatial_saliency=False, use_dilation=False
        )
        rng = np.random.default_rng(6)
        block = GrapherBlock(cfg, dilation=1, rng=rng)
        x = Tensor(np.random.default_rng(7).normal(size=(2, 16, 32)))
        flagged, _ = block.forward(x, training=False)
        baseline = baseline_block_forward(block, x)
        np.testing.assert_array_equal(flagged.data, baseline.data)

    def test_output_shape_matches_input(self):
        for flags in [(True, True, True), (False, True, False), (True, False, True)]:
            cfg = micro_config(
                use_channel_saliency=flags[0],
                use_spatial_saliency=flags[1],
                use_dilation=flags[2],
            )
            block = GrapherBlock(cfg, dilation=1, rng=np.random.default_rng(8))
            x = Tensor(np.random.default_rng(9).normal(size=(2, 16, 32)))
            out, adjacency = block.forward(x)
            assert out.shape == x.shape
            assert adjacency.shape == (2, 16, 4)

    def test_conv_weights_pass_gradcheck(self):
        cfg = micro_config()
        block = GrapherBlock(cfg, dilation=1, rng=np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).normal(size=(1, 16, 32)))
        w = Tensor(np.random.default_rng(12).normal(size=(1, 16, 32)))
        rng = np.random.default_rng(13)
        for attr in ("agg", "update"):
            report = model_grad_check(
                [(attr, getattr(block, attr).weight)], lambda: (block.forward(x)[0] * w).sum(), num_params=24, tol=1e-4, rng=rng
            )
            assert report.passed and report.num_checked == 24, (attr, report)


class TestFfnBlock:
    def test_zero_weights_is_identity(self):
        cfg = micro_config()
        block = FfnBlock(cfg, rng=np.random.default_rng(14))
        for t in (block.w1, block.b1, block.w2, block.b2):
            t.data[:] = 0
        x = Tensor(np.random.default_rng(15).normal(size=(2, 16, 32)))
        np.testing.assert_array_equal(block.forward(x).data, x.data)

    def test_shape_preserved(self):
        block = FfnBlock(micro_config(), rng=np.random.default_rng(16))
        x = Tensor(np.random.default_rng(17).normal(size=(3, 16, 32)))
        assert block.forward(x).shape == x.shape

    def test_linears_pass_gradcheck(self):
        block = FfnBlock(micro_config(), rng=np.random.default_rng(18))
        x = Tensor(np.random.default_rng(19).normal(size=(1, 16, 32)))
        w = Tensor(np.random.default_rng(20).normal(size=(1, 16, 32)))
        rng = np.random.default_rng(21)
        for attr in ("w1", "w2"):
            report = model_grad_check(
                [(attr, getattr(block, attr))], lambda: (block.forward(x) * w).sum(), num_params=24, tol=1e-4, rng=rng
            )
            assert report.passed and report.num_checked == 24, (attr, report)


class TestForward:
    def test_default_config_emits_nine_classes(self):
        model = FViGModel(ModelConfig(), rng=np.random.default_rng(22))
        logits = model.forward(np.random.default_rng(23).random((2, 3, 32, 32)))
        assert logits.shape == (2, 9)

    def test_softmax_of_logits_sums_to_one(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(24))
        logits = model.forward(np.random.default_rng(25).random((3, 3, 32, 32)))
        probs = softmax_lastdim(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_patch_permutation_invariance_without_positional(self):
        cfg = micro_config(use_positional_embedding=False)
        model = FViGModel(cfg, rng=np.random.default_rng(26))
        rng = np.random.default_rng(27)
        image = rng.random((1, 3, 32, 32))
        perm = rng.permutation(16)
        permuted = np.empty_like(image)
        for dst, src in enumerate(perm):
            si, sj = divmod(int(src), 4)
            di, dj = divmod(dst, 4)
            permuted[:, :, di * 8 : (di + 1) * 8, dj * 8 : (dj + 1) * 8] = image[
                :, :, si * 8 : (si + 1) * 8, sj * 8 : (sj + 1) * 8
            ]
        a = model.forward(image).data
        b = model.forward(permuted).data
        assert np.abs(a - b).max() <= 1e-6

    def test_eval_mode_deterministic(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(28))
        image = np.random.default_rng(29).random((2, 3, 32, 32))
        np.testing.assert_array_equal(model.forward(image).data, model.forward(image).data)

    def test_same_seed_same_logits(self):
        image = np.random.default_rng(30).random((2, 3, 32, 32))
        a = FViGModel(micro_config(), rng=np.random.default_rng(31)).forward(image).data
        b = FViGModel(micro_config(), rng=np.random.default_rng(31)).forward(image).data
        np.testing.assert_array_equal(a, b)

    def test_zeroed_blocks_reduce_to_embed_pool_head(self):
        cfg = micro_config()
        model = FViGModel(cfg, rng=np.random.default_rng(32))
        for name, t in model.named_parameters():
            if name.startswith("blocks."):
                t.data[:] = 0
        image = np.random.default_rng(33).random((2, 3, 32, 32))
        logits = model.forward(image).data
        tokens = patchify(image, 8)
        embedded = tokens @ model.embed.weight.data + model.embed.bias.data + model.positional.data
        expected = embedded.mean(axis=1) @ model.head.weight.data + model.head.bias.data
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_non_finite_features_error_names_the_block(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(36))
        model.blocks[1].grapher.norm.gain.data[:] = np.nan
        with pytest.raises(ValueError, match=r"^block 1: features hold \d+ non-finite values \(NaN or Inf\)$"):
            model.forward(np.random.default_rng(37).random((2, 3, 32, 32)))

    def test_adjacency_trace_collected_per_layer(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(34))
        collected = []
        model.forward(np.random.default_rng(35).random((1, 3, 32, 32)), adjacency_out=collected)
        assert len(collected) == 2
        assert all(adj.shape == (1, 16, 4) for adj in collected)


def _micro_batch_gradients(eval_first=False):
    """Named parameter gradients after one training-mode micro batch through the loss."""
    from fvig.train import cross_entropy, eval_accuracy

    model = FViGModel(micro_config(), rng=np.random.default_rng(42))
    rng = np.random.default_rng(43)
    images = rng.random((4, 3, 32, 32))
    labels = np.array([0, 1, 2, 1])
    if eval_first:
        eval_accuracy(model, images, labels)
    cross_entropy(model.forward(images, training=True, rng=rng), labels).backward()
    return [(name, t.grad) for name, t in model.named_parameters()]


def _reached(grad) -> bool:
    return grad is not None and bool(np.all(np.isfinite(grad))) and bool(np.any(grad != 0.0))


def _is_saliency(name: str) -> bool:
    return name.startswith("blocks.") and ".grapher.saliency." in name


class TestGradientReach:
    def test_every_non_saliency_parameter_gets_a_gradient(self):
        grads = _micro_batch_gradients()
        checked = [name for name, _ in grads if not _is_saliency(name)]
        assert len(checked) == 37
        unreached = [name for name, g in grads if not _is_saliency(name) and not _reached(g)]
        assert unreached == []

    def test_training_after_graph_free_eval_still_reaches_every_parameter(self):
        grads = _micro_batch_gradients(eval_first=True)
        checked = [name for name, g in grads if not _is_saliency(name) and _reached(g)]
        assert len(checked) == 37

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    def test_channel_saliency_parameters_get_a_gradient(self):
        grads = [(name, g) for name, g in _micro_batch_gradients() if _is_saliency(name)]
        assert len(grads) == 6
        assert [name for name, g in grads if not _reached(g)] == []


GRAPHER_NAMES = [
    "norm.gain", "norm.bias",
    "saliency.weight", "saliency.self_score", "saliency.neighbor_score",
    "cluster.gate_scale", "cluster.gate_shift", "cluster.weight_in", "cluster.weight_out",
    "agg.weight", "agg.bias", "update.weight", "update.bias",
]
FFN_NAMES = ["norm.gain", "norm.bias", "w1", "b1", "w2", "b2"]


class TestParameterNames:
    """Checkpoint records are keyed by these names, so they must not drift."""

    def test_micro_names_all_flags_on(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(0))
        expected = ["embed.weight", "embed.bias", "positional"]
        for i in range(2):
            expected += [f"blocks.{i}.grapher.{n}" for n in GRAPHER_NAMES]
            expected += [f"blocks.{i}.ffn.{n}" for n in FFN_NAMES]
        expected += ["head.weight", "head.bias"]
        assert [name for name, _ in model.named_parameters()] == expected

    def test_micro_names_saliency_cluster_positional_off(self):
        cfg = micro_config(use_channel_saliency=False, use_spatial_saliency=False, use_positional_embedding=False)
        model = FViGModel(cfg, rng=np.random.default_rng(0))
        conv = ["norm.gain", "norm.bias", "agg.weight", "agg.bias", "update.weight", "update.bias"]
        expected = ["embed.weight", "embed.bias"]
        for i in range(2):
            expected += [f"blocks.{i}.grapher.{n}" for n in conv]
            expected += [f"blocks.{i}.ffn.{n}" for n in FFN_NAMES]
        expected += ["head.weight", "head.bias"]
        assert [name for name, _ in model.named_parameters()] == expected

    def test_standalone_blocks_walk_to_the_model_suffixes(self):
        cfg = micro_config()
        model_names = [name for name, _ in FViGModel(cfg, rng=np.random.default_rng(0)).named_parameters()]
        for prefix, block in [
            ("blocks.0.grapher.", GrapherBlock(cfg, dilation=1, rng=np.random.default_rng(1))),
            ("blocks.0.ffn.", FfnBlock(cfg, rng=np.random.default_rng(2))),
        ]:
            suffixes = [name[len(prefix):] for name in model_names if name.startswith(prefix)]
            assert [name for name, _ in named_parameters(block)] == suffixes

    def test_walk_finds_every_trainable_attribute(self):
        block = FfnBlock(micro_config(), rng=np.random.default_rng(3))
        block.extra = Tensor(np.zeros(2), requires_grad=True)
        block.constant = Tensor(np.zeros(2))
        names = [name for name, _ in named_parameters(block)]
        assert names == FFN_NAMES + ["extra"]


# census row -> name fragments of the parameters it counts
CENSUS_ROWS = {
    "patch_embed": ("embed.",),
    "positional_embedding": ("positional",),
    "grapher_norm": (".grapher.norm.",),
    "channel_saliency": (".grapher.saliency.",),
    "spatial_cluster": (".grapher.cluster.",),
    "graph_conv": (".grapher.agg.", ".grapher.update."),
    "ffn": (".ffn.",),
    "head": ("head.",),
}


class TestCountParams:
    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=4)))
    def test_every_row_matches_the_model(self, flags):
        cfg = micro_config(
            depth=4,
            dilation_schedule="1,2,1,2",
            use_channel_saliency=flags[0],
            use_spatial_saliency=flags[1],
            use_dilation=flags[2],
            use_positional_embedding=flags[3],
        )
        sizes = dict.fromkeys(CENSUS_ROWS, 0)
        for name, t in FViGModel(cfg, rng=np.random.default_rng(0)).named_parameters():
            rows = [row for row, parts in CENSUS_ROWS.items() if any(part in name for part in parts)]
            assert len(rows) == 1, (name, rows)
            sizes[rows[0]] += t.size
        census = count_params(cfg)
        assert {row: census[row] for row in CENSUS_ROWS} == sizes
        assert census["total"] == sum(sizes.values())

    def test_single_linear_formula(self):
        cfg = micro_config()
        census = count_params(cfg)
        assert census["patch_embed"] == 3 * 8 * 8 * 32 + 32
        assert census["head"] == 32 * 3 + 3

    def test_census_matches_checkpoint_enumeration(self, tmp_path):
        cfg = micro_config()
        model = FViGModel(cfg, rng=np.random.default_rng(36))
        path = tmp_path / "m.fvig"
        model.save(path)
        _, arrays = load_checkpoint(path)
        assert count_params(cfg)["total"] == sum(a.size for a in arrays.values())

    def test_doubling_depth_doubles_block_subtotal(self):
        shallow = count_params(micro_config(dilation_schedule="1,2"))
        deep = count_params(micro_config(depth=4, dilation_schedule="1,2,1,2"))

        def block_subtotal(census):
            fixed = census["patch_embed"] + census["positional_embedding"] + census["head"]
            return census["total"] - fixed

        assert block_subtotal(deep) == 2 * block_subtotal(shallow)

    def test_flags_off_zero_out_saliency_and_cluster(self):
        census = count_params(micro_config(use_channel_saliency=False, use_spatial_saliency=False))
        assert census["channel_saliency"] == 0
        assert census["spatial_cluster"] == 0

    def test_state_dict_sizes(self):
        cfg = micro_config()
        model = FViGModel(cfg, rng=np.random.default_rng(37))
        assert sum(a.size for a in model.state_dict().values()) == count_params(cfg)["total"]


class TestNoGradForward:
    def test_eval_logits_hold_no_graph_and_equal_values(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(44))
        images = np.random.default_rng(45).random((3, 3, 32, 32))
        recorded = model.forward(images)
        with no_grad():
            logits = model.forward(images)
        assert recorded.requires_grad
        assert not logits.requires_grad and logits._parents == ()
        np.testing.assert_array_equal(logits.data, recorded.data)

    def test_eval_logits_are_one_array_over_every_run(self):
        model = FViGModel(micro_config(), rng=np.random.default_rng(46))
        images = np.random.default_rng(47).random((EVAL_BATCH + 2, 3, 32, 32))
        logits = model.eval_logits(images)
        assert isinstance(logits, np.ndarray) and logits.shape == (EVAL_BATCH + 2, 3)
        with no_grad():
            np.testing.assert_array_equal(logits[EVAL_BATCH:], model.forward(images[EVAL_BATCH:]).data)


class TestBatchLayout:
    """An image's eval logits do not depend on the images that share its batch.

    The head's small GEMM rounds a batch of one differently in the last bits (README,
    "bit-reproducible ... and an equal batch layout"), so a lone image and the same image
    in a batch of 64 agree to rounding, not to the bit; a leak between images would be
    far larger than 1e-12.
    """

    @pytest.mark.parametrize(
        "cfg",
        [
            micro_config(),
            ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4),
        ],
        ids=["micro", "mid"],
    )
    def test_an_image_scores_alone_as_in_a_full_batch(self, cfg):
        model = FViGModel(cfg, rng=np.random.default_rng(48))
        batch = np.random.default_rng(49).random((64, 3, cfg.image_size, cfg.image_size))
        picks = np.arange(8) * 9  # eight images spread over the batch, first and last included
        batched = model.eval_logits(batch)
        assert batched.tobytes() == model.eval_logits(batch).tobytes()
        alone = np.concatenate([model.eval_logits(batch[i : i + 1]) for i in picks])
        np.testing.assert_allclose(alone, batched[picks], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(alone.argmax(axis=1), batched[picks].argmax(axis=1))


class TestCheckpointing:
    def test_roundtrip_preserves_forward_bits(self, tmp_path):
        cfg = micro_config()
        model = FViGModel(cfg, rng=np.random.default_rng(38))
        path = tmp_path / "m.fvig"
        model.save(path)
        loaded = FViGModel.load(path)
        image = np.random.default_rng(39).random((2, 3, 32, 32))
        np.testing.assert_array_equal(model.forward(image).data, loaded.forward(image).data)
        assert loaded.config == cfg

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.fvig"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            FViGModel.load(path)

    def test_mismatched_arrays_rejected(self, tmp_path):
        model = FViGModel(micro_config(), rng=np.random.default_rng(40))
        arrays = model.state_dict()
        arrays.pop("head.bias")
        with pytest.raises(CheckpointError, match="head.bias"):
            model.load_state_dict(arrays)


class TestModelConfig:
    def test_text_roundtrip(self):
        cfg = micro_config(use_dilation=False, leaky_slope=0.15)
        assert ModelConfig(**parse_config_text(config_text(cfg), ModelConfig)) == cfg

    def test_train_config_text_roundtrip(self):
        # every TrainConfig annotation must have a converter, or this raises
        cfg = TrainConfig(batch_size=3, lr=1.5e-3, lr_min=1e-6, epochs=7, weight_decay=0.05, seed=11)
        assert TrainConfig(**parse_config_text(config_text(cfg), TrainConfig)) == cfg

    def test_one_text_holds_both_configs(self):
        text = "# a comment\n\n" + config_text(micro_config(dilation_schedule="1,2")) + config_text(TrainConfig(seed=4))
        values = parse_config_text(text, ModelConfig, TrainConfig)
        assert values["dilation_schedule"] == "1,2" and values["seed"] == 4
        assert list(values) == [f.name for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ModelConfig(**parse_config_text("flux_capacitance=1\n", ModelConfig))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad integer"):
            ModelConfig(**parse_config_text("depth=two\n", ModelConfig))

    @pytest.mark.parametrize(
        "text, message",
        [("use_dilation=maybe", "bad boolean for 'use_dilation'"), ("dropout=lots", "bad float for 'dropout'"),
         ("depth", "bad config line"), ("lr=1", "unknown config key 'lr'")],
    )
    def test_bad_line_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text, ModelConfig)

    @pytest.mark.parametrize("raw, value", [("TRUE", True), ("yes", True), ("1", True), ("No", False), ("0", False)])
    def test_boolean_spellings(self, raw, value):
        assert parse_config_text(f"use_dilation = {raw}", ModelConfig) == {"use_dilation": value}

    def test_validation_catches_bad_geometry(self):
        with pytest.raises(ConfigError, match="multiple"):
            micro_config(image_size=30)
        with pytest.raises(ConfigError, match="exceeds"):
            micro_config(k=12, dilation_schedule="2,2")
        with pytest.raises(ConfigError, match="divide"):
            micro_config(heads=5)

    @pytest.mark.parametrize(
        "k, message",
        [(0, "k must be >= 1"), (-1, "k must be >= 1"), (9, r"k \* max dilation = 9\*2 exceeds node count 16")],
    )
    def test_k_checks_name_the_broken_bound(self, k, message):
        with pytest.raises(ConfigError, match=message):
            micro_config(k=k)

    def test_config_is_frozen(self):
        cfg = micro_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 12
        with pytest.raises(ConfigError, match="exceeds"):
            dataclasses.replace(cfg, k=12, dilation_schedule="2,2")

    def test_dilation_disabled_forces_rate_one(self):
        cfg = micro_config(use_dilation=False, dilation_schedule="3,3")
        assert cfg.rates() == [1, 1]


MID = ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4)


@pytest.fixture
def lane_spy(monkeypatch):
    """The images each forward's two lanes pooled, one ``[first, second]`` per split."""
    splits = []
    real = fvig.model._halves

    def spy(*lanes):
        sizes = [None, None]

        def watched(i):
            def run():
                pooled = lanes[i]()
                sizes[i] = len(pooled.data)
                return pooled

            return run

        out = real(watched(0), watched(1))
        splits.append(sizes)
        return out

    monkeypatch.setattr(fvig.model, "_halves", spy)
    return splits


class TestTwoLaneForward:
    """A large eval forward runs each batch half on its own lane, bit for bit.

    ``fresh_lane`` sets ``_SPARE_CPU``, so these tests split also on a host with one CPU.
    """

    def one_lane(self, monkeypatch, run):
        monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", False)
        try:
            return run()
        finally:
            monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", True)

    def test_mid_eval_logits_are_byte_equal_to_one_lane(self, fresh_lane, lane_spy, monkeypatch):
        model = FViGModel(MID, rng=np.random.default_rng(70))
        images = np.random.default_rng(71).random((2 * EVAL_BATCH + 5, 3, 64, 64))
        split = model.eval_logits(images)
        assert lane_spy == [[32, 32], [32, 32]]  # the 5-image tail runs on one lane
        assert split.tobytes() == self.one_lane(monkeypatch, lambda: model.eval_logits(images)).tobytes()

    def test_smallest_split_and_uneven_halves_are_byte_equal(self, fresh_lane, lane_spy, monkeypatch):
        # a mid half of 32 images holds 32 * 64 nodes * 64 channels = _TWO_LANE_ELEMENTS
        model = FViGModel(MID, rng=np.random.default_rng(72))
        images = np.random.default_rng(73).random((65, 3, 64, 64))
        with no_grad():
            model.forward(images[:63])
            assert lane_spy == []
            for batch in (64, 65):
                split = model.forward(images[:batch]).data
                assert split.tobytes() == self.one_lane(monkeypatch, lambda: model.forward(images[:batch])).data.tobytes()
        assert lane_spy == [[32, 32], [32, 33]]

    def test_eval_metrics_file_is_byte_equal(self, fresh_lane, lane_spy, monkeypatch, tmp_path):
        FViGModel(MID, rng=np.random.default_rng(74)).save(tmp_path / "mid.fvig")

        def metrics(name):
            argv = ["eval", "--checkpoint", str(tmp_path / "mid.fvig"), "--synth", "--classes", "4",
                    "--per-class", "16", "--seed", "3", "--out", str(tmp_path / name)]
            assert main(argv) == 0
            return (tmp_path / name / "metrics.json").read_bytes()

        assert metrics("split") == self.one_lane(monkeypatch, lambda: metrics("one-lane"))
        assert lane_spy == [[32, 32]]

    def test_small_training_and_recorded_forwards_stay_on_one_lane(self, fresh_lane, lane_spy, monkeypatch):
        model = FViGModel(micro_config(), rng=np.random.default_rng(75))
        model.eval_logits(np.random.default_rng(76).random((60, 3, 32, 32)))  # the micro recipe's per-epoch eval
        model.forward(np.random.default_rng(77).random((16, 3, 32, 32)), training=True, rng=np.random.default_rng(78))
        assert lane_spy == []  # the recipe's training batch of 16 is 8 * 16 nodes * 32 channels a half
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)  # any batch of two images would split
        images = np.random.default_rng(79).random((4, 3, 32, 32))
        assert model.forward(images).requires_grad
        assert lane_spy == [] and fvig.tensor._worker is None
        model.eval_logits(images)
        assert lane_spy == [[2, 2]]

    @pytest.mark.parametrize("bad", [40, 8], ids=["worker-half", "calling-half"])
    def test_an_error_in_one_half_surfaces_after_both_finish(self, fresh_lane, monkeypatch, bad):
        """A NaN image fails its half's block 0 while the other half runs on; the error waits for it.

        The message's non-finite count covers the failing half only, as a one-lane forward of that
        half would report it. The next forward splits again, so the worker is not stuck.
        """
        finished = []
        pooled = FViGModel._pooled

        def watched(model, images, *args):
            try:
                return pooled(model, images, *args)
            finally:
                finished.append(len(images))

        model = FViGModel(MID, rng=np.random.default_rng(80))
        images = np.random.default_rng(81).random((64, 3, 64, 64))
        images[bad] = np.nan
        failing = images[32:] if bad >= 32 else images[:32]
        with no_grad(), pytest.raises(ValueError) as alone:
            self.one_lane(monkeypatch, lambda: model.forward(failing))
        monkeypatch.setattr(FViGModel, "_pooled", watched)
        with no_grad(), pytest.raises(ValueError, match=r"^block 0: features hold \d+ non-finite") as split:
            model.forward(images)
        assert finished == [32, 32] and str(split.value) == str(alone.value)
        images[bad] = images[bad + 1]
        clean = model.eval_logits(images)
        assert finished == [32, 32, 32, 32]
        assert clean.tobytes() == self.one_lane(monkeypatch, lambda: model.eval_logits(images)).tobytes()
