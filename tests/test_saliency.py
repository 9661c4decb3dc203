"""Channel-attention chain tests: loop oracles, the fixed layout case, gradients."""

import numpy as np

from fvig.gradcheck import model_grad_check
from fvig.graph import build_graph, pairwise_sq_euclidean
from fvig.model import ModelConfig
from fvig.saliency import ChannelSaliencyParams, channel_saliency_forward
from fvig.tensor import Tensor

from test_graph import knn_oracle


def make_params(dim, latent, seed=0):
    return ChannelSaliencyParams(dim, latent, np.random.default_rng(seed), ModelConfig.leaky_slope)


def set_params(params, weight=None, self_score=None, neighbor_score=None):
    for name, value in (("weight", weight), ("self_score", self_score), ("neighbor_score", neighbor_score)):
        if value is not None:
            getattr(params, name).data = np.asarray(value, dtype=np.float64)
    return params


def project_oracle(features, weight):
    """Triple-loop projection p[b,i,l] = sum_c features[b,i,c] * weight[c,l]."""
    b, n, d = features.shape
    latent = weight.shape[1]
    out = np.zeros((b, n, latent))
    for bi in range(b):
        for i in range(n):
            for l in range(latent):
                out[bi, i, l] = sum(features[bi, i, c] * weight[c, l] for c in range(d))
    return out


def attention_oracle(projected, params):
    """Loop recomputation of softmax_j(LeakyReLU(p_i . self_score + p_j . neighbor_score))."""
    b, n, latent = projected.shape
    a = params.self_score.data[:, 0]
    c = params.neighbor_score.data[:, 0]
    out = np.zeros((b, n, n))
    for bi in range(b):
        for i in range(n):
            s_self = sum(projected[bi, i, l] * a[l] for l in range(latent))
            row = []
            for j in range(n):
                z = s_self + sum(projected[bi, j, l] * c[l] for l in range(latent))
                row.append(z if z >= 0 else params.leaky_slope * z)
            e = np.exp(np.array(row) - max(row))
            out[bi, i] = e / e.sum()
    return out


def saliency_oracle(features, params):
    return attention_oracle(project_oracle(features, params.weight.data), params)


class TestProjection:
    def test_identity_weight(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2, 5, 4))
        params = set_params(make_params(4, 4), weight=np.eye(4))
        out = channel_saliency_forward(Tensor(v), params)
        np.testing.assert_allclose(out.data, attention_oracle(v, params), atol=1e-12)

    def test_zero_weight(self):
        v = np.random.default_rng(1).normal(size=(2, 5, 4))
        params = set_params(make_params(4, 3), weight=np.zeros((4, 3)))
        out = channel_saliency_forward(Tensor(v), params)
        np.testing.assert_array_equal(out.data, np.full((2, 5, 5), 0.2))

    def test_random_vs_triple_loop(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(1, 3, 4))
        params = set_params(make_params(4, 2), weight=rng.normal(size=(4, 2)))
        out = channel_saliency_forward(Tensor(v), params).data
        np.testing.assert_allclose(out, saliency_oracle(v, params), atol=1e-12)


class TestScores:
    def test_zero_projections(self):
        params = set_params(make_params(4, 3), self_score=np.zeros((3, 1)), neighbor_score=np.zeros((3, 1)))
        v = np.random.default_rng(3).normal(size=(2, 5, 4))
        out = channel_saliency_forward(Tensor(v), params)
        np.testing.assert_array_equal(out.data, np.full((2, 5, 5), 0.2))

    def test_one_hot_rows_pick_a_channel(self):
        # node j scores p_j[0] as a neighbor: only node 0 stands out, in every row
        params = set_params(
            make_params(3, 3), weight=np.eye(3), self_score=np.zeros((3, 1)), neighbor_score=[[1.0], [0.0], [0.0]]
        )
        out = channel_saliency_forward(Tensor(np.eye(3)[None]), params)
        expected = np.exp([1.0, 0.0, 0.0]) / (np.e + 2.0)
        np.testing.assert_allclose(out.data[0], np.tile(expected, (3, 1)), atol=1e-15)

    def test_random_vs_loop(self):
        rng = np.random.default_rng(4)
        params = make_params(4, 3, seed=5)
        v = rng.normal(size=(1, 4, 4))
        out = channel_saliency_forward(Tensor(v), params)
        np.testing.assert_allclose(out.data, saliency_oracle(v, params), atol=1e-12)


class TestMatrix:
    def test_fixed_layout(self):
        # self scores [1, 2] down the rows, neighbor scores [10, 20] along the columns
        params = set_params(make_params(1, 1), weight=[[1.0]], self_score=[[1.0]], neighbor_score=[[10.0]])
        out = channel_saliency_forward(Tensor(np.array([[[1.0], [2.0]]])), params)
        for i, row in enumerate([[11.0, 21.0], [12.0, 22.0]]):
            e = np.exp(np.array(row) - max(row))
            np.testing.assert_allclose(out.data[0, i], e / e.sum(), atol=1e-15)

    def test_zero_inputs(self):
        out = channel_saliency_forward(Tensor(np.zeros((1, 3, 4))), make_params(4, 4))
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 1.0 / 3))

    def test_random_vs_loop(self):
        rng = np.random.default_rng(6)
        params = make_params(3, 3)
        set_params(params, self_score=rng.normal(size=(3, 1)), neighbor_score=rng.normal(size=(3, 1)))
        v = rng.normal(size=(2, 4, 3))
        out = channel_saliency_forward(Tensor(v), params).data
        np.testing.assert_allclose(out, saliency_oracle(v, params), atol=1e-12)


class TestNormalize:
    def test_equal_row_gives_uniform(self):
        v = np.tile(np.random.default_rng(18).normal(size=4), (1, 5, 1))  # five identical nodes
        out = channel_saliency_forward(Tensor(v), make_params(4, 3))
        np.testing.assert_allclose(out.data, 0.2, atol=1e-15)

    def test_nonnegative_pair(self):
        # scores [0, log 2] in every row are >= 0, so the activation is the identity there
        params = set_params(make_params(1, 1), weight=[[1.0]], self_score=[[0.0]], neighbor_score=[[1.0]])
        out = channel_saliency_forward(Tensor(np.array([[[0.0], [np.log(2.0)]]])), params)
        np.testing.assert_allclose(out.data[0, 0], [1 / 3, 2 / 3], atol=1e-12)

    def test_full_chain_gradient_wrt_score_projections(self):
        rng = np.random.default_rng(7)
        features = Tensor(rng.normal(size=(2, 6, 4)))
        params = make_params(4, 3, seed=8)
        w = Tensor(rng.normal(size=(2, 6, 6)))

        for field in ("weight", "self_score", "neighbor_score"):
            param = getattr(params, field)
            report = model_grad_check(
                [(field, param)], lambda: (channel_saliency_forward(features, params) * w).sum(),
                num_params=param.size, h=1e-6, tol=1e-5,
            )
            assert report.passed and report.num_checked == param.size, (field, report)


class TestForward:
    def test_zero_score_params_give_uniform_alpha_and_plain_knn(self):
        rng = np.random.default_rng(9)
        features = Tensor(rng.normal(size=(2, 16, 8)))
        params = make_params(8, 8, seed=10)
        params.self_score.data[:] = 0
        params.neighbor_score.data[:] = 0
        alpha = channel_saliency_forward(features, params)
        np.testing.assert_array_equal(alpha.data, np.full((2, 16, 16), 1.0 / 16))
        np.testing.assert_array_equal(
            build_graph(features.data, 5, alpha=alpha.data), knn_oracle(pairwise_sq_euclidean(features.data), 5)
        )

    def test_duplicate_features_give_identical_rows(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(1, 5, 6))
        v[0, 3] = v[0, 1]  # duplicate node
        alpha = channel_saliency_forward(Tensor(v), make_params(6, 4, seed=12))
        np.testing.assert_array_equal(alpha.data[0, 3], alpha.data[0, 1])
        np.testing.assert_array_equal(alpha.data[0, :, 3], alpha.data[0, :, 1])

    def test_end_to_end_vs_step_by_step(self):
        rng = np.random.default_rng(13)
        features = Tensor(rng.normal(size=(2, 7, 5)))
        params = make_params(5, 4, seed=14)
        composed = channel_saliency_forward(features, params)
        projected = features.data @ params.weight.data
        scores = projected @ params.self_score.data + np.swapaxes(projected @ params.neighbor_score.data, -1, -2)
        activated = np.where(scores >= 0, scores, params.leaky_slope * scores)
        e = np.exp(activated - activated.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(composed.data, e / e.sum(axis=-1, keepdims=True))

    def test_row_stochastic(self):
        rng = np.random.default_rng(15)
        alpha = channel_saliency_forward(Tensor(rng.normal(size=(3, 9, 6)) * 4), make_params(6, 6, seed=16))
        np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(alpha.data > 0) and np.all(alpha.data < 1)

    def test_row_shift_invariance_in_linear_region(self):
        # channel 0 carries the self score, channels 1-2 the neighbor score
        params = set_params(
            make_params(3, 3), weight=np.eye(3), self_score=[[1.0], [0.0], [0.0]], neighbor_score=[[0.0], [1.0], [1.0]]
        )
        v = np.random.default_rng(17).uniform(0.1, 2.0, size=(1, 4, 3))  # all scores positive: activation is linear
        base = channel_saliency_forward(Tensor(v), params).data
        shifted_v = v.copy()
        shifted_v[0, 2, 0] += 1.3  # constant added to row 2's scores, still positive
        shifted = channel_saliency_forward(Tensor(shifted_v), params).data
        np.testing.assert_allclose(shifted[0, 2], base[0, 2], atol=1e-9)
