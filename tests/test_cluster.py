"""Clustering tests: per-head loop oracles, gate identities, scatter oracle."""

import numpy as np
import pytest

import fvig.cluster
from fvig.cluster import ClusterParams, aggregate_multihead, cluster_block, dispatch
from fvig.gradcheck import model_grad_check
from fvig.tensor import (
    COSINE_EPS,
    Tensor,
    cosine_similarity,
    gather_neighbors,
    matmul,
    reshape,
    scatter_add_neighbors,
    sigmoid,
)
from test_tensor import edge_sized_buffers


def make_params(dim, latent, heads, seed=0):
    return ClusterParams(dim, latent, heads, np.random.default_rng(seed))


def ring_adjacency(b, n, k):
    """Deterministic valid adjacency: self plus the next k-1 nodes around a ring."""
    rows = np.array([[(i + j) % n for j in range(k)] for i in range(n)])
    return np.tile(rows[None], (b, 1, 1))


def numpy_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def aggregate_single(center, members, gates):
    """Context Clusters combination (center + sum_j g_j * member_j) / (1 + sum_j g_j).

    ``center`` is [..., D], ``members`` [..., K, D], ``gates`` [..., K].
    """
    lam = 1.0 + gates.sum(axis=-1)
    return (center + (gates[..., None] * members).sum(axis=-2)) / lam[..., None]


def single_head_identity(dim, seed, gate_scale=1.0, gate_shift=0.0):
    """One head, identity projection: the cluster feature is the raw combination of members."""
    params = make_params(dim, dim, 1, seed=seed)
    params.weight_in.data = np.eye(dim)
    params.gate_scale.data[:] = gate_scale
    params.gate_shift.data[:] = gate_shift
    return params


def pooled_centers(features, adjacency):
    """Centers as aggregate_multihead pools them, read out with the gates driven closed."""
    params = single_head_identity(features.shape[-1], seed=0, gate_shift=-40.0)
    return aggregate_multihead(Tensor(features), adjacency, params)[0].data


def cluster_oracle(features, adjacency, params):
    """Independent per-head recomputation of the aggregate stage."""
    b, n, k = adjacency.shape
    d = features.shape[-1]
    m = params.heads
    latent = params.weight_in.shape[1]
    dh, ph = d // m, latent // m
    w = params.weight_in.data
    out = np.zeros((b, n, latent))
    gates = np.zeros((b, n, k, m))
    for bi in range(b):
        for i in range(n):
            members = features[bi, adjacency[bi, i]]          # [K, D]
            center = members.mean(axis=0)                      # [D]
            wc = center @ w                                    # [latent]
            wv = members @ w                                   # [K, latent]
            for h in range(m):
                c_h = center[h * dh : (h + 1) * dh]
                g_h = np.zeros(k)
                for j in range(k):
                    v_h = members[j, h * dh : (h + 1) * dh]
                    na = max(np.linalg.norm(c_h), COSINE_EPS)
                    nb = max(np.linalg.norm(v_h), COSINE_EPS)
                    s = float(c_h @ v_h / (na * nb))
                    g_h[j] = numpy_sigmoid(params.gate_scale.data[h] * s + params.gate_shift.data[h])
                lam = 1.0 + g_h.sum()
                acc = wc[h * ph : (h + 1) * ph].copy()
                for j in range(k):
                    acc += g_h[j] * wv[j, h * ph : (h + 1) * ph]
                out[bi, i, h * ph : (h + 1) * ph] = acc / lam
                gates[bi, i, :, h] = g_h
    return out, gates


def dispatch_oracle(features, adjacency, clustered, gates, params):
    """Brute-force per-(cluster, member) accumulation of the dispatch stage."""
    b, n, k = adjacency.shape
    d = features.shape[-1]
    m = params.heads
    latent = clustered.shape[-1]
    ph = latent // m
    wo = params.weight_out.data
    acc = np.zeros((b, n, d))
    counts = np.zeros((b, n))
    for bi in range(b):
        for i in range(n):
            for j in range(k):
                target = adjacency[bi, i, j]
                gated = np.concatenate(
                    [gates[bi, i, j, h] * clustered[bi, i, h * ph : (h + 1) * ph] for h in range(m)]
                )
                acc[bi, target] += gated @ wo
                counts[bi, target] += 1
    acc /= np.maximum(counts, 1.0)[:, :, None]
    return features + acc


def edge_order_cluster_block(features, adjacency, params):
    """The cluster block with both projections on edge rows [B,N,K,.], in the same autodiff ops.

    Projects the gathered members with ``W_in``, projects each edge's gated message with
    ``W_out``, then scatter-adds the projected messages and averages them per node.
    """
    b, n, k = adjacency.shape
    m = params.heads
    dh = features.shape[-1] // m
    latent = params.weight_in.shape[1]
    ph = latent // m
    members = gather_neighbors(features, adjacency)
    centers = members.mean(axis=2)
    similarity = cosine_similarity(reshape(centers, (b, n, 1, m, dh)), reshape(members, (b, n, k, m, dh)))
    gates = sigmoid(similarity * params.gate_scale + params.gate_shift)
    lam = gates.sum(axis=2) + 1.0
    proj_centers = reshape(matmul(centers, params.weight_in), (b, n, m, ph))
    proj_members = reshape(matmul(members, params.weight_in), (b, n, k, m, ph))
    gated_sum = (reshape(gates, (b, n, k, m, 1)) * proj_members).sum(axis=2)
    clustered = (proj_centers + gated_sum) / reshape(lam, (b, n, m, 1))
    gated = reshape(gates, (b, n, k, m, 1)) * reshape(clustered, (b, n, 1, m, ph))
    delta = matmul(reshape(gated, (b, n, k, latent)), params.weight_out)
    scattered = scatter_add_neighbors(delta, adjacency, n)
    in_degree = np.zeros((b, n, 1))
    for bi in range(b):
        for t in adjacency[bi].ravel():
            in_degree[bi, t] += 1
    return features + scattered * Tensor(1.0 / np.maximum(in_degree, 1.0))


def assert_relative(actual, expected, rel):
    """Every entry within ``rel`` times the largest magnitude of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rel * np.abs(expected).max())


class TestCenters:
    def test_identical_neighbors(self):
        v = np.tile(np.array([1.0, -2.0, 3.0]), (1, 4, 1))
        adj = ring_adjacency(1, 4, 3)
        np.testing.assert_allclose(pooled_centers(v, adj), v, atol=1e-15)

    def test_two_point_average(self):
        v = np.array([[[0.0, 0.0], [2.0, 2.0]]])
        adj = np.array([[[0, 1], [1, 0]]])
        np.testing.assert_array_equal(pooled_centers(v, adj)[0, 0], [1.0, 1.0])

    def test_random_vs_loop(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2, 6, 4))
        adj = ring_adjacency(2, 6, 3)
        centers = pooled_centers(v, adj)
        for b in range(2):
            for i in range(6):
                np.testing.assert_allclose(centers[b, i], v[b, adj[b, i]].mean(axis=0), atol=1e-12)


class TestMemberSimilarity:
    def test_member_equals_center(self):
        v = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (1, 3, 1))
        adj = ring_adjacency(1, 3, 2)
        params = make_params(4, 4, 2, seed=1)
        params.gate_scale.data = np.array([0.5, 2.0])
        params.gate_shift.data = np.array([0.25, -1.0])
        _, g = aggregate_multihead(Tensor(v), adj, params)
        # similarity 1 everywhere, so each head's gate is sigmoid(scale + shift)
        expected_g = numpy_sigmoid(params.gate_scale.data + params.gate_shift.data)
        np.testing.assert_allclose(g.data, np.broadcast_to(expected_g, g.shape), atol=1e-12)

    def test_zero_gate_params_give_half(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(1, 5, 4))
        adj = ring_adjacency(1, 5, 3)
        params = make_params(4, 4, 2, seed=3)
        params.gate_scale.data[:] = 0
        params.gate_shift.data[:] = 0
        _, g = aggregate_multihead(Tensor(v), adj, params)
        np.testing.assert_allclose(g.data, 0.5, atol=1e-15)

    def test_random_vs_loop(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(2, 6, 6))
        adj = ring_adjacency(2, 6, 3)
        params = make_params(6, 6, 3, seed=5)
        _, g = aggregate_multihead(Tensor(v), adj, params)
        _, expected = cluster_oracle(v, adj, params)
        np.testing.assert_allclose(g.data, expected, atol=1e-12)


class TestAggregateSingle:
    """Single head with an identity projection against the Context Clusters formula."""

    def test_closed_gates_return_center(self):
        v = np.random.default_rng(6).normal(size=(2, 4, 4))
        adj = ring_adjacency(2, 4, 3)
        clustered, gates = aggregate_multihead(Tensor(v), adj, single_head_identity(4, seed=6, gate_shift=-40.0))
        assert np.all(gates.data < 1e-16)
        np.testing.assert_allclose(clustered.data, v[np.arange(2)[:, None, None], adj].mean(axis=2), atol=1e-15)

    def test_single_member_half_gate(self):
        v = np.array([[[2.0, 4.0]]])
        adj = np.array([[[0]]])
        clustered, gates = aggregate_multihead(Tensor(v), adj, single_head_identity(2, seed=7, gate_scale=0.0))
        assert gates.data[0, 0, 0, 0] == 0.5
        np.testing.assert_allclose(clustered.data[0, 0], (np.array([2.0, 4.0]) + 0.5 * np.array([2.0, 4.0])) / 1.5)

    def test_random_vs_formula(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(3, 6, 4))
        adj = np.stack([np.concatenate([[i], rng.permutation(np.delete(np.arange(6), i))[:4]]) for i in range(6)])
        adj = np.tile(adj[None], (3, 1, 1))
        params = single_head_identity(4, seed=8, gate_scale=rng.normal(1.0, 0.5), gate_shift=rng.normal(0.0, 0.5))
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        members = v[np.arange(3)[:, None, None], adj]
        expected = aggregate_single(members.mean(axis=2), members, gates.data[..., 0])
        np.testing.assert_allclose(clustered.data, expected, atol=1e-12)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 6, 6))
        adj = ring_adjacency(4, 6, 5)
        params = single_head_identity(6, seed=9, gate_scale=3.0, gate_shift=0.5)
        out = aggregate_multihead(Tensor(v), adj, params)[0].data
        members = v[np.arange(4)[:, None, None], adj]
        assert np.all(out <= members.max(axis=2) + 1e-12)
        assert np.all(out >= members.min(axis=2) - 1e-12)


class TestAggregateMultihead:
    def test_single_head_identity_weight_equals_aggregate_single(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1, 5, 4))
        adj = ring_adjacency(1, 5, 3)
        params = make_params(4, 4, 1, seed=10)
        params.weight_in.data = np.eye(4)
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        members = v[0][adj]
        manual = aggregate_single(members.mean(axis=2), members, gates.data[..., 0])
        np.testing.assert_allclose(clustered.data, manual, atol=1e-12)

    def test_head_widths(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(2, 8, 32))
        adj = ring_adjacency(2, 8, 4)
        params = make_params(32, 32, 4, seed=12)
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        assert clustered.shape == (2, 8, 32)
        assert gates.shape == (2, 8, 4, 4)

    def test_random_vs_per_head_oracle(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(2, 6, 6))
        adj = ring_adjacency(2, 6, 3)
        params = make_params(6, 6, 3, seed=14)
        params.gate_scale.data = rng.normal(1.0, 0.3, size=3)
        params.gate_shift.data = rng.normal(0.0, 0.3, size=3)
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        expected, expected_gates = cluster_oracle(v, adj, params)
        np.testing.assert_allclose(clustered.data, expected, atol=1e-12)
        np.testing.assert_allclose(gates.data, expected_gates, atol=1e-12)

    def test_lambda_at_least_one(self):
        rng = np.random.default_rng(15)
        v = rng.normal(size=(2, 6, 4))
        adj = ring_adjacency(2, 6, 3)
        params = make_params(4, 4, 2, seed=16)
        _, gates = aggregate_multihead(Tensor(v), adj, params)
        lam = 1.0 + gates.data.sum(axis=2)
        assert np.all(lam >= 1.0)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            make_params(6, 6, 4)


class TestDispatch:
    def test_gate_closed_identity(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=(2, 8, 4))
        adj = ring_adjacency(2, 8, 3)
        params = make_params(4, 4, 2, seed=18)
        params.gate_shift.data[:] = -40.0
        out = cluster_block(Tensor(v), adj, params)
        np.testing.assert_allclose(out.data, v, atol=1e-9)

    def test_single_node_self_cluster_fully_open_gate(self):
        v = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        adj = np.array([[[0]]])
        params = make_params(4, 4, 1, seed=19)
        params.weight_in.data = np.eye(4)
        params.weight_out.data = np.eye(4)
        params.gate_shift.data[:] = 40.0  # gate saturates to exactly 1.0 in float64
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        assert gates.data[0, 0, 0, 0] == 1.0
        out = dispatch(Tensor(v), adj, clustered, gates, params)
        np.testing.assert_array_equal(out.data, v + clustered.data)

    def test_random_vs_scatter_oracle(self):
        rng = np.random.default_rng(20)
        v = rng.normal(size=(2, 7, 6))
        # non-uniform membership: some nodes appear in many clusters
        adj = np.stack([rng.permutation(7)[:3] if i % 2 else np.array([i, 0, 1]) for i in range(7)])
        adj[np.arange(7), 0] = np.arange(7)  # self first
        adj = np.tile(adj[None], (2, 1, 1))
        params = make_params(6, 6, 2, seed=21)
        clustered, gates = aggregate_multihead(Tensor(v), adj, params)
        out = dispatch(Tensor(v), adj, clustered, gates, params)
        expected = dispatch_oracle(v, adj, clustered.data, gates.data, params)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_node_in_no_neighborhood_is_unchanged(self):
        # node 3 appears in no adjacency row at all, so dispatch must leave it alone
        v = np.random.default_rng(22).normal(size=(1, 4, 4))
        adj = np.array([[[0, 1], [1, 0], [2, 1], [0, 1]]])
        params = make_params(4, 4, 1, seed=23)
        out = cluster_block(Tensor(v), adj, params)
        np.testing.assert_array_equal(out.data[0, 3], v[0, 3])
        assert not np.allclose(out.data[0, 0], v[0, 0])  # selected nodes do move


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(25)
        v = rng.normal(size=(1, 8, 6))
        adj = ring_adjacency(1, 8, 3)
        params = make_params(6, 6, 2, seed=26)
        out = cluster_block(Tensor(v), adj, params).data

        perm = rng.permutation(8)
        inv = np.argsort(perm)
        v_p = v[:, perm, :]
        adj_p = inv[adj[:, perm, :]]
        out_p = cluster_block(Tensor(v_p), adj_p, params).data
        np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12)

    def test_gradients_through_aggregate_and_dispatch(self):
        rng = np.random.default_rng(27)
        v = Tensor(rng.normal(size=(1, 6, 4)))
        adj = ring_adjacency(1, 6, 3)
        params = make_params(4, 4, 2, seed=28)
        w = Tensor(rng.normal(size=(1, 6, 4)))

        for field in ("gate_scale", "gate_shift", "weight_in", "weight_out"):
            param = getattr(params, field)
            report = model_grad_check(
                [(field, param)], lambda: (cluster_block(v, adj, params) * w).sum(), num_params=param.size, tol=1e-4
            )
            assert report.passed and report.num_checked == param.size, (field, report)


class TestNodeRowOrder:
    """Projecting before the gather and after the scatter is exact, and keeps every GEMM on node rows."""

    @pytest.mark.parametrize(
        "b, n, k, dim, latent, heads, seed",
        [(1, 5, 3, 4, 4, 2, 30), (2, 9, 4, 6, 9, 3, 31), (3, 7, 5, 8, 4, 4, 32), (2, 12, 6, 12, 8, 2, 33)],
    )
    def test_values_and_gradients_match_edge_order_oracle(self, b, n, k, dim, latent, heads, seed):
        rng = np.random.default_rng(seed)
        # the last node is in no neighbourhood and the one before it in exactly one; the others
        # repeat, so in-degrees differ and collide
        adjacency = rng.integers(0, n - 2, size=(b, n, k))
        adjacency[0, 0, 1] = n - 2
        in_degree = np.bincount(adjacency.ravel(), minlength=n)
        assert in_degree[-1] == 0 and in_degree[-2] == 1 and len(np.unique(in_degree)) > 3
        params = make_params(dim, latent, heads, seed=seed)
        params.gate_scale.data = rng.normal(1.0, 0.5, size=heads)
        params.gate_shift.data = rng.normal(0.0, 0.5, size=heads)
        features = Tensor(rng.normal(size=(b, n, dim)), requires_grad=True)
        weights = rng.normal(size=(b, n, dim))

        results = []
        for block in (cluster_block, edge_order_cluster_block):
            leaves = (features, params.weight_in, params.weight_out)
            for leaf in leaves:
                leaf.grad = None
            out = block(features, adjacency, params)
            (out * Tensor(weights)).sum().backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for got, expected in zip(*results):
            assert_relative(got, expected, 1e-12)
        np.testing.assert_array_equal(results[0][0][:, -1], features.data[:, -1])

    @pytest.mark.parametrize("heads", [1, 2])
    def test_graph_holds_no_edge_sized_array(self, heads):
        # dim = latent, so [B,N,K,D], [B,N,K,latent] and [B,N,K,M,D/M] all have B*N*K*D entries
        b, n, k, dim = 2, 5, 6, 4
        rng = np.random.default_rng(36)
        features = Tensor(rng.normal(size=(b, n, dim)), requires_grad=True)
        out = cluster_block(features, rng.integers(0, n, size=(b, n, k)), make_params(dim, dim, heads, seed=37))
        assert edge_sized_buffers(out, b * n * k * dim) == []

    def test_cluster_gemms_run_on_node_rows(self, monkeypatch):
        b, n, k = 2, 8, 4
        rows = []

        def recording_matmul(a, w):
            rows.append(int(np.prod(a.shape[:-1])))
            return matmul(a, w)

        monkeypatch.setattr(fvig.cluster, "matmul", recording_matmul)
        rng = np.random.default_rng(34)
        cluster_block(Tensor(rng.normal(size=(b, n, 8))), ring_adjacency(b, n, k), make_params(8, 8, 2, seed=35))
        assert rows and rows == [b * n] * len(rows), rows
