"""Forward/backward tests for the tensor core, against loop oracles and hand values."""

import contextlib
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import fvig.tensor
from fvig.tensor import (
    ShapeError,
    Tensor,
    broadcast_add,
    concat_lastdim,
    cosine_similarity,
    dropout,
    exp,
    gated_gather_sum,
    gated_scatter_sum,
    gather_max,
    gather_neighbors,
    leaky_relu,
    log,
    matmul,
    multiply,
    neighbor_cosine,
    no_grad,
    reshape,
    scatter_add_neighbors,
    sigmoid,
    slice_lastdim,
    softmax_lastdim,
    subtract,
    transpose_last2,
)

from test_gradcheck import grad_check


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_random_vs_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, expected, atol=1e-12, rtol=0)

    def test_batched_vs_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            np.testing.assert_allclose(out[i], a[i] @ b, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5))))

    def test_backward_rule(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        matmul(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-12)

    def test_batch_broadcast_backward_sums(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5, 3, 4)))
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        matmul(a, b).sum().backward()
        assert b.grad.shape == (4, 2)

    def test_4d_gradients_vs_batched_products(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(4, 7, 3, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        g = rng.normal(size=(4, 7, 3, 5))
        (matmul(a, w) * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(a.grad, g @ w.data.T)
        expected = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=(0, 1))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=0)

    def test_3d_right_operand_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))


class TestBroadcastAdd:
    def test_column_plus_row(self):
        out = broadcast_add(Tensor([[1.0], [2.0]]), Tensor([[10.0, 20.0]]))
        np.testing.assert_array_equal(out.data, [[11.0, 21.0], [12.0, 22.0]])

    def test_add_zeros_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_array_equal(broadcast_add(Tensor(x), Tensor(np.zeros(4))).data, x)

    def test_random_vs_loop(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 3, 1))
        b = rng.normal(size=(1, 1, 4))
        expected = np.zeros((2, 3, 4))
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    expected[i, j, k] = a[i, j, 0] + b[0, 0, k]
        np.testing.assert_array_equal(broadcast_add(Tensor(a), Tensor(b)).data, expected)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            broadcast_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))

    def test_backward_sums_over_broadcast_axes(self):
        a = Tensor(np.zeros((2, 1)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [[3.0], [3.0]])
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


class TestSoftmax:
    def test_uniform(self):
        out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance_with_known_ratio(self):
        c = 17.3
        out = softmax_lastdim(Tensor([c, c + np.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax_lastdim(Tensor(rng.normal(size=(6, 9)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_invariant_under_row_constant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 7))
        base = softmax_lastdim(Tensor(x)).data
        shifted = softmax_lastdim(Tensor(x + 3.7)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(1, 6)))
        report = grad_check(
            lambda t: (softmax_lastdim(t) * w).sum(), rng.normal(size=(1, 6)), h=1e-6, tol=1e-6
        )
        assert report.passed, report


def peak_bytes(fn) -> int:
    """The peak of the memory traced while ``fn()`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_saturation_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_leaky_relu_negative(self):
        assert leaky_relu(Tensor(-1.0), 0.2).item() == pytest.approx(-0.2)

    def test_leaky_relu_slope_validation(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor(1.0), 1.5)

    @pytest.mark.parametrize("slope", [5e-324, 2.0**-54, 0.01, 0.2, 1 / 3, 0.99, 1 - 2.0**-53])
    def test_leaky_relu_bytes_equal_the_select(self, slope):
        tiny, least_normal = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).smallest_normal
        special = [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, least_normal, -least_normal, np.inf, -np.inf]
        x = np.concatenate([special, [1.5, -1.5, 1e300, -1e300], np.random.default_rng(81).normal(size=64)])
        expected = np.where(x >= 0, x, slope * x).tobytes()
        assert leaky_relu(Tensor(x), slope).data.tobytes() == expected
        leaf = Tensor(x, requires_grad=True)
        out = leaky_relu(leaf, slope)
        assert out.data.tobytes() == expected
        upstream = x[::-1].copy()  # the same special values as the incoming gradient, met by every kind of x
        (out * upstream).sum().backward()
        assert leaf.grad.tobytes() == (upstream * np.where(x >= 0, 1.0, slope)).tobytes()

    @pytest.mark.parametrize("under_no_grad", [False, True], ids=["constant", "no_grad"])
    def test_leaky_relu_builds_no_mask_without_a_gradient(self, under_no_grad):
        x = Tensor(np.random.default_rng(82).normal(size=100_000), requires_grad=under_no_grad)
        with no_grad() if under_no_grad else contextlib.nullcontext():
            peak = peak_bytes(lambda: leaky_relu(x, 0.2))
        assert peak < x.data.nbytes + x.size // 2  # the output, and no bool mask of x.size bytes

    def test_grads_at_random_points(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=50)
        x = np.where(np.abs(x) < 1e-3, 0.25, x)  # keep away from the leaky kink
        w = Tensor(rng.normal(size=50))
        for fn in (lambda t: (sigmoid(t) * w).sum(), lambda t: (leaky_relu(t, 0.2) * w).sum()):
            report = grad_check(fn, x, h=1e-6, tol=1e-6)
            assert report.passed, report


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = Tensor([3.0, -4.0, 1.0])
        assert cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_antiparallel(self):
        v = np.array([2.0, 5.0, -1.0])
        assert cosine_similarity(Tensor(v), Tensor(-v)).item() == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_guarded(self):
        out = cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 2.0]))
        assert np.isfinite(out.item())

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            cosine_similarity(Tensor([1.0]), Tensor([1.0]), eps=0.0)

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            cosine_similarity(Tensor([1.0]), Tensor([1.0]), eps=float("nan"))

    def test_infinite_eps_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            cosine_similarity(Tensor([1.0]), Tensor([1.0]), eps=float("inf"))

    def test_broadcast_center_vs_members(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=(2, 3, 1, 4))
        m = rng.normal(size=(2, 3, 5, 4))
        out = cosine_similarity(Tensor(c), Tensor(m))
        assert out.shape == (2, 3, 5)
        for b in range(2):
            for i in range(3):
                for j in range(5):
                    u, v = c[b, i, 0], m[b, i, j]
                    expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                    assert out.data[b, i, j] == pytest.approx(expected, abs=1e-12)

    def test_grad(self):
        rng = np.random.default_rng(10)
        b = Tensor(rng.normal(size=(4, 6)))
        w = Tensor(rng.normal(size=4))
        report = grad_check(
            lambda t: (cosine_similarity(t, b) * w).sum(), rng.normal(size=(4, 6)), tol=1e-6
        )
        assert report.passed, report

    def test_backward_peak_memory_below_three_edge_arrays(self):
        # the edge-form backward peaks at about 4.3 edge-sized arrays here
        rng = np.random.default_rng(13)
        center = Tensor(rng.normal(size=(2, 50, 1, 4, 16)), requires_grad=True)
        members = Tensor(rng.normal(size=(2, 50, 9, 4, 16)), requires_grad=True)
        loss = (cosine_similarity(center, members) * Tensor(rng.normal(size=(2, 50, 9, 4)))).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * members.data.nbytes


class TestReductions:
    def test_mean_lastdim(self):
        out = Tensor([[1.0, 3.0], [5.0, 7.0]]).mean(axis=-1)
        np.testing.assert_array_equal(out.data, [2.0, 6.0])

    def test_max(self):
        assert Tensor([2.0, 9.0, 4.0]).max().item() == 9.0

    def test_all_kinds_vs_index_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4, 5))
        t = Tensor(x)
        # reduce along axis 1 with explicit index loops
        sum_expected = np.zeros((3, 5))
        mean_expected = np.zeros((3, 5))
        max_expected = np.full((3, 5), -np.inf)
        for i in range(3):
            for k in range(5):
                for j in range(4):
                    sum_expected[i, k] += x[i, j, k]
                    if x[i, j, k] > max_expected[i, k]:
                        max_expected[i, k] = x[i, j, k]
                mean_expected[i, k] = sum_expected[i, k] / 4
        np.testing.assert_allclose(t.sum(axis=1).data, sum_expected, atol=1e-12)
        np.testing.assert_allclose(t.mean(axis=1).data, mean_expected, atol=1e-12)
        np.testing.assert_allclose(t.max(axis=1).data, max_expected, atol=1e-12)
        for axis in range(3):
            assert t.sum(axis=axis, keepdims=True).shape == tuple(
                1 if a == axis else s for a, s in enumerate(x.shape)
            )

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            Tensor(np.zeros((2, 3))).sum(axis=5)

    def test_max_backward_first_argmax_on_ties(self):
        x = Tensor([3.0, 5.0, 5.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_mean_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 3))


class TestConcatSliceTranspose:
    def test_concat_values(self):
        out = concat_lastdim([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_single_part(self):
        x = np.random.default_rng(0).normal(size=(2, 3))
        np.testing.assert_array_equal(concat_lastdim([Tensor(x)]).data, x)

    def test_concat_head_widths(self):
        parts = [Tensor(np.zeros((2, 5, 8))) for _ in range(4)]
        assert concat_lastdim(parts).shape == (2, 5, 32)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat_lastdim([Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3)))])

    def test_concat_backward_splits(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        concat_lastdim([a, b]).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_slice_roundtrip(self):
        x = np.random.default_rng(13).normal(size=(3, 6))
        out = slice_lastdim(Tensor(x), 2, 5)
        np.testing.assert_array_equal(out.data, x[:, 2:5])
        with pytest.raises(ShapeError):
            slice_lastdim(Tensor(x), 4, 9)

    def test_transpose(self):
        x = np.random.default_rng(14).normal(size=(2, 3, 4))
        np.testing.assert_array_equal(transpose_last2(Tensor(x)).data, np.swapaxes(x, -1, -2))


class TestGatherScatter:
    def test_gather_self_index(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 4, 3))
        idx = np.tile(np.arange(4)[None, :, None], (2, 1, 3))
        out = gather_neighbors(Tensor(x), idx)
        for k in range(3):
            np.testing.assert_array_equal(out.data[:, :, k, :], x)

    def test_gather_known_rows(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        idx = np.array([[[2, 0], [0, 1], [1, 2]]])
        out = gather_neighbors(Tensor(x), idx)
        np.testing.assert_array_equal(out.data[0, 0], [x[0, 2], x[0, 0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            gather_neighbors(Tensor(np.zeros((1, 3, 2))), np.array([[[3], [0], [0]]]))

    def test_float_index_rejected(self):
        # both ops share one index check; the dtype comes before the range
        index = np.full((1, 3, 2), 7.0)
        with pytest.raises(TypeError, match="integral"):
            gather_neighbors(Tensor(np.zeros((1, 3, 2))), index)
        with pytest.raises(TypeError, match="integral"):
            scatter_add_neighbors(Tensor(np.zeros((1, 3, 2, 2))), index, 3)

    def test_gradient_mass_conservation(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        idx = rng.integers(0, 5, size=(2, 5, 4))
        w = Tensor(rng.normal(size=(2, 5, 4, 3)))
        (gather_neighbors(x, idx) * w).sum().backward()
        assert x.grad.sum() == pytest.approx(w.data.sum(), rel=1e-12)

    def test_scatter_forward_vs_loop(self):
        rng = np.random.default_rng(17)
        vals = rng.normal(size=(2, 4, 3, 2))
        idx = rng.integers(0, 4, size=(2, 4, 3))
        out = scatter_add_neighbors(Tensor(vals), idx, 4).data
        expected = np.zeros((2, 4, 2))
        for b in range(2):
            for i in range(4):
                for j in range(3):
                    expected[b, idx[b, i, j]] += vals[b, i, j]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_scatter_grad_is_gather(self):
        rng = np.random.default_rng(18)
        vals = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        idx = np.array([[[0, 1], [1, 2], [2, 0]]])
        w = Tensor(rng.normal(size=(1, 3, 2)))
        (scatter_add_neighbors(vals, idx, 3) * w).sum().backward()
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(vals.grad[0, i, j], w.data[0, idx[0, i, j]], atol=1e-12)


def held_buffers(root: Tensor) -> list[np.ndarray]:
    """Every buffer the autodiff graph behind ``root`` keeps alive: each tensor's data and every
    array a backward rule captured, each traced to the base array it views."""
    buffers, seen, stack = {}, set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        held, rule = [t.data], t._backward_rule
        for cell in (rule.__closure__ or ()) if rule else ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                held.append(value)
            elif isinstance(value, Tensor):
                stack.append(value)
        for array in held:
            while isinstance(array.base, np.ndarray):
                array = array.base
            buffers[id(array)] = array
        stack.extend(t._parents)
    return list(buffers.values())


def edge_sized_buffers(root: Tensor, edge_size: int) -> list[tuple]:
    """Shapes of the held buffers with at least ``edge_size`` (``B*N*K*D``) entries."""
    return [a.shape for a in held_buffers(root) if a.size >= edge_size]


# (B, N, K, D, heads): K = 1, duplicates, K = 9 and K = 12 past numpy's 8-wide pairwise block, wide heads,
# and a hub (see neighbor_case)
NEIGHBOR_SHAPES = [
    (1, 4, 1, 3, 1), (2, 6, 4, 6, 2), (2, 9, 9, 8, 4), (3, 5, 12, 4, 2), (1, 7, 3, 96, 2), (2, 64, 9, 8, 2)
]
HUB_NODES = 32  # from this N on, half the edges go to node 0: an in-degree past 255, hundreds of slots


def neighbor_case(b, n, k, d, m, seed):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, n, size=(b, n, k))
    if n >= HUB_NODES:
        index[rng.random(index.shape) < 0.5] = 0
    index[..., -1] = index[..., 0]  # a duplicate in every row (a self-pair when K = 1)
    return rng, index


def gathered_heads(x, index, heads):
    b, n, k = index.shape
    return reshape(gather_neighbors(x, index), (b, n, k, heads, x.shape[-1] // heads))


def composed_gated_gather_sum(gates, rows, index):
    b, n, k, m = gates.shape
    return reshape((reshape(gates, (b, n, k, m, 1)) * gathered_heads(rows, index, m)).sum(axis=2), rows.shape)


def composed_gated_scatter_sum(gates, rows, index):
    b, n, k, m = gates.shape
    c = rows.shape[-1]
    gated = reshape(gates, (b, n, k, m, 1)) * reshape(rows, (b, n, 1, m, c // m))
    return scatter_add_neighbors(reshape(gated, (b, n, k, c)), index, n)


def composed_neighbor_cosine(centers, x, index, heads):
    b, n, k = index.shape
    center_heads = reshape(centers, (b, n, 1, heads, x.shape[-1] // heads))
    return cosine_similarity(center_heads, gathered_heads(x, index, heads), eps=1e-8)


def values_and_grads(op, arrays, weights):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    (out * Tensor(weights)).sum().backward()
    return [out.data] + [t.grad for t in leaves]


class TestNeighborOps:
    """The fused neighbor ops against the gather-then-reduce forms they replace."""

    def check(self, fused, composed, arrays, out_shape, seed, exact_grads=False):
        weights = np.random.default_rng(seed).normal(size=out_shape)
        got, expected = values_and_grads(fused, arrays, weights), values_and_grads(composed, arrays, weights)
        assert got[0].tobytes() == expected[0].tobytes()
        for g, e in zip(got[1:], expected[1:]):
            if exact_grads:
                np.testing.assert_array_equal(g, e)
            else:
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-12 * np.abs(e).max())

    @pytest.mark.parametrize("b, n, k, d, m", NEIGHBOR_SHAPES)
    def test_gather_max_with_ties(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 60)
        # small integers: ties between distinct neighbors are common and every gradient sum is exact
        x = rng.integers(-1, 2, size=(b, n, d)).astype(np.float64)
        composed = lambda t: gather_neighbors(t, index).max(axis=2)  # noqa: E731
        self.check(lambda t: gather_max(t, index), composed, [x], (b, n, d), 61, exact_grads=True)

    @pytest.mark.parametrize("b, n, k, d, m", NEIGHBOR_SHAPES)
    def test_gated_gather_sum(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 62)
        arrays = [rng.uniform(0.0, 1.0, size=(b, n, k, m)), rng.normal(size=(b, n, d))]
        fused = lambda g, r: gated_gather_sum(g, r, index)  # noqa: E731
        self.check(fused, lambda g, r: composed_gated_gather_sum(g, r, index), arrays, (b, n, d), 63)

    @pytest.mark.parametrize("b, n, k, d, m", NEIGHBOR_SHAPES)
    def test_member_mean_as_unit_gated_sum(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 64)
        ones = np.ones((b, n, k, 1))
        fused = lambda t: gated_gather_sum(ones, t, index) / k  # noqa: E731
        composed = lambda t: gather_neighbors(t, index).mean(axis=2)  # noqa: E731
        self.check(fused, composed, [rng.normal(size=(b, n, d))], (b, n, d), 65)

    @pytest.mark.parametrize("b, n, k, d, m", NEIGHBOR_SHAPES)
    def test_gated_scatter_sum(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 66)
        arrays = [rng.uniform(0.0, 1.0, size=(b, n, k, m)), rng.normal(size=(b, n, d))]
        fused = lambda g, r: gated_scatter_sum(g, r, index)  # noqa: E731
        self.check(fused, lambda g, r: composed_gated_scatter_sum(g, r, index), arrays, (b, n, d), 67)

    @pytest.mark.parametrize("b, n, k, d, m", NEIGHBOR_SHAPES)
    def test_neighbor_cosine_with_zero_rows(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 68)
        centers, x = rng.normal(size=(2, b, n, d))
        centers[:, 0] = 0.0  # the clamp is active: no gradient through the norm
        x[:, -1] = 0.0
        x[:, 1] *= 1e-9  # a norm below eps, but not zero
        fused = lambda c, t: neighbor_cosine(c, t, index, m)  # noqa: E731
        self.check(fused, lambda c, t: composed_neighbor_cosine(c, t, index, m), [centers, x], (b, n, k, m), 69)

    @pytest.mark.parametrize(
        "op, constant_shape, kernel",
        [
            (gated_gather_sum, (2, 6, 4, 2), "_gated_scatter"),
            (gated_scatter_sum, (2, 6, 4, 2), "_gated_gather"),
            (lambda c, x, i: neighbor_cosine(c, x, i, 2), (2, 6, 6), "_gated_scatter"),
        ],
        ids=["gated_gather_sum", "gated_scatter_sum", "neighbor_cosine"],
    )
    def test_backward_builds_only_the_gradient_it_sends(self, op, constant_shape, kernel, monkeypatch):
        rng, index = neighbor_case(2, 6, 4, 6, 2, 70)
        rows = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        out = op(Tensor(rng.uniform(size=constant_shape)), rows, index)
        calls = []
        for name in ("_gated_gather", "_gated_scatter", "_head_dots"):
            kernel_fn = getattr(fvig.tensor, name)
            monkeypatch.setattr(fvig.tensor, name, lambda *a, f=kernel_fn, name=name: calls.append(name) or f(*a))
        out.sum().backward()
        assert calls == [kernel]

    @pytest.mark.parametrize("b, n, k, d, m", [(2, 5, 6, 4, 2), (2, 7, 3, 8, 4)])
    def test_graphs_hold_no_edge_sized_array(self, b, n, k, d, m):
        rng, index = neighbor_case(b, n, k, d, m, 71)
        gates = Tensor(rng.uniform(size=(b, n, k, m)), requires_grad=True)
        x, y = (Tensor(rng.normal(size=(b, n, d)), requires_grad=True) for _ in range(2))
        for out in (
            gather_max(x, index),
            gated_gather_sum(gates, x, index),
            gated_scatter_sum(gates, x, index),
            neighbor_cosine(x, y, index, m),
        ):
            assert edge_sized_buffers(out, b * n * k * d) == []

    def test_rejects_mismatched_shapes(self):
        index = np.zeros((2, 5, 3), dtype=np.int64)
        x = Tensor(np.zeros((2, 5, 6)))
        with pytest.raises(ShapeError):
            gather_max(Tensor(np.zeros((2, 4, 6))), index)
        with pytest.raises(ShapeError):
            gated_gather_sum(Tensor(np.zeros((2, 5, 3, 4))), x, index)  # 4 heads do not divide 6
        with pytest.raises(ShapeError):
            gated_scatter_sum(Tensor(np.zeros((2, 5, 2, 2))), x, index)  # gates over K=2, index K=3
        with pytest.raises(ShapeError):
            gated_gather_sum(Tensor(np.zeros((2, 5, 3, 0))), x, index)  # no heads
        with pytest.raises(ShapeError):
            neighbor_cosine(Tensor(np.zeros((2, 5, 4))), x, index, 2)
        empty = np.zeros((2, 5, 0), dtype=np.int64)  # K = 0: no neighbor to reduce over
        for op in (gather_max, lambda t, i: neighbor_cosine(t, t, i, 2)):
            with pytest.raises(ShapeError, match="K >= 1"):
                op(x, empty)
        for op in (gated_gather_sum, gated_scatter_sum):
            with pytest.raises(ShapeError, match="K >= 1"):
                op(Tensor(np.zeros((2, 5, 0, 2))), x, empty)
        assert gather_neighbors(x, empty).shape == (2, 5, 0, 6)  # the plain ops keep K = 0
        assert not scatter_add_neighbors(Tensor(np.zeros((2, 5, 0, 6))), empty, 5).data.any()
        with pytest.raises(IndexError):
            gather_max(x, index + 5)
        with pytest.raises(ValueError, match="eps"):
            neighbor_cosine(x, x, index, 2, eps=0.0)


class TestScatterPlan:
    """The in-degree-slot scatters: node-sized temporaries, and a plan that follows the index's values."""

    @pytest.mark.parametrize("op", ["gated_scatter_sum", "scatter_add_neighbors"])
    def test_forward_peaks_below_one_edge_array(self, op, monkeypatch):
        b, n, k, c = 2, 64, 9, 64
        rng, index = neighbor_case(b, n, k, c, 4, 79)
        if op == "gated_scatter_sum":
            gates, rows = Tensor(rng.uniform(size=(b, n, k, 4)), requires_grad=True), Tensor(rng.normal(size=(b, n, c)))
            forward = lambda: gated_scatter_sum(gates, rows, index)  # noqa: E731
        else:
            values = Tensor(rng.normal(size=(b, n, k, c)), requires_grad=True)
            forward = lambda: scatter_add_neighbors(values, index, n)  # noqa: E731
        monkeypatch.setattr(fvig.tensor, "_last_plan", None)  # the plan is built inside the measurement
        assert peak_bytes(forward) < b * n * k * c * 8

    def test_plan_follows_an_index_edited_in_place(self):
        rng, index = neighbor_case(2, 6, 4, 3, 1, 80)
        values = rng.normal(size=(2, 6, 4, 3))
        for num_nodes in (6, 6, 8):
            scatter_add_neighbors(values, index, num_nodes)
            index[0, 0, 0] = (index[0, 0, 0] + 1) % 6  # the same array, with new values
            expected = np.zeros((2, num_nodes, 3))
            np.add.at(expected, (np.arange(2)[:, None, None], index), values)
            assert scatter_add_neighbors(values, index, num_nodes).data.tobytes() == expected.tobytes()


class TestConstantOperands:
    @pytest.mark.parametrize(
        "op",
        [broadcast_add, subtract, multiply, lambda a, b: a / b],
        ids=["broadcast_add", "subtract", "multiply", "divide"],
    )
    def test_no_gradient_built_for_a_constant(self, op, monkeypatch):
        reductions = []

        def recording_unbroadcast(grad, shape):
            reductions.append(shape)
            return unbroadcast(grad, shape)

        unbroadcast = fvig.tensor._unbroadcast
        monkeypatch.setattr(fvig.tensor, "_unbroadcast", recording_unbroadcast)
        rng = np.random.default_rng(72)
        a, b = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.uniform(1.0, 2.0, size=(4,)))
        op(a, b).sum().backward()
        op(b, a).sum().backward()
        assert reductions == [(3, 4), (3, 4)]


def closure_values(t: Tensor) -> list:
    """Everything ``t``'s backward rule captured at forward time, the items of a list or tuple one by one."""
    values = [cell.cell_contents for cell in t._backward_rule.__closure__ or ()]
    return [item for v in values for item in (v if isinstance(v, (list, tuple)) else [v])]


def captured(t: Tensor) -> list[np.ndarray]:
    """The arrays ``t``'s backward rule captured at forward time."""
    return [value for value in closure_values(t) if isinstance(value, np.ndarray)]


class TestSavedArrays:
    """A node holds no value; a rule captures only what its formula reads, for an operand that gets a gradient."""

    def test_unread_intermediate_is_freed(self):
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        h = matmul(x, w)
        y = h + b
        product = weakref.ref(h.data)
        del h
        assert product() is None  # y's graph keeps h's node, not its value
        y.sum().backward()
        ones = np.ones((6, 5))
        np.testing.assert_allclose(x.grad, (ones @ w.data.T).reshape(2, 3, 4), rtol=1e-14)
        np.testing.assert_allclose(w.grad, x.data.reshape(6, 4).T @ ones, rtol=1e-14)
        np.testing.assert_array_equal(b.grad, np.full(5, 6.0))

    def test_op_output_points_at_a_value_free_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = x * 2.0
        node = y._ref
        assert node is not y and node.data.size == 0 and node.shape == (2, 3) and node.requires_grad
        assert y._parents == node._parents and y._parents[0] is x  # a leaf is its own ref
        assert (y * y)._parents == (node, node)

    @pytest.mark.parametrize(
        "op",
        [
            broadcast_add,
            subtract,
            lambda a, b: reshape(a, (4, 3)),
            lambda a, b: transpose_last2(a),
            lambda a, b: concat_lastdim([a, b]),
            lambda a, b: a.sum(),
            lambda a, b: a.mean(axis=0),
            lambda a, b: slice_lastdim(a, 1, 3),
        ],
        ids=["broadcast_add", "subtract", "reshape", "transpose_last2", "concat_lastdim", "sum", "mean", "slice_lastdim"],
    )
    def test_rule_holds_no_operand_array(self, op):
        rng = np.random.default_rng(74)
        a, b = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) * 1.0 for _ in range(2))
        out = op(a, b)
        assert not any(np.shares_memory(array, t.data) for array in captured(out) for t in (a, b, out))
        assert not any(isinstance(value, Tensor) for value in closure_values(out))  # op outputs by node

    @pytest.mark.parametrize(
        "op, read",
        [
            (lambda x: x.max(axis=1), lambda x, out: x.data),
            (lambda x: x**3.0, lambda x, out: x.data),
            (exp, lambda x, out: out.data),
            (log, lambda x, out: x.data),
            (sigmoid, lambda x, out: out.data),
            (softmax_lastdim, lambda x, out: out.data),
            (lambda x: gather_neighbors(x, INDEX), lambda x, out: INDEX),
            (lambda x: scatter_add_neighbors(reshape(x, (2, 5, 4, 3)), INDEX, 5), lambda x, out: INDEX),
        ],
        ids=["max", "power", "exp", "log", "sigmoid", "softmax_lastdim", "gather_neighbors", "scatter_add_neighbors"],
    )
    def test_single_operand_rule_holds_the_one_array_it_reads(self, op, read):
        x = Tensor(np.random.default_rng(79).uniform(0.5, 2.0, size=(2, 5, 12)), requires_grad=True) * 1.0
        out = op(x)
        assert [id(array) for array in captured(out)] == [id(read(x, out))]

    def test_multiply_by_a_constant_holds_only_the_constant(self):
        rng = np.random.default_rng(75)
        x, c = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=4))
        for out in (x * c, c * x):
            assert [id(array) for array in captured(out)] == [id(c.data)]

    def test_divide_holds_the_divisor_and_both_for_the_divisors_gradient(self):
        rng = np.random.default_rng(76)
        x, c = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True), Tensor(rng.uniform(1.0, 2.0, size=4))
        assert {id(array) for array in captured(x / c)} == {id(c.data)}
        assert {id(array) for array in captured(c / x)} == {id(c.data), id(x.data)}

    def test_matmul_holds_each_operand_only_for_the_others_gradient(self):
        rng = np.random.default_rng(77)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(4, 5))
        activation = x * 1.0
        assert {id(array) for array in captured(matmul(activation, Tensor(w)))} == {id(w)}
        held = captured(matmul(Tensor(x.data), Tensor(w, requires_grad=True)))
        assert len(held) == 1 and np.shares_memory(held[0], x.data)

    @pytest.mark.parametrize(
        "op",
        [lambda x: leaky_relu(x, 0.2), lambda x: dropout(x, 0.5, True, np.random.default_rng(0))],
        ids=["leaky_relu", "dropout"],
    )
    def test_mask_ops_hold_one_bool_mask(self, op):
        x = Tensor(np.random.default_rng(78).normal(size=(3, 4)), requires_grad=True)
        assert [array.dtype for array in captured(op(x))] == [np.bool_]

    def test_reassigned_leaf_does_not_change_a_recorded_backward(self):
        x, w = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
        loss = (x * w).sum()
        w.data = np.array([5.0, 6.0])  # the rule reads the array it captured
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])


def test_all_lists_exactly_the_public_definitions():
    # the benchmark's tracer may pool ops by __all__, so a private helper must stay out and every op in
    defined = {
        name
        for name, value in vars(fvig.tensor).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == fvig.tensor.__name__
    }
    assert len(fvig.tensor.__all__) == len(set(fvig.tensor.__all__))
    assert set(fvig.tensor.__all__) == defined


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_repeated_backward_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        loss = x * x
        loss.backward()
        loss.backward()
        assert x.grad == pytest.approx(12.0)

    def test_grad_kept_only_on_leaves(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = x * w
        loss = (h * h).sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2 * x.data * w.data**2, rtol=1e-14)
        np.testing.assert_allclose(w.grad, 2 * w.data * x.data**2, rtol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x + 1.0).backward()

    def test_shared_subexpression_counted_once_per_use(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        (y + y).backward()  # d/dx 2x^2 = 4x
        assert x.grad == pytest.approx(8.0)


class TestNoGrad:
    def test_results_are_leaves_with_equal_values(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        recorded = softmax_lastdim(matmul(x, w))
        with no_grad():
            plain = softmax_lastdim(matmul(x, w))
        assert recorded.requires_grad and recorded._parents
        assert not plain.requires_grad and plain._parents == () and plain._backward_rule is None
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_nests(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (x * x).requires_grad
            assert not (x * x).requires_grad  # the inner exit leaves the outer block graph-free
        y = x * x
        assert y._parents == (x, x)
        y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_flag_restored_when_body_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            with no_grad():
                x + Tensor(np.ones(4))
        assert (x * 2.0).requires_grad


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.1, training=False) is x

    def test_monte_carlo_zero_fraction(self):
        rng = np.random.default_rng(19)
        x = Tensor(np.ones(200_000))
        out = dropout(x, 0.1, training=True, rng=rng)
        frac = float((out.data == 0.0).mean())
        assert abs(frac - 0.1) < 0.01

    def test_survivor_scaling(self):
        rng = np.random.default_rng(20)
        x = Tensor(np.full(1000, 2.0))
        out = dropout(x, 0.25, training=True, rng=rng).data
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 2.0 / 0.75, atol=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_missing_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            dropout(Tensor([1.0]), 0.5, training=True)

    def test_seeded_mask_reproducible(self):
        x = Tensor(np.ones(64))
        a = dropout(x, 0.3, training=True, rng=np.random.default_rng(7)).data
        b = dropout(x, 0.3, training=True, rng=np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)


class TestNumericHygiene:
    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 6)) * 50)
        chain = softmax_lastdim(leaky_relu(x, 0.2)) * sigmoid(x) + (x * x).mean(axis=-1, keepdims=True)
        assert np.all(np.isfinite(chain.data))

    def test_forward_backward_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(22)
            x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
            h = dropout(sigmoid(matmul(x, w)), 0.2, training=True, rng=np.random.default_rng(5))
            loss = (h * h).sum()
            loss.backward()
            return loss.item(), x.grad.copy(), w.grad.copy()

        la, xa, wa = run()
        lb, xb, wb = run()
        assert la == lb
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(wa, wb)


INDEX = np.random.default_rng(42).integers(0, 5, size=(2, 5, 4))  # duplicates in most rows


def _normal(*shapes):
    return lambda rng: [rng.normal(size=shape) for shape in shapes]


def _positive(*shapes):
    return lambda rng: [np.abs(rng.normal(size=shape)) + 0.5 for shape in shapes]


# every op the model's forward and loss use, on small operands
MODEL_OPS = {
    "broadcast_add": (_normal((2, 3, 4), (4,)), lambda a, b: broadcast_add(a, b)),
    "subtract": (_normal((2, 3, 4), (2, 3, 1)), lambda a, b: a - b),
    "multiply": (_normal((2, 3, 4), (3, 1)), lambda a, b: a * b),
    "divide": (lambda rng: _normal((2, 3, 4))(rng) + _positive((2, 3, 1))(rng), lambda a, b: a / b),
    "power": (_positive((2, 3, 4)), lambda a: a**-0.5),
    "exp": (_normal((2, 3, 4)), exp),
    "log": (_positive((2, 3, 4)), log),
    "matmul": (_normal((2, 3, 4), (4, 5)), matmul),
    "sigmoid": (_normal((2, 3, 4)), sigmoid),
    "leaky_relu": (_normal((2, 3, 4)), lambda a: leaky_relu(a, 0.2)),
    "softmax_lastdim": (_normal((2, 3, 4)), softmax_lastdim),
    "cosine_similarity": (_normal((2, 3, 1, 4), (2, 3, 5, 4)), cosine_similarity),
    "concat_lastdim": (_normal((2, 3, 4), (2, 3, 2)), lambda a, b: concat_lastdim([a, b])),
    "transpose_last2": (_normal((2, 3, 4)), transpose_last2),
    "reshape": (_normal((2, 3, 4)), lambda a: reshape(a, (6, 4))),
    "gather_neighbors": (_normal((2, 5, 3)), lambda a: gather_neighbors(a, INDEX)),
    "scatter_add_neighbors": (_normal((2, 5, 4, 3)), lambda a: scatter_add_neighbors(a, INDEX, 5)),
    "dropout": (_normal((2, 3, 4)), lambda a: dropout(a, 0.3, training=True, rng=np.random.default_rng(0))),
    "sum": (_normal((2, 3, 4)), lambda a: a.sum(axis=1)),
    "mean": (_normal((2, 3, 4)), lambda a: a.mean(axis=-1, keepdims=True)),
    "max": (_normal((2, 5, 4, 3)), lambda a: a.max(axis=2)),
    "gather_max": (_normal((2, 5, 3)), lambda a: gather_max(a, INDEX)),
    "gated_gather_sum": (_normal((2, 5, 4, 2), (2, 5, 6)), lambda g, r: gated_gather_sum(g, r, INDEX)),
    "gated_scatter_sum": (_normal((2, 5, 4, 2), (2, 5, 6)), lambda g, r: gated_scatter_sum(g, r, INDEX)),
    "neighbor_cosine": (_normal((2, 5, 6), (2, 5, 6)), lambda c, x: neighbor_cosine(c, x, INDEX, 2)),
}


class TestRuleClosures:
    """``graph_footprint`` and ``held_buffers`` read a rule's own closure cells, one level deep."""

    @pytest.mark.parametrize("name", [*MODEL_OPS, "slice_lastdim"])
    def test_no_callable_in_a_rule_captures_an_array(self, name):
        # an array or tensor that a rule reaches only through a function it calls would hide from both walks
        make_inputs, op = MODEL_OPS.get(name, (_normal((2, 3, 4)), lambda a: slice_lastdim(a, 1, 3)))
        out = op(*[Tensor(a, requires_grad=True) for a in make_inputs(np.random.default_rng(44))])
        for fn in (value for value in closure_values(out) if callable(value)):
            hidden = [cell.cell_contents for cell in getattr(fn, "__closure__", None) or ()]
            assert not any(isinstance(value, (np.ndarray, Tensor)) for value in hidden), fn.__qualname__


class TestNoInPlaceWrites:
    """Shape ops return views, so no op may write into an operand's memory."""

    @pytest.mark.parametrize("name", list(MODEL_OPS))
    def test_operands_unchanged_by_forward_and_backward(self, name):
        make_inputs, op = MODEL_OPS[name]
        arrays = make_inputs(np.random.default_rng(40))
        snapshots = [a.tobytes() for a in arrays]
        runs = []
        for through_views in (False, True):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            # a reshape round trip hands the op views of the leaves' own memory
            operands = [reshape(reshape(t, (-1,)), t.shape) if through_views else t for t in leaves]
            out = op(*operands)
            (out * Tensor(np.random.default_rng(41).normal(size=out.shape))).sum().backward()
            assert [t.data.tobytes() for t in leaves] == snapshots
            runs.append([out.data] + [t.grad for t in leaves])
        for direct, viewed in zip(*runs):
            np.testing.assert_array_equal(viewed, direct)

    @pytest.mark.parametrize(
        "op, gradient_of",
        [
            (lambda t: reshape(t, (6, 4)), lambda w: w.reshape(2, 3, 4)),
            (transpose_last2, lambda w: np.swapaxes(w, -1, -2)),
        ],
        ids=["reshape", "transpose_last2"],
    )
    def test_shape_ops_return_views_with_unchanged_gradients(self, op, gradient_of):
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = op(x)
        assert np.shares_memory(out.data, x.data)
        w = rng.normal(size=out.shape)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(x.grad, gradient_of(w))
