"""Graph construction tests: brute-force sort oracles and spec'd tie rules."""

import numpy as np
import pytest

from fvig.graph import build_graph, dilation_rates, pairwise_sq_euclidean, select_neighbors


def sorted_row_oracle(weights_row: np.ndarray, self_index: int, m: int) -> list[int]:
    """Brute-force ranking: self first, then every other index by (weight, index)."""
    others = sorted(
        (j for j in range(len(weights_row)) if j != self_index),
        key=lambda j: (weights_row[j], j),
    )
    return [self_index] + others[: m - 1]


def knn_oracle(dist: np.ndarray, k: int) -> np.ndarray:
    b, n, _ = dist.shape
    return np.array([[sorted_row_oracle(dist[bi, i], i, k) for i in range(n)] for bi in range(b)])


def weighted_oracle(alpha: np.ndarray, dist: np.ndarray, k: int) -> np.ndarray:
    b, n, _ = dist.shape
    return np.array(
        [[sorted_row_oracle(alpha[bi, i] * dist[bi, i], i, k) for i in range(n)] for bi in range(b)]
    )


def dilated_oracle(dist: np.ndarray, k: int, d: int) -> np.ndarray:
    b, n, _ = dist.shape
    rows = [
        [sorted_row_oracle(dist[bi, i], i, k * d)[::d] for i in range(n)]
        for bi in range(b)
    ]
    return np.array(rows)


def random_alpha(rng, b, n):
    """Row-stochastic positive attention."""
    raw = np.exp(rng.normal(size=(b, n, n)))
    return raw / raw.sum(axis=-1, keepdims=True)


class TestPairwiseDistance:
    def test_three_four_five_triangle(self):
        v = np.array([[[0.0, 0.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(pairwise_sq_euclidean(v)[0], [[0.0, 25.0], [25.0, 0.0]])

    def test_single_node(self):
        np.testing.assert_array_equal(pairwise_sq_euclidean(np.zeros((1, 1, 3)))[0], [[0.0]])

    def test_random_vs_double_loop(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2, 6, 3))
        dist = pairwise_sq_euclidean(v)
        for b in range(2):
            for i in range(6):
                for j in range(6):
                    expected = float(((v[b, i] - v[b, j]) ** 2).sum())
                    assert abs(dist[b, i, j] - expected) < 1e-10

    def test_invariants(self):
        rng = np.random.default_rng(1)
        dist = pairwise_sq_euclidean(rng.normal(size=(3, 8, 5)))
        np.testing.assert_allclose(dist, np.swapaxes(dist, 1, 2), atol=1e-9)
        assert np.all(dist >= 0)
        for b in range(3):
            np.testing.assert_array_equal(np.diag(dist[b]), np.zeros(8))

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            pairwise_sq_euclidean(np.zeros((4, 3)))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(16)
        for n, d in ((8, 5), (33, 17), (196, 64)):
            dist = pairwise_sq_euclidean(rng.normal(size=(3, n, d)))
            np.testing.assert_array_equal(dist, np.swapaxes(dist, 1, 2))

    def test_duplicate_points(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=(2, 40, 12))
        v[:, [9, 23, 31]] = v[:, [4, 4, 4]]
        dist = pairwise_sq_euclidean(v)
        dup = [4, 9, 23, 31]
        others = [j for j in range(40) if j not in dup]
        for i in dup:
            np.testing.assert_array_equal(dist[:, i, dup], np.zeros((2, 4)))
            np.testing.assert_array_equal(dist[:, i, others], dist[:, 4, others])

    def test_near_duplicates_never_negative(self):
        # the Gram form cancels to rounding noise here; the clamp keeps it at or above 0
        rng = np.random.default_rng(21)
        v = rng.normal(size=(2, 40, 12))
        v[:, 20:] = v[:, :20] + rng.normal(size=(2, 20, 12)) * 1e-9
        assert np.all(pairwise_sq_euclidean(v) >= 0.0)

    def test_common_offset_vs_double_loop(self):
        rng = np.random.default_rng(18)
        v = rng.normal(size=(2, 10, 6)) + 1e5
        dist = pairwise_sq_euclidean(v)
        for b in range(2):
            for i in range(10):
                for j in range(10):
                    expected = float(((v[b, i] - v[b, j]) ** 2).sum())
                    assert abs(dist[b, i, j] - expected) <= 1e-9 * expected

    def test_forced_ties_vs_oracles(self):
        # quantised coordinates put many candidates at exactly equal distances
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            v = rng.integers(-2, 3, size=(2, n, int(rng.integers(1, 4)))) * 0.5
            k, d = int(rng.integers(1, n + 1)), int(rng.integers(1, min(n, 3) + 1))
            kd = int(rng.integers(1, n // d + 1))
            dist = pairwise_sq_euclidean(v)
            np.testing.assert_array_equal(build_graph(v, k), knn_oracle(dist, k))
            alpha = random_alpha(rng, 2, n)
            np.testing.assert_array_equal(build_graph(v, k, alpha=alpha), weighted_oracle(alpha, dist, k))
            np.testing.assert_array_equal(build_graph(v, kd, dilation=d), dilated_oracle(dist, kd, d))


class TestKnn:
    def test_hand_case(self):
        dist = np.array([[[0.0, 1.0, 2.0], [1.0, 0.0, 5.0], [2.0, 5.0, 0.0]]])
        np.testing.assert_array_equal(select_neighbors(dist, 2)[0, 0], [0, 1])

    def test_k_equals_n_gives_permutations(self):
        rng = np.random.default_rng(2)
        dist = pairwise_sq_euclidean(rng.normal(size=(2, 7, 3)))
        adj = select_neighbors(dist, 7)
        for b in range(2):
            for i in range(7):
                assert sorted(adj[b, i]) == list(range(7))

    def test_200_random_instances_vs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            k = int(rng.integers(1, n + 1))
            dist = pairwise_sq_euclidean(rng.normal(size=(1, n, 4)))
            np.testing.assert_array_equal(select_neighbors(dist, k), knn_oracle(dist, k))

    def test_tie_rule_prefers_smaller_index(self):
        # nodes 1 and 2 are equidistant from node 0
        dist = np.array([[[0.0, 4.0, 4.0, 9.0], [4.0, 0.0, 1.0, 2.0], [4.0, 1.0, 0.0, 3.0], [9.0, 2.0, 3.0, 0.0]]])
        np.testing.assert_array_equal(select_neighbors(dist, 2)[0, 0], [0, 1])

    def test_k_out_of_range(self):
        dist = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            select_neighbors(dist, 0)
        with pytest.raises(ValueError):
            select_neighbors(dist, 4)
        with pytest.raises(ValueError, match="dilation"):
            select_neighbors(dist, 1, 0)


class TestSaliencyAdjacency:
    def test_uniform_alpha_equals_plain_knn(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(2, 16, 6))
        alpha = np.full((2, 16, 16), 1.0 / 16)
        np.testing.assert_array_equal(build_graph(v, 5, alpha=alpha), knn_oracle(pairwise_sq_euclidean(v), 5))

    def test_hand_forced_ordering(self):
        # squared distances [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        v = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]])
        alpha = np.array([[[0.5, 0.4, 0.1], [1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]]])
        # weighted row 0: [0, 0.4, 0.2] -> self then index 2
        np.testing.assert_array_equal(build_graph(v, 2, alpha=alpha)[0, 0], [0, 2])

    def test_200_random_instances_vs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            k = int(rng.integers(1, n + 1))
            v = rng.normal(size=(1, n, 3))
            alpha = random_alpha(rng, 1, n)
            np.testing.assert_array_equal(
                build_graph(v, k, alpha=alpha), weighted_oracle(alpha, pairwise_sq_euclidean(v), k)
            )

    def test_unnormalized_alpha_rejected(self):
        v = np.zeros((1, 3, 2))
        alpha = np.full((1, 3, 3), 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            build_graph(v, 2, alpha=alpha)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            build_graph(np.zeros((1, 3, 2)), 2, alpha=np.full((1, 2, 2), 0.5))

    @pytest.mark.parametrize(
        "row, bad",
        [([np.nan, 0.5, 0.5], 1), ([-0.5, 1.0, 0.5], 1), ([np.inf, -np.inf, 1.0], 2)],
    )
    def test_non_finite_or_negative_alpha_rejected(self, row, bad):
        # each row would pass the row-sum check alone: it sums to 1, or to NaN, which compares false
        v = np.random.default_rng(21).normal(size=(1, 3, 2))
        alpha = np.full((1, 3, 3), 1.0 / 3)
        alpha[0, 1] = row
        with pytest.raises(ValueError, match=f"attention holds {bad} non-finite or negative"):
            build_graph(v, 2, alpha=alpha)
        v[0, 0, 0] = np.nan  # bad features are named first
        with pytest.raises(ValueError, match="features hold 1 non-finite"):
            build_graph(v, 2, alpha=alpha)


class TestDilatedSelect:
    def test_dilation_one_is_plain_knn(self):
        rng = np.random.default_rng(6)
        dist = pairwise_sq_euclidean(rng.normal(size=(2, 10, 4)))
        np.testing.assert_array_equal(select_neighbors(dist, 4, 1), knn_oracle(dist, 4))

    def test_known_ordering_takes_strided_positions(self):
        # distances from node 0 rank the others as 1,2,3,...,7
        n = 8
        v = np.arange(n, dtype=np.float64).reshape(1, n, 1) ** 2
        dist = pairwise_sq_euclidean(v)
        adj = select_neighbors(dist, 2, 2)
        # candidates for node 0: [0,1,2,3]; stride 2 -> [0, 2]
        np.testing.assert_array_equal(adj[0, 0], [0, 2])

    def test_random_vs_sort_then_stride_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, max(2, n // d + 1)))
            if k * d > n:
                continue
            dist = pairwise_sq_euclidean(rng.normal(size=(1, n, 3)))
            np.testing.assert_array_equal(select_neighbors(dist, k, d), dilated_oracle(dist, k, d))

    def test_kd_exceeds_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            select_neighbors(np.zeros((1, 6, 6)), 4, 2)

    def test_self_survives_at_position_zero(self):
        rng = np.random.default_rng(8)
        dist = pairwise_sq_euclidean(rng.normal(size=(1, 12, 3)))
        adj = select_neighbors(dist, 3, 4)
        np.testing.assert_array_equal(adj[0, :, 0], np.arange(12))


class TestBuildGraph:
    def test_composition_identity_plain(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(2, 9, 4))
        np.testing.assert_array_equal(build_graph(v, 3), knn_oracle(pairwise_sq_euclidean(v), 3))

    def test_uniform_alpha_any_dilation_equals_dilated_select(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=(1, 12, 4))
        alpha = np.full((1, 12, 12), 1.0 / 12)
        np.testing.assert_array_equal(
            build_graph(v, 3, alpha=alpha, dilation=2),
            dilated_oracle(pairwise_sq_euclidean(v), 3, 2),
        )

    def test_random_config_vs_step_by_step(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, n // d + 1))
            v = rng.normal(size=(2, n, 5))
            alpha = random_alpha(rng, 2, n)
            dist = pairwise_sq_euclidean(v)
            expected = weighted_oracle(alpha, dist, k * d)[:, :, ::d]
            np.testing.assert_array_equal(build_graph(v, k, alpha=alpha, dilation=d), expected)

    def test_propagates_errors(self):
        v = np.zeros((1, 4, 2))
        with pytest.raises(ValueError):
            build_graph(v, 3, dilation=2)
        with pytest.raises(ValueError, match="sum to 1"):
            build_graph(v, 2, alpha=np.full((1, 4, 4), 0.1))

    def test_non_finite_features_rejected(self):
        v = np.random.default_rng(20).normal(size=(2, 6, 3))
        v[0, 2, 1] = np.nan
        v[1, 4, 0] = np.inf
        v[1, 5, 2] = -np.inf
        with pytest.raises(ValueError, match="3 non-finite"):
            build_graph(v, 2)


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(2, 14, 6))
        perm = rng.permutation(14)
        inv = np.argsort(perm)
        adj = build_graph(v, 4, dilation=2)
        adj_p = build_graph(v[:, perm, :], 4, dilation=2)
        np.testing.assert_array_equal(adj_p, inv[adj[:, perm, :]])

    def test_self_first_and_no_duplicates(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(3, 20, 4))
        for k, d in ((1, 1), (5, 1), (4, 3), (20, 1)):
            adj = build_graph(v, k, dilation=d)
            assert np.array_equal(adj[:, :, 0], np.tile(np.arange(20), (3, 1)))
            for b in range(3):
                for i in range(20):
                    row = adj[b, i]
                    assert len(set(row.tolist())) == len(row)

    def test_row_constant_alpha_equals_knn(self):
        rng = np.random.default_rng(14)
        v = rng.normal(size=(1, 16, 4))
        alpha = np.full((1, 16, 16), 1.0 / 16)
        np.testing.assert_array_equal(build_graph(v, 6, alpha=alpha), build_graph(v, 6))

    def test_scale_invariance_of_distances(self):
        rng = np.random.default_rng(15)
        dist = pairwise_sq_euclidean(rng.normal(size=(2, 10, 3)))
        np.testing.assert_array_equal(select_neighbors(dist, 4), select_neighbors(dist * 8.0, 4))


class TestDilationRates:
    def test_step4(self):
        assert dilation_rates(12, "step4") == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        assert dilation_rates(16, "step4")[-1] == 4
        assert dilation_rates(24, "step4")[-1] == 4  # capped

    def test_range25(self):
        assert dilation_rates(12, "range25") == [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]
        assert dilation_rates(20, "range25")[-1] == 5  # capped

    def test_explicit_list(self):
        assert dilation_rates(3, "1,2,4") == [1, 2, 4]

    def test_bad_schedule(self):
        with pytest.raises(ValueError, match="unknown dilation schedule"):
            dilation_rates(3, "nope")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            dilation_rates(3, "1,2")

    def test_nonpositive_rate(self):
        with pytest.raises(ValueError):
            dilation_rates(2, "1,0")
