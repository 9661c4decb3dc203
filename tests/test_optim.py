"""Optimizer and schedule tests: hand-evaluated recurrences as oracles."""

import numpy as np
import pytest

from fvig.optim import AdamW, cosine_lr
from fvig.tensor import ShapeError, Tensor


class TestAdamW:
    def test_decay_only_with_zero_gradient(self):
        w = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(w.data, np.array([2.0, -3.0]) * (1.0 - 0.1 * 0.5), atol=1e-15)

    def test_single_step_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w0, g = 1.0, 0.5
        # one step of the recurrence, evaluated by hand
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = w0 - lr * m_hat / (np.sqrt(v_hat) + eps)

        w = Tensor(np.array([w0]), requires_grad=True)
        w.grad = np.array([g])
        opt = AdamW([("w", w)], lr=lr, weight_decay=0.0)
        opt.step()
        assert w.data[0] == pytest.approx(expected, rel=1e-14)

    def test_lr_zero_leaves_params_unchanged(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w.grad = np.array([3.0, -4.0])
        AdamW([("w", w)], lr=0.0).step()
        np.testing.assert_array_equal(w.data, [1.0, 2.0])

    def test_multi_step_vs_independent_recurrence(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=4)
        grads = rng.normal(size=(5, 4))
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.05

        w = Tensor(w0.copy(), requires_grad=True)
        opt = AdamW([("w", w)], lr=lr, weight_decay=wd)
        for g in grads:
            w.grad = g.copy()
            opt.step()

        # independent recurrence
        ref, m, v = w0.copy(), np.zeros(4), np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            update = (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            ref = ref - lr * (update + wd * ref)
        np.testing.assert_allclose(w.data, ref, atol=1e-14)

    def test_gradient_shape_mismatch(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        w.grad = np.zeros(3)
        with pytest.raises(ShapeError, match="'w'"):
            AdamW([("w", w)], lr=0.1).step()

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    def test_bad_hyperparameters(self, field, value):
        w = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="bad optimizer hyperparameters"):
            AdamW([("w", w)], **{"lr": 0.1, field: value})

    def test_step_counter_increases(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.1)
        opt.step()
        opt.step()
        assert opt.step_count == 2


class TestCosineLr:
    def test_start_is_max(self):
        assert cosine_lr(0, 100, 3e-3, 1e-5) == pytest.approx(3e-3)

    def test_end_is_min(self):
        assert cosine_lr(100, 100, 3e-3, 1e-5) == pytest.approx(1e-5, abs=1e-18)

    def test_midpoint_is_average(self):
        assert cosine_lr(50, 100, 3e-3, 1e-5) == pytest.approx((3e-3 + 1e-5) / 2)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(101, 100, 1e-3, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(-1, 100, 1e-3, 0.0)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 50, 1e-2, 0.0) for s in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))
