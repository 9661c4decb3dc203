"""Tests for the finite-difference checker itself, including a negative control."""

import numpy as np
import pytest

from fvig.gradcheck import GradCheckReport, model_grad_check
from fvig.tensor import Tensor, _send, glorot, matmul, softmax_lastdim
from fvig.train import cross_entropy


def grad_check(f, x, h: float = 1e-6, tol: float = 1e-4) -> GradCheckReport:
    """Compare df/dx from ``backward`` against central differences at every entry of ``x``.

    ``f`` maps a tensor to a scalar tensor and must be deterministic. It is called on a fresh
    copy of ``x``, so ``x`` itself is never modified: ``model_grad_check`` over one leaf named ``x``.
    """
    leaf = Tensor(np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64), requires_grad=True)
    return model_grad_check([("x", leaf)], lambda: f(leaf), leaf.size, h, tol)


def test_square_function():
    report = grad_check(lambda t: (t * t).sum(), np.array([3.0]))
    assert report.max_rel_error < 1e-8
    assert report.passed


def test_softmax_cross_entropy_composite():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)
    report = grad_check(lambda t: cross_entropy(t, labels), logits, h=1e-6, tol=1e-6)
    assert report.passed, report


def test_deliberately_wrong_backward_is_reported():
    def broken_square(t: Tensor) -> Tensor:
        def rule(g, pending):
            _send(pending, t, g * 3.0 * t.data)  # wrong: derivative of x^2 is 2x

        return Tensor._result(t.data * t.data, (t,), rule).sum()

    report = grad_check(broken_square, np.array([2.0, -1.5]), tol=1e-4)
    assert not report.passed
    assert report.max_rel_error > 0.1
    assert report.worst_at in ("x[0]", "x[1]")
    # the report names the analytic and numeric values at the worst entry
    assert report.analytic_at_worst != pytest.approx(report.numeric_at_worst, rel=0.01)


def _nan_backward_square(t: Tensor) -> Tensor:
    """x^2 whose backward rule sends NaN at every entry."""

    def rule(g, pending):
        _send(pending, t, g * np.nan)

    return Tensor._result(t.data * t.data, (t,), rule).sum()


def test_nan_backward_is_reported():
    report = grad_check(_nan_backward_square, np.array([2.0, -1.5]), tol=1e-4)
    assert not report.passed
    assert report.max_rel_error == np.inf
    assert report.worst_at == "x[0]"
    assert np.isnan(report.analytic_at_worst)


def test_inf_numeric_is_reported():
    # the loss overflows to Inf on the +h probe of entry 1 only
    with np.errstate(over="ignore"):
        report = grad_check(lambda t: (t * t).sum(), np.array([1.0, 1.3e154]), h=1e153)
    assert not report.passed
    assert report.max_rel_error == np.inf
    assert report.worst_at == "x[1]"


def test_model_grad_check_nan_backward_is_reported():
    rng = np.random.default_rng(2)
    a, b = glorot(rng, 2, 3), Tensor(rng.normal(size=3), requires_grad=True)

    def loss_fn():
        return matmul(a, Tensor(np.ones((3, 1)))).sum() + _nan_backward_square(b)

    report = model_grad_check([("a", a), ("b", b)], loss_fn, num_params=9)
    assert not report.passed
    assert report.max_rel_error == np.inf
    assert report.worst_at == "b[0]"  # the first entry of b, after all six of a
    assert report.num_checked == 9


@pytest.mark.parametrize(
    "name, sizes, operands",
    [
        ("matmul", (120, 15), ("a", "b")),
        ("cosine_similarity_broadcast", (30, 120), ("a", "b")),
        ("gated_gather_sum", (84, 84), ("gates", "rows")),
        ("gated_scatter_sum", (84, 84), ("gates", "rows")),
        ("neighbor_cosine", (84, 84), ("centers", "x")),
    ],
)
def test_pair_checks_probe_both_operands_in_one_report(name, sizes, operands):
    from fvig.checksuite import run_suite

    [(_, report)] = [item for item in run_suite(only=name) if item[0] == name]
    assert report.passed and report.num_checked == sum(sizes)
    operand, offset = report.worst_at.rstrip("]").split("[")
    # worst_at counts within its own operand
    assert operand in operands and 0 <= int(offset) < sizes[operands.index(operand)]


def test_suite_rows_are_pinned():
    # adding, dropping or reordering a row shows here; the field rows follow their constructors' assignments
    from fvig.checksuite import build_suite

    assert [name for name, *_ in build_suite(0)] == [
        "matmul", "cosine_similarity_broadcast", "gated_gather_sum", "gated_scatter_sum", "neighbor_cosine",
        "broadcast_add", "multiply", "divide", "power", "exp", "log", "softmax", "leaky_relu", "sigmoid",
        "cosine_similarity", "reduce_sum", "reduce_mean", "reduce_max", "concat", "slice", "transpose", "reshape",
        "gather", "gather_max", "scatter", "dropout", "node_norm", "cross_entropy", "channel_saliency.weight",
        "channel_saliency.self_score", "channel_saliency.neighbor_score", "cluster.gate_scale", "cluster.gate_shift",
        "cluster.weight_in", "cluster.weight_out", "cluster.features", "max_relative", "grapher_block", "ffn_block",
        "model",
    ]


def test_model_grad_check_bad_step_size():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        model_grad_check([("w", w)], lambda: (w * w).sum(), h=0.0)


def test_grad_check_leaves_input_unmutated():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    before = x.copy()
    x_tensor = Tensor(x.copy(), requires_grad=True)
    grad_check(lambda t: (softmax_lastdim(t) * t).sum(), x)
    grad_check(lambda t: (softmax_lastdim(t) * t).sum(), x_tensor)
    assert np.array_equal(x, before)
    assert np.array_equal(x_tensor.data, before)
    assert x_tensor.grad is None


def test_model_grad_check_restores_parameters_bit_equal():
    from fvig.checksuite import micro_config
    from fvig.model import FViGModel

    model = FViGModel(micro_config(), rng=np.random.default_rng(4))
    images = np.random.default_rng(5).random((2, 3, 32, 32))
    before = {name: t.data.copy() for name, t in model.named_parameters()}

    def loss_fn():
        return cross_entropy(model.forward(images), np.array([0, 2]))

    # a large step: undoing it arithmetically (+h, -2h, +h) would not round back for most entries
    report = model_grad_check(model.named_parameters(), loss_fn, num_params=40, h=1e-3)
    assert report.num_checked == 40
    for name, t in model.named_parameters():
        assert t.data.tobytes() == before[name].tobytes(), name


def test_zero_gradient_function_passes():
    # f ignores x entirely: analytic and numeric gradients are both zero
    report = grad_check(lambda t: (t * 0.0).sum() + 5.0, np.array([1.0, 2.0]))
    assert report.passed


def test_bad_step_size():
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), np.zeros(2), h=0.0)


def test_softmax_rows_used_as_loss():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(2, 5)))
    report = grad_check(lambda t: (softmax_lastdim(t) * w).sum(), rng.normal(size=(2, 5)), tol=1e-6)
    assert report.passed
