"""Property tests: gather_neighbors and scatter_add_neighbors are adjoint, duplicates included."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fvig.tensor import Tensor, gather_neighbors, scatter_add_neighbors  # noqa: E402


@st.composite
def gather_case(draw):
    """Random B, N, K, D and an index whose last slot repeats the first, so every row has a duplicate."""
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(2, 6))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = rng.integers(0, n, size=(b, n, k))
    index[..., -1] = index[..., 0]
    return rng.normal(size=(b, n, d)), index, rng.normal(size=(b, n, k, d))


SETTINGS = hypothesis.settings(deadline=None, max_examples=50)


@SETTINGS
@hypothesis.given(gather_case())
def test_gather_scatter_adjoint(case):
    x, index, y = case
    gathered = gather_neighbors(x, index).data
    lhs = float(np.sum(gathered * y))
    rhs = float(np.sum(x * scatter_add_neighbors(y, index, x.shape[1]).data))
    # relative to the sum of |terms|, the scale of the rounding in either sum
    assert abs(lhs - rhs) <= 1e-12 * float(np.sum(np.abs(gathered * y)))


@SETTINGS
@hypothesis.given(gather_case())
def test_gather_backward_is_scatter_of_incoming_gradient(case):
    x, index, y = case
    leaf = Tensor(x, requires_grad=True)
    (gather_neighbors(leaf, index) * Tensor(y)).sum().backward()
    np.testing.assert_array_equal(leaf.grad, scatter_add_neighbors(y, index, x.shape[1]).data)
