"""Property tests.

- gather_neighbors and scatter_add_neighbors are adjoint, duplicate indices included
- the in-degree-slot scatter-adds, plain and gated, are byte-equal to an np.add.at oracle, with
  hub targets, -0.0 values and num_nodes > N
- the cosine backward matches the edge-form oracle over broadcast shapes, zero rows and rows at or below eps
- every selector equals its brute-force oracle under forced ties and duplicate points
- corrupt checkpoint and PPM bytes raise only the module's own error type
"""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fvig.checkpoint import CheckpointError, load_checkpoint  # noqa: E402
from fvig.checksuite import micro_config  # noqa: E402
from fvig.data import DatasetError, decode_ppm_bytes, encode_ppm  # noqa: E402
from fvig.graph import build_graph, pairwise_sq_euclidean  # noqa: E402
from fvig.model import FViGModel  # noqa: E402
from fvig.tensor import (  # noqa: E402
    COSINE_EPS,
    Tensor,
    _unbroadcast,
    cosine_similarity,
    gated_scatter_sum,
    gather_neighbors,
    scatter_add_neighbors,
)

from test_graph import dilated_oracle, knn_oracle, weighted_oracle  # noqa: E402


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


@st.composite
def scatter_case(draw):
    """Random B, N, K, C (C = 1 is the in-degree shape), one duplicate per row, values spanning 1e-8..1e8.

    About a fifth of the values are -0.0. Half the cases have a hub: about 70% of the edges go to
    one node per batch, whose in-degree is then in the tens, so the plan has many slots. The index
    may point past N, up to ``num_nodes``.
    """
    hub = draw(st.booleans())
    b = draw(st.integers(1, 4))
    n = draw(st.integers(8 if hub else 1, 12))
    k = draw(st.integers(6 if hub else 2, 9))
    c = draw(st.sampled_from([1, 1, 2, 3, 7]))
    num_nodes = n + draw(st.sampled_from([0, 0, 1, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = rng.integers(0, num_nodes, size=(b, n, k))
    if hub:
        hubs = np.broadcast_to(rng.integers(0, num_nodes, size=(b, 1, 1)), index.shape)
        index = np.where(rng.random(index.shape) < 0.7, hubs, index)
    index[..., -1] = index[..., 0]
    values = rng.normal(size=(b, n, k, c)) * 10.0 ** rng.integers(-8, 9, size=(b, n, k, c))
    values[rng.random(values.shape) < 0.2] = -0.0
    return values, index, num_nodes


def add_at_oracle(values, index, num_nodes):
    b, _, _, c = values.shape
    expected = np.zeros((b, num_nodes, c))
    np.add.at(expected, (np.arange(b)[:, None, None], index), values)
    return expected


# B*num_nodes past 2**16, so the plan's sort keys are wider than 16 bits; each batch's index is reversed
WIDE_CASE = (
    np.linspace(-1.0, 1.0, 80000).reshape(2, 40000, 1, 1),
    np.arange(40000)[::-1].reshape(1, 40000, 1).repeat(2, axis=0),
    40000,
)


@SETTINGS
@hypothesis.given(scatter_case())
@hypothesis.example(WIDE_CASE)
def test_scatter_add_matches_add_at_oracle(case):
    values, index, num_nodes = case
    got = scatter_add_neighbors(values, index, num_nodes).data
    assert got.tobytes() == add_at_oracle(values, index, num_nodes).tobytes()


@SETTINGS
@hypothesis.given(scatter_case(), st.sampled_from([1, 2, 4]))
def test_gated_scatter_matches_add_at_oracle(case, heads):
    values, index, _ = case
    b, n, k, c = values.shape
    index = index % n
    gates = np.random.default_rng(int(index.sum())).uniform(-1.0, 1.0, size=(b, n, k, heads))
    gates[..., 0, :] = -0.0
    rows = values[:, :, 0, :].repeat(heads, axis=-1)  # C*heads channels, split into heads slices
    gated = (gates[..., None] * rows.reshape(b, n, 1, heads, c)).reshape(b, n, k, c * heads)
    got = gated_scatter_sum(gates, rows, index).data
    assert got.tobytes() == add_at_oracle(gated, index, n).tobytes()


def edge_form_cosine_grads(a, b, g, eps):
    """The edge-form cosine backward, kept as an oracle.

    Both operands' gradients are built at the full broadcast size and only then summed down to
    each operand's shape. Returns ``(grad_a, grad_b)`` and, for each, the sum of the absolute
    terms behind it: the scale of the rounding in either order of summation.
    """
    dot = (a * b).sum(axis=-1)
    na, nb = np.sqrt((a * a).sum(axis=-1)), np.sqrt((b * b).sum(axis=-1))
    ca, cb = np.maximum(na, eps), np.maximum(nb, eps)
    denom = ca * cb
    grads, scales = [], []
    for x, other, norm, clamped, clamped_other in ((a, b, na, ca, cb), (b, a, nb, cb, ca)):
        first = other / denom[..., None]
        second = (np.where(norm > eps, dot / (clamped * clamped * clamped_other), 0.0)[..., None] * x
                  / np.where(norm > 0, norm, 1.0)[..., None])
        grads.append(_unbroadcast(g[..., None] * (first - second), x.shape))
        scales.append(_unbroadcast(np.abs(g[..., None]) * (np.abs(first) + np.abs(second)), x.shape))
    return grads, scales


def with_tiny_rows(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Set about a fifth of the trailing-dim rows each to zero, to norm exactly eps and to norm eps / 4.

    A row ``[eps, 0, ...]`` has a norm of exactly ``eps``: ``sqrt(eps * eps)`` rounds back to ``eps``.
    """
    rows = x.reshape(-1, x.shape[-1])
    kind = rng.integers(0, 5, size=len(rows))
    rows[kind == 0] = 0.0
    rows[kind == 1] = np.eye(1, x.shape[-1]) * COSINE_EPS
    rows[kind == 2] *= COSINE_EPS / 4 / np.linalg.norm(rows[kind == 2], axis=-1, keepdims=True)
    return x


@st.composite
def cosine_case(draw):
    """Broadcast-compatible operands and an upstream gradient.

    Per leading axis both operands are full or one is 1 (a center against its members), and one
    operand may lack some leading axes altogether.
    """
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    modes = draw(st.lists(st.sampled_from(["both", "a1", "b1"]), min_size=len(lead), max_size=len(lead)))
    a_lead = tuple(1 if m == "a1" else n for n, m in zip(lead, modes))
    b_lead = tuple(1 if m == "b1" else n for n, m in zip(lead, modes))
    drop = draw(st.integers(0, len(lead) - 1))
    if draw(st.booleans()):
        a_lead = a_lead[drop:]
    else:
        b_lead = b_lead[drop:]
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (with_tiny_rows(rng, rng.normal(size=shape + (d,))) for shape in (a_lead, b_lead))
    return a, b, rng.normal(size=np.broadcast_shapes(a_lead, b_lead))


@SETTINGS
@hypothesis.given(cosine_case())
def test_cosine_backward_matches_edge_form_oracle(case):
    a, b, g = case
    leaves = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (cosine_similarity(*leaves) * Tensor(g)).sum().backward()
    expected, scales = edge_form_cosine_grads(a, b, g, COSINE_EPS)
    for leaf, oracle, scale in zip(leaves, expected, scales):
        # each entry within 1e-12 of the sum of the absolute terms behind it
        assert leaf.grad.shape == oracle.shape
        assert np.all(np.abs(leaf.grad - oracle) <= 1e-12 * scale)


@st.composite
def tied_points(draw):
    """Quantised points (many exact distance ties), some rows copied (duplicate points), and k, dilation, alpha."""
    b = draw(st.integers(1, 2))
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(-2, 3, size=(b, n, draw(st.integers(1, 3)))) * 0.5
    order = rng.permutation(n)
    points[:, order[1 : 1 + draw(st.integers(1, n - 1))]] = points[:, order[:1]]
    k = draw(st.integers(1, n))
    d = draw(st.integers(1, min(n, 3)))
    kd = draw(st.integers(1, n // d))
    weights = rng.integers(1, 4, size=(b, n, n)).astype(np.float64)  # few distinct values: tied products
    return points, k, d, kd, weights / weights.sum(axis=-1, keepdims=True)


@SETTINGS
@hypothesis.given(tied_points())
def test_selectors_match_oracles_under_ties_and_duplicates(case):
    points, k, d, kd, alpha = case
    dist = pairwise_sq_euclidean(points)
    np.testing.assert_array_equal(build_graph(points, k), knn_oracle(dist, k))
    np.testing.assert_array_equal(build_graph(points, k, alpha=alpha), weighted_oracle(alpha, dist, k))
    np.testing.assert_array_equal(build_graph(points, kd, dilation=d), dilated_oracle(dist, kd, d))


def structure_offsets(blob: bytes) -> list[int]:
    """Offsets of every checkpoint byte that is not float payload: magic through the record shapes."""
    pos = 16 + struct.unpack_from("<I", blob, 8)[0]
    offsets = list(range(pos))
    for _ in range(struct.unpack_from("<I", blob, pos - 4)[0]):
        name_len = struct.unpack_from("<I", blob, pos)[0]
        rank = struct.unpack_from("<I", blob, pos + 4 + name_len)[0]
        end = pos + 8 + name_len + 4 * rank
        offsets += range(pos, end)
        pos = end + 8 * math.prod(struct.unpack_from(f"<{rank}I", blob, end - 4 * rank))
    return offsets


def corruption(blob: bytes, hot: list[int]):
    """A truncation or a single-bit flip, half the time inside ``hot``."""
    at = st.one_of(st.sampled_from(hot), st.integers(0, len(blob) - 1))
    return st.tuples(st.sampled_from(["truncate", "flip"]), at, st.integers(0, 7))


def corrupt(blob: bytes, case) -> bytes:
    kind, at, bit = case
    if kind == "truncate":
        return blob[:at]
    out = bytearray(blob)
    out[at] ^= 1 << bit
    return bytes(out)


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "micro.fvig"
    FViGModel(micro_config(), rng=np.random.default_rng(0)).save(path)
    blob = path.read_bytes()
    return path.parent / "corrupt.fvig", blob, structure_offsets(blob)


@SETTINGS
@hypothesis.given(data=st.data())
def test_corrupt_checkpoint_raises_only_checkpoint_error(micro_checkpoint, data):
    path, blob, structure = micro_checkpoint
    path.write_bytes(corrupt(blob, data.draw(corruption(blob, structure))))
    for load in (load_checkpoint, FViGModel.load):
        try:
            load(path)
        except CheckpointError:
            pass


PPM = encode_ppm(np.random.default_rng(5).random((3, 5, 4)))


@SETTINGS
@hypothesis.given(corruption(PPM, list(range(PPM.index(b"255") + 4))))
def test_corrupt_ppm_raises_only_dataset_error(case):
    try:
        decode_ppm_bytes(corrupt(PPM, case))
    except DatasetError:
        pass
