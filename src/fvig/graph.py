"""Neighborhood construction over node features.

Adjacency is a per-node index list chosen by one selector: top-k by
squared Euclidean distance, optionally weighted by an attention matrix,
and optionally dilated, striding over a widened candidate list (ViG's
dynamic KNN graph, arXiv 2206.00272). Selection is a hard decision;
gradients never flow through the chosen indices, only through values
gathered with them.

Every row starts with the node's own index, and ranking ties break toward
the smaller index (stable sort), so construction is fully deterministic.
"""

from __future__ import annotations

import numpy as np

ROW_SUM_TOL = 1e-6


def pairwise_sq_euclidean(features: np.ndarray) -> np.ndarray:
    """Per-batch matrix of squared Euclidean distances between node features.

    Gram form ``|v_i|^2 + |v_j|^2 - 2 v_i.v_j`` on features centred per sample,
    made exactly symmetric, with an exactly zero diagonal, and clamped at 0.
    """
    v = np.asarray(features, dtype=np.float64)
    if v.ndim != 3:
        raise ValueError(f"expected features[B,N,D], got shape {v.shape}")
    v = v - v.mean(axis=1, keepdims=True)  # else a common offset cancels catastrophically
    d = np.matmul(v, v.transpose(0, 2, 1))
    di = np.arange(v.shape[1])
    sq = d[:, di, di]  # the Gram diagonal, so duplicate points cancel exactly
    d *= -2.0
    d += sq[:, :, None] + sq[:, None, :]
    d += d.transpose(0, 2, 1)  # numpy buffers the overlapping operand
    d *= 0.5
    d[:, di, di] = 0.0
    return np.maximum(d, 0.0, out=d)


def select_neighbors(weights: np.ndarray, k: int, dilation: int = 1) -> np.ndarray:
    """Indices [B,N,k] of each node's neighbors under ``weights[B,N,N]`` (smaller is nearer).

    Ranks the ``k * dilation`` nearest candidates per row, self first and
    the others by ascending (weight, index), then keeps every
    ``dilation``-th of them, so self survives at position 0.
    """
    w = np.array(weights, dtype=np.float64)
    b, n, _ = w.shape
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if k < 1 or k * dilation > n:
        raise ValueError(f"k*dilation = {k}*{dilation} exceeds node count {n}")
    di = np.arange(n)
    w[:, di, di] = np.inf  # self is prepended explicitly, keep it out of the sort
    order = np.argsort(w, axis=-1, kind="stable")[:, :, : k * dilation - 1]
    self_col = np.broadcast_to(di[None, :, None], (b, n, 1))
    return np.concatenate([self_col, order], axis=-1).astype(np.int64)[:, :, ::dilation]


def build_graph(
    features: np.ndarray,
    k: int,
    alpha: np.ndarray | None = None,
    dilation: int = 1,
) -> np.ndarray:
    """Neighbor indices of every node: ``select_neighbors`` over the distance matrix.

    A given ``alpha`` must be row-stochastic: finite, non-negative, and
    with rows summing to 1. The ranking is then over ``alpha * dist``. A
    row-constant ``alpha`` reproduces plain top-k, since positive scaling
    preserves the ordering. Non-finite features raise.
    """
    if bad := np.size(features) - np.count_nonzero(np.isfinite(features)):
        raise ValueError(f"features hold {bad} non-finite values (NaN or Inf)")
    dist = pairwise_sq_euclidean(features)
    if alpha is None:
        return select_neighbors(dist, k, dilation)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != dist.shape:
        raise ValueError(f"alpha shape {alpha.shape} does not match distance shape {dist.shape}")
    if bad := alpha.size - np.count_nonzero(np.isfinite(alpha) & (alpha >= 0.0)):
        raise ValueError(f"attention holds {bad} non-finite or negative entries")
    row_sums = alpha.sum(axis=-1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.abs(row_sums - 1.0).max())
        raise ValueError(f"attention rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3e}")
    return select_neighbors(alpha * dist, k, dilation)


def dilation_rates(depth: int, schedule: str) -> list[int]:
    """Per-layer dilation rates.

    ``step4``   — starts at 1, +1 every 4 layers, capped at 4.
    ``range25`` — starts at 2, +1 every 4 layers, capped at 5.
    Anything else is parsed as an explicit comma-separated list whose
    length must equal ``depth``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if schedule == "step4":
        return [min(4, 1 + i // 4) for i in range(depth)]
    if schedule == "range25":
        return [min(5, 2 + i // 4) for i in range(depth)]
    try:
        rates = [int(part) for part in schedule.split(",")]
    except ValueError:
        raise ValueError(f"unknown dilation schedule '{schedule}'") from None
    if len(rates) != depth:
        raise ValueError(f"dilation list has {len(rates)} entries but depth is {depth}")
    if any(r < 1 for r in rates):
        raise ValueError(f"dilation rates must be >= 1, got {rates}")
    return rates
