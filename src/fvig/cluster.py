"""Node-level neighborhood clustering: aggregate, then dispatch.

The update follows Context Clusters (Ma et al., arXiv 2303.01494), with
one cluster per node over that node's neighborhood N(i). Per head, on
channel slices:

    center    c_i  = mean_{j in N(i)} x_j
    gate      g_ij = sigmoid(gate_scale * cos(c_i, x_j) + gate_shift)
    aggregate z_i  = (W_in c_i + sum_j g_ij W_in x_j) / (1 + sum_j g_ij)
    dispatch  x'_t = x_t + W_out mean_{(i, j): N(i)_j = t} (g_ij z_i)

A node selected by several neighborhoods receives the mean of their
contributions, which keeps the update magnitude independent of in-degree;
a node in no neighborhood is left unchanged.

Both projections run on node rows [B,N,.], never on edge rows [B,N,K,.]:
``W_in`` is applied to every node once and the gated sum then picks up the
projected rows, and the gated edge messages are scatter-added and averaged
before ``W_out`` is applied once per node. Both orders are exact, because
a gather or scatter-add only selects and sums rows, and a per-row scale
(the in-degree mean) commutes with a right multiplication; they save the
K-fold GEMM work of projecting every edge.

No ``[B,N,K,D]`` array outlives the op that makes it. The center sum, the
cosine and both gated sums are fused neighbor ops of ``fvig.tensor``: each
gathers its members as a temporary, and its backward gathers again, so the
autodiff graph holds node rows, the ``[B,N,K,M]`` gates and the index. The
values are bit-equal to gathering the members once and reducing them.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    gated_gather_sum,
    gated_scatter_sum,
    glorot,
    matmul,
    neighbor_cosine,
    reshape,
    sigmoid,
)

class ClusterParams:
    def __init__(self, dim: int, latent_dim: int, heads: int, rng: np.random.Generator):
        if heads < 1:
            raise ValueError(f"head count must be >= 1, got {heads}")
        if dim % heads or latent_dim % heads:
            raise ValueError(f"head count {heads} must divide dim {dim} and latent {latent_dim}")
        # unit gain / zero shift starts every gate near sigmoid(similarity)
        self.gate_scale = Tensor(np.ones(heads), requires_grad=True)   # (heads,) similarity gain inside the gate
        self.gate_shift = Tensor(np.zeros(heads), requires_grad=True)  # (heads,) gate offset
        self.weight_in = glorot(rng, dim, latent_dim)                  # (dim, latent) aggregation projection
        self.weight_out = glorot(rng, latent_dim, dim)                 # (latent, dim) dispatch projection
        self.heads = heads


def aggregate_multihead(
    features: Tensor, adjacency: np.ndarray, params: ClusterParams
) -> tuple[Tensor, Tensor]:
    """Cluster feature per node [B,N,latent] and the member gates [B,N,K,M].

    Similarity and gating run on channel slices of the raw features; the
    shared projection is applied to full node vectors (before the members
    are gathered) and its output is sliced per head, then the per-head
    combinations are concatenated.
    """
    b, n, k = adjacency.shape
    m = params.heads
    latent = params.weight_in.shape[1]
    ph = latent // m

    centers = gated_gather_sum(np.ones((b, n, k, 1)), features, adjacency) / k  # [B,N,D]: the member mean
    similarity = neighbor_cosine(centers, features, adjacency, m)              # [B,N,K,M]
    gates = sigmoid(similarity * params.gate_scale + params.gate_shift)         # [B,N,K,M]

    lam = gates.sum(axis=2) + 1.0                                               # [B,N,M]
    proj_centers = reshape(matmul(centers, params.weight_in), (b, n, m, ph))
    gated_sum = reshape(gated_gather_sum(gates, matmul(features, params.weight_in), adjacency), (b, n, m, ph))
    head_out = (proj_centers + gated_sum) / reshape(lam, (b, n, m, 1))
    return reshape(head_out, (b, n, latent)), gates


def dispatch(
    features: Tensor,
    adjacency: np.ndarray,
    clustered: Tensor,
    gates: Tensor,
    params: ClusterParams,
) -> Tensor:
    """Send each cluster's feature back to its members as a gated residual, mean over clusters.

    The gated messages are scatter-added and averaged per node first, then projected by ``W_out``.
    """
    b, n, k = adjacency.shape
    scattered = gated_scatter_sum(gates, clustered, adjacency)                  # [B,N,latent]
    targets = (np.arange(b)[:, None, None] * n + adjacency).ravel()
    in_degree = np.bincount(targets, minlength=b * n).reshape(b, n, 1)           # exact counts: no graph
    return features + matmul(scattered * Tensor(1.0 / np.maximum(in_degree, 1.0)), params.weight_out)


def cluster_block(features: Tensor, adjacency: np.ndarray, params: ClusterParams) -> Tensor:
    """Aggregate then dispatch: the full clustering update over one adjacency."""
    clustered, gates = aggregate_multihead(features, adjacency, params)
    return dispatch(features, adjacency, clustered, gates, params)
