"""Channel-attention scores that reweight distances during graph construction.

Node features are projected into a latent space, scored once as potential
centers and once as potential neighbors, and the two score vectors are
broadcast-added into an N x N matrix that a LeakyReLU + row softmax turns
into a row-stochastic attention matrix.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, broadcast_add, glorot, leaky_relu, matmul, softmax_lastdim, transpose_last2


class ChannelSaliencyParams:
    def __init__(self, dim: int, latent_dim: int, rng: np.random.Generator, leaky_slope: float):
        self.weight = glorot(rng, dim, latent_dim)        # (dim, latent) feature projection
        self.self_score = glorot(rng, latent_dim, 1)      # (latent, 1) score of a node as center
        self.neighbor_score = glorot(rng, latent_dim, 1)  # (latent, 1) score of a node as neighbor
        self.leaky_slope = leaky_slope


def channel_saliency_forward(features: Tensor, params: ChannelSaliencyParams) -> Tensor:
    """Attention matrix [B,N,N] from node features [B,N,D].

    With ``p = features @ weight``, ``out[i,j] = softmax_j(LeakyReLU(
    p_i . self_score + p_j . neighbor_score))``: each row is
    stochastic over all columns.
    """
    projected = matmul(features, params.weight)
    s_self = matmul(projected, params.self_score)                           # [B,N,1]
    s_neighbor = transpose_last2(matmul(projected, params.neighbor_score))  # [B,1,N]
    return softmax_lastdim(leaky_relu(broadcast_add(s_self, s_neighbor), params.leaky_slope))
