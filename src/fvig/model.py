"""The full patch-graph classifier.

Images are split into non-overlapping patches and embedded as graph nodes.
A stack of blocks follows, each block building its own neighborhood graph
from its input features (optionally attention-weighted and dilated),
optionally running the clustering update, then applying a max-relative
graph convolution with a residual; every graph block is followed by a
feed-forward block. A mean-pool over nodes and a linear head produce the
class logits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cluster import ClusterParams, cluster_block
from .graph import build_graph, dilation_rates
from .saliency import ChannelSaliencyParams, channel_saliency_forward
from .tensor import (
    Tensor,
    concat_lastdim,
    dropout,
    gather_max,
    glorot,
    leaky_relu,
    matmul,
    no_grad,
)


class ConfigError(ValueError):
    """Invalid or inconsistent model configuration."""


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    patch_size: int = 8
    dim: int = 32
    latent_dim: int = 0          # 0 means "same as dim"
    depth: int = 2
    k: int = 4
    heads: int = 4
    dilation_schedule: str = "step4"
    leaky_slope: float = 0.2
    dropout: float = 0.1
    num_classes: int = 9
    use_channel_saliency: bool = True
    use_spatial_saliency: bool = True
    use_dilation: bool = True
    use_positional_embedding: bool = True

    @property
    def resolved_latent(self) -> int:
        return self.latent_dim if self.latent_dim else self.dim

    @property
    def num_nodes(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    def rates(self) -> list[int]:
        if not self.use_dilation:
            return [1] * self.depth
        return dilation_rates(self.depth, self.dilation_schedule)

    def __post_init__(self) -> None:
        if self.image_size < 1 or self.patch_size < 1 or self.image_size % self.patch_size:
            raise ConfigError(f"image_size {self.image_size} must be a positive multiple of patch_size {self.patch_size}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.dim < 1 or self.resolved_latent < 1:
            raise ConfigError(f"dim {self.dim} and latent_dim {self.resolved_latent} must be >= 1")
        if self.heads < 1 or self.dim % self.heads or self.resolved_latent % self.heads:
            raise ConfigError(f"heads {self.heads} must divide dim {self.dim} and latent_dim {self.resolved_latent}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        n = self.num_nodes
        try:
            rates = self.rates()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.k < 1 or self.k * max(rates) > n:
            raise ConfigError(f"k * max dilation = {self.k}*{max(rates)} exceeds node count {n}")

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        return cls(**parse_config_text(text, CONFIG_TYPES))


CONFIG_TYPES = {f.name: f.type for f in fields(ModelConfig)}  # field name -> annotation


def config_text(config) -> str:
    """A dataclass config as ``key=value`` lines in field order, booleans as true/false."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, types: dict) -> dict[str, object]:
    """Typed values of ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (expected key=value): '{line}'")
        key, _, val = line.partition("=")
        key = key.strip()
        values[key] = parse_config_value(key, val.strip(), types)
    return values


def parse_config_value(key: str, val: str, types: dict) -> object:
    """``val`` converted to the type that ``types`` (field name -> annotation) gives ``key``."""
    if key not in types:
        raise ConfigError(f"unknown config key '{key}'")
    typ = types[key]
    name = typ if isinstance(typ, str) else getattr(typ, "__name__", str(typ))
    if name == "bool":
        low = val.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean for '{key}': '{val}'")
    if name == "int":
        try:
            return int(val)
        except ValueError:
            raise ConfigError(f"bad integer for '{key}': '{val}'") from None
    if name == "float":
        try:
            return float(val)
        except ValueError:
            raise ConfigError(f"bad float for '{key}': '{val}'") from None
    return val


def named_parameters(module, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every trainable tensor reachable through ``module``'s attributes, in assignment order.

    Names are attribute paths such as ``blocks.0.grapher.norm.gain``; list
    items are named by their index. A parameter is declared only by a
    constructor assigning it, so whatever a constructor makes is trained
    and checkpointed.
    """
    items = enumerate(module) if isinstance(module, list) else vars(module).items()
    for key, value in items:
        if isinstance(value, Tensor):
            if value.requires_grad:
                yield f"{prefix}{key}", value
        elif isinstance(value, list) or hasattr(value, "__dict__"):
            yield from named_parameters(value, f"{prefix}{key}.")


def _zeros(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


class Linear:
    """``x @ weight + bias`` with a Glorot weight and a zero bias."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int):
        self.weight = glorot(rng, fan_in, fan_out)
        self.bias = _zeros(fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


class NodeNorm:
    """Per-node feature standardization with a learned gain and bias.

    Statistics are taken over the channel dimension of each node, so the
    result is independent of batch composition.
    """

    EPS = 1e-6

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = _zeros(dim)

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered * ((var + self.EPS) ** -0.5) * self.gain + self.bias


def max_relative_aggregate(x: Tensor, adjacency: np.ndarray) -> Tensor:
    """``[x_i, max_j (x_j - x_i)]``: each node's feature and the max of (neighbor - node).

    The max over the neighbors comes before ``x_i`` is subtracted, which is exact: rounded
    subtraction of a fixed ``c`` is monotone, so ``max_k fl(a_k - c) == fl(max_k a_k - c)``.
    ``gather_max`` takes it without holding the gathered neighbors, and the gradient goes to
    the first argmax of the neighbors, a valid subgradient.
    """
    return concat_lastdim([x, gather_max(x, adjacency) - x])


class GrapherBlock:
    """Graph construction + optional clustering + max-relative convolution, residual."""

    def __init__(self, config: ModelConfig, dilation: int, rng: np.random.Generator):
        d = config.dim
        self.config = config
        self.dilation = dilation
        self.norm = NodeNorm(d)
        self.saliency = (
            ChannelSaliencyParams(d, config.resolved_latent, rng, config.leaky_slope)
            if config.use_channel_saliency
            else None
        )
        self.cluster = (
            ClusterParams(d, config.resolved_latent, config.heads, rng) if config.use_spatial_saliency else None
        )
        self.agg = Linear(rng, 2 * d, d)
        self.update = Linear(rng, d, d)

    def forward(
        self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, np.ndarray]:
        cfg = self.config
        normed = self.norm(x)
        alpha = None
        if self.saliency is not None:
            # alpha feeds only the hard neighbour selection; ROADMAP item 5 may give it its graph back in training
            with no_grad():
                alpha = channel_saliency_forward(normed, self.saliency).data
        adjacency = build_graph(normed.data, cfg.k, alpha=alpha, dilation=self.dilation)
        h = cluster_block(normed, adjacency, self.cluster) if self.cluster is not None else normed
        agg = max_relative_aggregate(h, adjacency)
        y = self.update(leaky_relu(self.agg(agg), cfg.leaky_slope))
        y = dropout(y, cfg.dropout, training, rng)
        return x + y, adjacency


class FfnBlock:
    """Two-layer feed-forward expansion (dim -> 4*dim -> dim) with residual."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        d = config.dim
        self.config = config
        self.norm = NodeNorm(d)
        self.w1 = glorot(rng, d, 4 * d)
        self.b1 = _zeros(4 * d)
        self.w2 = glorot(rng, 4 * d, d)
        self.b2 = _zeros(d)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        normed = self.norm(x)
        y = leaky_relu(matmul(normed, self.w1) + self.b1, self.config.leaky_slope)
        y = matmul(y, self.w2) + self.b2
        y = dropout(y, self.config.dropout, training, rng)
        return x + y


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Flatten non-overlapping patches, raster order, channel-major within a patch."""
    b, c, h, w = images.shape
    gh, gw = h // patch_size, w // patch_size
    x = images.reshape(b, c, gh, patch_size, gw, patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return x.reshape(b, gh * gw, c * patch_size * patch_size)


class FViGModel:
    """Patch embedding, stacked (grapher + ffn) blocks, mean-pool classifier."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        d = config.dim
        self.embed = Linear(rng, 3 * config.patch_size**2, d)
        self.positional = (
            Tensor(rng.normal(0.0, 0.02, size=(config.num_nodes, d)), requires_grad=True)
            if config.use_positional_embedding
            else None
        )
        rates = config.rates()
        self.blocks = [
            SimpleNamespace(grapher=GrapherBlock(config, rates[i], rng), ffn=FfnBlock(config, rng))
            for i in range(config.depth)
        ]
        self.head = Linear(rng, d, config.num_classes)

    def forward(
        self,
        images: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        adjacency_out: list | None = None,
    ) -> Tensor:
        cfg = self.config
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1] != 3 or images.shape[2:] != (cfg.image_size, cfg.image_size):
            raise ConfigError(
                f"expected images[B,3,{cfg.image_size},{cfg.image_size}], got shape {images.shape}"
            )
        x = self.embed(Tensor(patchify(images, cfg.patch_size)))
        if self.positional is not None:
            x = x + self.positional
        for i, block in enumerate(self.blocks):
            try:
                x, adjacency = block.grapher.forward(x, training, rng)
            except ValueError as err:  # e.g. build_graph on non-finite features: name the block
                raise type(err)(f"block {i}: {err}") from err
            if adjacency_out is not None:
                adjacency_out.append(adjacency)
            x = block.ffn.forward(x, training, rng)
        return self.head(x.mean(axis=1))

    def eval_logits(self, images: np.ndarray, batch_size: int = 64) -> list[np.ndarray]:
        """Eval-mode logits of each run of ``batch_size`` images, in order; no graph is recorded."""
        with no_grad():
            starts = range(0, len(images), batch_size)
            return [self.forward(images[i : i + batch_size], training=False).data for i in starts]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(named_parameters(self))

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, t.data.copy()) for name, t in self.named_parameters())

    def load_state_dict(self, arrays: dict) -> None:
        params = OrderedDict(self.named_parameters())
        if set(arrays) != set(params):
            missing = sorted(set(params) - set(arrays))
            extra = sorted(set(arrays) - set(params))
            raise CheckpointError(f"parameter names do not match: missing={missing}, unexpected={extra}")
        for name, t in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise CheckpointError(f"shape of '{name}' is {arr.shape}, expected {t.data.shape}")
            t.data = arr.copy()

    def save(self, path) -> None:
        save_checkpoint(path, self.state_dict(), header=config_text(self.config))

    @classmethod
    def load(cls, path) -> "FViGModel":
        header, arrays = load_checkpoint(path)
        try:
            config = ModelConfig.from_text(header)
        except ConfigError as err:
            raise CheckpointError(f"bad config header in '{path}': {err}") from None
        model = cls(config, rng=np.random.default_rng(0))
        model.load_state_dict(arrays)
        return model


def count_params(config: ModelConfig) -> "OrderedDict[str, int]":
    """Analytic parameter census by sub-module; 'total' equals the checkpoint float count."""
    d = config.dim
    latent = config.resolved_latent
    depth = config.depth
    patch_dim = 3 * config.patch_size**2
    census: "OrderedDict[str, int]" = OrderedDict()
    census["patch_embed"] = patch_dim * d + d
    census["positional_embedding"] = config.num_nodes * d if config.use_positional_embedding else 0
    census["grapher_norm"] = depth * 2 * d
    census["channel_saliency"] = depth * (d * latent + 2 * latent) if config.use_channel_saliency else 0
    census["spatial_cluster"] = depth * (2 * config.heads + 2 * d * latent) if config.use_spatial_saliency else 0
    census["graph_conv"] = depth * (2 * d * d + d + d * d + d)
    census["ffn"] = depth * (2 * d + d * 4 * d + 4 * d + 4 * d * d + d)
    census["head"] = d * config.num_classes + config.num_classes
    census["total"] = sum(census.values())
    return census
