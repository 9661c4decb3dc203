"""Training loop: AdamW over shuffled mini-batches with a per-step cosine schedule."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetSplit
from .model import ConfigError, FViGModel
from .optim import AdamW, cosine_lr
from .tensor import Tensor, exp, log, reshape


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    lr: float = 3.125e-5  # 2e-3 / 64
    lr_min: float = 0.0
    epochs: int = 100
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"batch_size {self.batch_size} and epochs {self.epochs} must be >= 1")
        if not all(0 <= rate < np.inf for rate in (self.lr, self.lr_min, self.weight_decay)):  # NaN fails too
            raise ConfigError(
                f"lr={self.lr}, lr_min={self.lr_min}, weight_decay={self.weight_decay} must be finite and >= 0"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    lr: float


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes, via log-sum-exp."""
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch size {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c}): min={labels.min()}, max={labels.max()}")
    peak = logits.max(axis=-1, keepdims=True)
    lse = log(exp(logits - peak).sum(axis=-1)) + reshape(peak, (b,))
    one_hot = np.zeros((b, c))
    one_hot[np.arange(b), labels] = 1.0
    picked = (logits * Tensor(one_hot)).sum(axis=-1)
    return (lse - picked).mean()


def eval_accuracy(model: FViGModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Deterministic eval-mode accuracy over a stack of images: the argmax of each image's logits."""
    predictions = model.eval_logits(images).argmax(axis=1)
    return int((predictions == labels).sum()) / len(images)


def write_log_csv(path, logs: list[EpochLog]) -> None:
    lines = ["epoch,loss,acc,lr"]
    lines += [f"{row.epoch},{row.loss!r},{row.accuracy!r},{row.lr!r}" for row in logs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def train(
    model: FViGModel,
    split: DatasetSplit,
    config: TrainConfig,
    log_path=None,
    checkpoint_path=None,
) -> list[EpochLog]:
    """Run the full recipe; returns per-epoch (loss, eval-mode accuracy, lr).

    All randomness (shuffling, dropout) derives from ``config.seed``, so
    identical runs are bit-reproducible.
    """
    if len(split) == 0:
        raise ValueError("cannot train on an empty split")
    images, labels = split.stack()
    n = len(images)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2))
    optimizer = AdamW(model.named_parameters(), lr=config.lr, weight_decay=config.weight_decay)
    batches_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * batches_per_epoch

    logs: list[EpochLog] = []
    step = 0
    for epoch in range(config.epochs):
        lr_epoch = cosine_lr(step, total_steps, config.lr, config.lr_min)
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            picked = order[start : start + config.batch_size]
            logits = model.forward(images[picked], training=True, rng=dropout_rng)
            loss = cross_entropy(logits, labels[picked])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step(lr=cosine_lr(step, total_steps, config.lr, config.lr_min))
            step += 1
            batch_losses.append(loss.item())
        accuracy = eval_accuracy(model, images, labels)
        logs.append(EpochLog(epoch=epoch, loss=float(np.mean(batch_losses)), accuracy=accuracy, lr=lr_epoch))
    if log_path is not None:
        write_log_csv(log_path, logs)
    if checkpoint_path is not None:
        model.save(checkpoint_path)
    return logs
