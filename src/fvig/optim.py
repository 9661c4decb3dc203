"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tensor import ShapeError, Tensor


class AdamW:
    """Adam with decoupled weight decay.

    Per step: ``w <- w - lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * w)``
    with bias-corrected first and second moments, decayed by ``BETAS``. A
    parameter without a gradient is treated as having gradient zero, so with
    weight decay alone it shrinks by ``lr * weight_decay * w``.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: Iterable[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0):
        self.params: list[tuple[str, Tensor]] = [(n, t) for n, t in params]
        if not all(0 <= rate < np.inf for rate in (lr, weight_decay)):  # NaN fails too
            raise ValueError(f"bad optimizer hyperparameters: lr={lr}, wd={weight_decay}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(t.data) for _, t in self.params]
        self._v = [np.zeros_like(t.data) for _, t in self.params]

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        b1, b2 = self.BETAS
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for (name, t), m, v in zip(self.params, self._m, self._v):
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            elif g.shape != t.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter '{name}' shape {t.data.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.EPS)
            t.data -= lr * (update + self.weight_decay * t.data)


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Cosine decay from ``lr_max`` at step 0 to ``lr_min`` at ``total_steps``."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} out of range [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))
