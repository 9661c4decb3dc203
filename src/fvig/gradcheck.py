"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .tensor import Tensor

H = 1e-6  # the central-difference step
TOL = 1e-4  # the largest max_rel_error that passes


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic and numeric gradients.

    ``max_rel_error`` uses |analytic - numeric| / max(|analytic|, |numeric|, 1),
    i.e. relative error for O(1)-or-larger gradients and absolute error below
    that scale, which keeps finite-difference noise on zero gradients from
    registering as failure. A NaN or Inf on either side counts as an infinite
    error, so a non-finite gradient always fails.

    ``worst_at`` names the worst entry as ``name[offset]`` within its own
    tensor.
    """

    max_rel_error: float
    analytic_at_worst: float
    numeric_at_worst: float
    tol: float
    num_checked: int
    worst_at: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def model_grad_check(
    params: Iterable[tuple[str, Tensor]],
    loss_fn: Callable[[], Tensor],
    num_params: int = 20,
    h: float = H,
    tol: float = TOL,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Spot-check randomly selected parameter entries against central differences.

    ``params`` are ``(name, Tensor)`` pairs, such as ``model.named_parameters()``
    or ``named_parameters(block)``; their gradients are reset before the check.
    ``num_params`` entries are drawn without replacement from all of them
    (every entry when it is at least their total size) and probed in flat
    order; ``worst_at`` names the worst of them. ``loss_fn`` must recompute
    the scalar loss from the parameters' current values each time it is
    called. Each probed entry is set in place to ``keep + h``, then
    ``keep - h``, and then restored to ``keep`` exactly, so every parameter
    ends bit-equal to its value on entry.
    """
    if h <= 0:
        raise ValueError(f"step size h must be positive, got {h}")
    rng = rng if rng is not None else np.random.default_rng(0)
    params = list(params)
    bounds = np.cumsum([t.size for _, t in params])
    total = sum(t.size for _, t in params)
    picks = rng.choice(total, size=min(num_params, total), replace=False)
    for _, t in params:
        t.grad = None
    loss_fn().backward()

    worst = (-1.0, 0.0, 0.0, "")
    for flat in sorted(int(p) for p in picks):
        slot = int(np.searchsorted(bounds, flat, side="right"))
        offset = flat - (0 if slot == 0 else int(bounds[slot - 1]))
        name, tensor = params[slot]
        analytic = 0.0 if tensor.grad is None else float(tensor.grad.flat[offset])
        keep = tensor.data.flat[offset]
        tensor.data.flat[offset] = keep + h
        fp = float(loss_fn().data)
        tensor.data.flat[offset] = keep - h
        fm = float(loss_fn().data)
        tensor.data.flat[offset] = keep
        numeric = (fp - fm) / (2 * h)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        err = err if math.isfinite(err) else math.inf  # a NaN or Inf on either side
        if err > worst[0]:
            worst = (err, analytic, numeric, f"{name}[{offset}]")
    return GradCheckReport(
        max_rel_error=worst[0],
        analytic_at_worst=worst[1],
        numeric_at_worst=worst[2],
        tol=tol,
        num_checked=len(picks),
        worst_at=worst[3],
    )

