"""The benchmark's workloads.

Each workload is a set-up and a fixed task. The set-up makes the task's
inputs from the seed alone; the task is what a user would run, and checks
its own outputs. A run repeats set-up + task, one client at a time, while
its time budget allows (closed loop, always at least one task).

- ``micro-recipe``: the 200-epoch learning-sanity recipe on the micro
  config (tiny arrays: per-op Python, autodiff bookkeeping, AdamW and the
  per-epoch eval dominate).
- ``vigti-train``: a cold training step and two more on the ViG-Ti-like
  config at batch 4 (big-array kernels dominate: distance, top-k, the
  cluster projection backward, ``np.add.at``).
- ``mid-eval``: ``fvig eval`` in-process on a mid-config checkpoint and a
  PPM class tree at 80 px, so decoding and resizing run (forward only;
  the data, checkpoint and metrics modules do real work).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import Patches

# looked up as modules: the package attribute ``fvig.train`` is the train
# function, which shadows the module of the same name
fcli, fdata, fmetrics, fmodel, foptim, ftrain = (
    importlib.import_module(f"fvig.{name}") for name in ("cli", "data", "metrics", "model", "optim", "train")
)

# the learning-sanity recipe's micro config, fixed here so the workload
# does not move when the test helpers do
MICRO = fmodel.ModelConfig(
    image_size=32, patch_size=8, dim=32, depth=2, k=4, heads=4, dilation_schedule="1,2", num_classes=3
)

VIGTI = fmodel.ModelConfig(
    image_size=224, patch_size=16, dim=192, depth=12, k=9, heads=4, dilation_schedule="step4", num_classes=3
)
VIGTI_BATCH = 4
VIGTI_STEPS = 2  # timed steps after the cold one
VIGTI_PER_CLASS = 4  # 12 images: a distinct batch for each of the 3 steps

MID = fmodel.ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4)
MID_PPM_SIZE = 80  # not the model's 64 px, so bilinear_resize does work
MID_PER_CLASS = 32  # 4 classes x 32 = two full eval batches of 64

RECIPE = dict(batch_size=16, lr=3e-3, epochs=200)
RECIPE_PER_CLASS = 20


@dataclass
class TaskResult:
    steps_s: list[float]  # the task's step samples (training steps or eval batches)
    images: int  # images through those steps
    digest: str  # sha256 of the task's output, equal for equal code and seed
    checks: dict[str, bool]
    extra: dict[str, float] = field(default_factory=dict)


class StepClock:
    """Times steps at the model's public boundaries.

    A training step runs from a training-mode ``FViGModel.forward`` call to
    the end of the next ``AdamW.step``; an eval batch is one eval-mode
    forward. Two clock reads per step, so it stays on in untraced runs.

    ``between``, when set, runs before each training step opens; it returns
    the seconds it took, which add up in ``between_s``.
    """

    def __init__(self):
        self.between: Callable[[], float] | None = None
        self.reset()

    def reset(self) -> None:
        self.between_s = 0.0
        self.train_s: list[float] = []
        self.train_images: list[int] = []
        self.eval_s: list[float] = []
        self.eval_images: list[int] = []
        self._open: tuple[float, int] | None = None

    def install(self, patches: Patches) -> None:
        forward = fmodel.FViGModel.forward
        step = foptim.AdamW.step

        def timed_forward(model, images, *args, **kwargs):
            training = kwargs.get("training", args[0] if args else False)
            if training and self.between is not None:
                self.between_s += self.between()
            start = time.perf_counter()
            out = forward(model, images, *args, **kwargs)
            if training:
                self._open = (start, len(images))
            else:
                self.eval_s.append(time.perf_counter() - start)
                self.eval_images.append(len(images))
            return out

        def timed_step(optimizer, *args, **kwargs):
            out = step(optimizer, *args, **kwargs)
            if self._open is not None:
                start, batch = self._open
                self.train_s.append(time.perf_counter() - start)
                self.train_images.append(batch)
                self._open = None
            return out

        patches.set(fmodel.FViGModel, "forward", timed_forward)
        patches.set(foptim.AdamW, "step", timed_step)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def diff_tensor_bytes(batch: int, config: fmodel.ModelConfig) -> int:
    """Bytes of the explicit-difference tensor [B,N,N,D] behind the distance matrix."""
    return batch * config.num_nodes**2 * config.dim * 8


# ----------------------------------------------------------------------
# micro-recipe
# ----------------------------------------------------------------------


def micro_setup(seed: int, workdir: Path) -> dict:
    split = fdata.synth_dataset(seed=seed, num_classes=MICRO.num_classes, per_class=RECIPE_PER_CLASS, size=32)
    model = fmodel.FViGModel(MICRO, rng=np.random.default_rng(seed))
    return {"seed": seed, "split": split, "model": model, "log": workdir / "train_log.csv"}


def micro_task(state: dict, clock: StepClock) -> TaskResult:
    config = ftrain.TrainConfig(seed=state["seed"], **RECIPE)
    logs = ftrain.train(state["model"], state["split"], config, log_path=state["log"])
    return TaskResult(
        steps_s=clock.train_s,
        images=sum(clock.train_images),
        digest=_sha256(state["log"].read_bytes()),
        checks={
            "best train accuracy >= 0.95": max(row.accuracy for row in logs) >= 0.95,
            "every epoch loss finite": all(np.isfinite(row.loss) for row in logs),
        },
        extra={"eval_images_per_s": sum(clock.eval_images) / sum(clock.eval_s)},
    )


# ----------------------------------------------------------------------
# vigti-train
# ----------------------------------------------------------------------


def vigti_setup(seed: int, workdir: Path) -> dict:
    split = fdata.synth_dataset(seed=seed, num_classes=VIGTI.num_classes, per_class=VIGTI_PER_CLASS, size=VIGTI.image_size)
    images, labels = split.stack()
    order = np.random.default_rng(seed).permutation(len(images))
    model = fmodel.FViGModel(VIGTI, rng=np.random.default_rng(seed))
    optimizer = foptim.AdamW(model.named_parameters(), lr=ftrain.TrainConfig().lr)
    return {"seed": seed, "images": images[order], "labels": labels[order], "model": model, "optimizer": optimizer}


def vigti_task(state: dict, clock: StepClock) -> TaskResult:
    model, optimizer = state["model"], state["optimizer"]
    dropout_rng = np.random.default_rng(state["seed"])
    losses, grads_finite = [], True
    for step in range(1 + VIGTI_STEPS):
        pick = slice(step * VIGTI_BATCH, (step + 1) * VIGTI_BATCH)
        logits = model.forward(state["images"][pick], training=True, rng=dropout_rng)
        loss = ftrain.cross_entropy(logits, state["labels"][pick])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
        grads_finite &= all(np.isfinite(t.grad).all() for _, t in model.named_parameters() if t.grad is not None)
        del logits, loss  # free this step's graph before the next forward
    return TaskResult(
        steps_s=clock.train_s[1:],
        images=sum(clock.train_images[1:]),
        digest=_sha256(repr(losses).encode()),
        checks={"every loss finite": bool(np.isfinite(losses).all()), "every gradient finite": grads_finite},
        extra={"cold_step_s": clock.train_s[0]},
    )


# ----------------------------------------------------------------------
# mid-eval
# ----------------------------------------------------------------------


def mid_setup(seed: int, workdir: Path) -> dict:
    data = workdir / "data"
    if data.exists():
        shutil.rmtree(data)
    split = fdata.synth_dataset(seed=seed, num_classes=MID.num_classes, per_class=MID_PER_CLASS, size=MID_PPM_SIZE)
    for i, (image, label, _) in enumerate(split.items):
        folder = data / split.class_names[label]
        folder.mkdir(parents=True, exist_ok=True)
        fdata.write_ppm(folder / f"{i:04d}.ppm", image)
    checkpoint = workdir / "mid.fvig"
    fmodel.FViGModel(MID, rng=np.random.default_rng(seed)).save(checkpoint)
    return {"checkpoint": checkpoint, "data": data, "out": workdir / "eval", "count": len(split)}


def mid_task(state: dict, clock: StepClock) -> TaskResult:
    captured: list[np.ndarray] = []
    predict = fmetrics.predict_probabilities

    def capture(*args, **kwargs):
        captured.append(predict(*args, **kwargs))
        return captured[-1]

    patches = Patches()
    patches.replace_function(predict, capture)
    stderr = io.StringIO()
    argv = ["eval", "--checkpoint", str(state["checkpoint"]), "--data", str(state["data"]), "--out", str(state["out"])]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = fcli.main(argv)
    finally:
        patches.undo()
    if code != 0:
        raise RuntimeError(f"fvig eval exited with {code}: {stderr.getvalue().strip()}")
    probabilities = captured[0]
    report = json.loads((state["out"] / "metrics.json").read_text(encoding="utf-8"))
    cm = np.array(report["confusion"])
    return TaskResult(
        steps_s=clock.eval_s,
        images=sum(clock.eval_images),
        digest=_sha256(probabilities.tobytes()),
        checks={
            "probabilities finite": bool(np.isfinite(probabilities).all()),
            "rows sum to 1 within 1e-12": bool(np.abs(probabilities.sum(axis=1) - 1.0).max() <= 1e-12),
            "accuracy == trace(cm)/cm.sum()": report["accuracy"] == float(np.trace(cm) / cm.sum()),
            "every image evaluated": int(cm.sum()) == state["count"] == len(probabilities),
        },
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], dict]
    task: Callable[[dict, StepClock], TaskResult]
    largest_array_bytes: int  # explicit-difference distance tensor at the largest batch


WORKLOADS = {
    # the per-epoch eval runs all 60 images in one batch
    "micro-recipe": Workload(micro_setup, micro_task, diff_tensor_bytes(60, MICRO)),
    "vigti-train": Workload(vigti_setup, vigti_task, diff_tensor_bytes(VIGTI_BATCH, VIGTI)),
    "mid-eval": Workload(mid_setup, mid_task, diff_tensor_bytes(64, MID)),
}
