"""Command-line interface: train, eval, gradcheck, export-graph, params.

Configuration is a flat key=value namespace (model plus training keys): an
optional ``--config`` file, then repeatable ``--set key=value`` flags (last
wins; each one line), both read by ``fvig.model.parse_config_text``, which
reads checkpoint headers too; ``--seed`` and ``--epochs`` override them.
``train`` writes the resolved configuration as ``config.txt``, and ``--config
config.txt`` with the same dataset flags replays the run byte for byte.
Each subcommand takes only the shared flags it reads: only ``train`` and
``params`` read keys (``eval`` and ``export-graph`` take their model from the
checkpoint), ``gradcheck`` and ``params`` write no files, and only ``train``,
``eval`` and ``gradcheck`` draw from a seed. The synthetic-data flags
``--classes`` and ``--per-class``, and ``eval``'s ``--seed``, are read only
with ``--synth``, so each of them without it fails.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error or malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .checksuite import run_suite
from .data import DatasetError, DatasetSplit, bilinear_resize, load_dataset, read_ppm, synth_dataset, write_ppm
from .gradcheck import TOL
from .metrics import evaluate
from .model import ConfigError, FViGModel, ModelConfig, config_text, count_params, parse_config_text
from .tensor import no_grad
from .train import TrainConfig, train

RED = (1.0, 0.15, 0.15)
BLUE = (0.15, 0.3, 1.0)


def resolve_config(args) -> tuple[ModelConfig, TrainConfig, set[str]]:
    """Defaults, then the config file, each --set override (last wins), --seed and --epochs; unknown keys fail."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file '{path}' does not exist")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config file '{path}' cannot be read: {err}") from None
        values.update(parse_config_text(text, ModelConfig, TrainConfig))
    for override in getattr(args, "set", []):
        value = parse_config_text(override, ModelConfig, TrainConfig)
        if len(value) != 1 or len(override.splitlines()) != 1:
            raise ConfigError(f"bad --set (expected one key=value): '{override}'")
        values.update(value)
    for flag in ("seed", "epochs"):
        if getattr(args, flag, None) is not None:
            values[flag] = getattr(args, flag)
    model_cfg, train_cfg = (
        cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}) for cls in (ModelConfig, TrainConfig)
    )
    return model_cfg, train_cfg, set(values)


def _load_split(args, image_size: int, seed: int, synth_only: tuple[str, ...] = ()) -> DatasetSplit:
    """The --synth dataset, or the --data tree; a flag read only with --synth fails without it.

    ``synth_only`` names the command's own such flags besides ``--classes`` and ``--per-class``.
    """
    if args.synth:
        classes = 3 if args.classes is None else args.classes
        per_class = 20 if args.per_class is None else args.per_class
        return synth_dataset(seed=seed, num_classes=classes, per_class=per_class, size=image_size)
    for flag in ("--classes", "--per-class", *synth_only):
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ConfigError(f"{flag} is read only with --synth")
    return load_dataset(args.data, image_size)


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path("runs") / command
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise ConfigError(f"output path '{out}' exists and is not a directory") from None
    return out


def cmd_train(args) -> int:
    model_cfg, train_cfg, explicit = resolve_config(args)
    split = _load_split(args, model_cfg.image_size, train_cfg.seed)
    num_classes = len(split.class_names)
    if "num_classes" in explicit and model_cfg.num_classes != num_classes:
        raise ConfigError(
            f"config asks for {model_cfg.num_classes} classes but the dataset has {num_classes}"
        )
    model_cfg = replace(model_cfg, num_classes=num_classes)

    out = _out_dir(args, "train")
    (out / "config.txt").write_text(config_text(model_cfg) + config_text(train_cfg), encoding="utf-8")
    model = FViGModel(model_cfg, rng=np.random.default_rng(train_cfg.seed))
    logs = train(
        model,
        split,
        train_cfg,
        log_path=out / "train_log.csv",
        checkpoint_path=out / "checkpoint.fvig",
    )
    last = logs[-1]
    print(f"trained {train_cfg.epochs} epochs on {len(split)} images ({num_classes} classes)")
    print(f"final train loss {last.loss:.6f}, train accuracy {last.accuracy:.4f}")
    print(f"outputs in {out}")
    return 0


def cmd_eval(args) -> int:
    model = FViGModel.load(args.checkpoint)
    seed = TrainConfig.seed if args.seed is None else args.seed
    split = _load_split(args, model.config.image_size, seed, synth_only=("--seed",))
    if len(split.class_names) != model.config.num_classes:
        raise ConfigError(
            f"checkpoint expects {model.config.num_classes} classes but the dataset has {len(split.class_names)}"
        )
    report = evaluate(model, split)
    out = _out_dir(args, "eval")
    (out / "metrics.json").write_text(report.to_json(), encoding="utf-8")
    print(f"accuracy {report.accuracy!r}")
    print(f"metrics written to {out / 'metrics.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    seeded = {} if args.seed is None else {"seed": args.seed}  # run_suite holds the default
    results = run_suite(tol=args.tol, only=args.op, **seeded)
    width = max(len(name) for name, _ in results)
    failures = []
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {name:<{width}} max_rel_err={report.max_rel_error:.3e} "
            f"(checked {report.num_checked}, worst at {report.worst_at})"
        )
        if not report.passed:
            failures.append(name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}")
        return 1
    print(f"all {len(results)} gradient checks passed at tol {args.tol:g}")
    return 0


def _tint_patch(image: np.ndarray, node: int, grid: int, patch: int, color) -> None:
    gi, gj = divmod(node, grid)
    block = image[:, gi * patch : (gi + 1) * patch, gj * patch : (gj + 1) * patch]
    block[:] = 0.5 * block + 0.5 * np.asarray(color)[:, None, None]


def cmd_export_graph(args) -> int:
    model = FViGModel.load(args.checkpoint)
    cfg = model.config
    if not 0 <= args.layer < cfg.depth:
        raise ConfigError(f"layer {args.layer} out of range [0, {cfg.depth})")
    if not 0 <= args.node < cfg.num_nodes:
        raise ConfigError(f"node {args.node} out of range [0, {cfg.num_nodes})")
    image = bilinear_resize(read_ppm(args.image), cfg.image_size)
    adjacency: list[np.ndarray] = []
    with no_grad():
        model.forward(image[None], training=False, adjacency_out=adjacency)
    neighbors = adjacency[args.layer][0, args.node]
    record = {
        "image_id": Path(args.image).name,
        "layer": args.layer,
        "center_index": args.node,
        "neighbor_indices": [int(j) for j in neighbors],
        "dilation": cfg.rates()[args.layer],
        "k": cfg.k,
    }
    out = _out_dir(args, "export-graph")
    (out / "graph.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    grid = cfg.image_size // cfg.patch_size
    overlay = image.copy()
    for j in neighbors:
        _tint_patch(overlay, int(j), grid, cfg.patch_size, BLUE)
    _tint_patch(overlay, args.node, grid, cfg.patch_size, RED)
    write_ppm(out / "overlay.ppm", overlay)
    print(f"node {args.node} layer {args.layer}: neighbors {record['neighbor_indices']}")
    print(f"outputs in {out}")
    return 0


def cmd_params(args) -> int:
    model_cfg, _, _ = resolve_config(args)
    census = count_params(model_cfg)
    width = max(len(name) for name in census)
    for name, count in census.items():
        print(f"{name:<{width}}  {count:>12}")
    return 0


def non_negative_int(text: str) -> int:
    """--seed's type: numpy seeds its generators only from non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def positive_float(text: str) -> float:
    """--tol's type: a tolerance is a finite float above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite float above 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fvig", description="Saliency-driven vision graph network")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config=True, out=True, seed=True):
        """--config/--set where the command reads keys, --out where it writes files, --seed where it draws."""
        if config:
            sp.add_argument("--config", help="key=value config file")
            sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config key")
        if out:
            sp.add_argument("--out", help="output directory (default: runs/<command>)")
        if seed:
            sp.add_argument("--seed", type=non_negative_int, help="random seed (>= 0)")

    def dataset(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--data", help="dataset root: one subdirectory of .ppm files per class")
        source.add_argument("--synth", action="store_true", help="use the deterministic synthetic dataset")
        sp.add_argument("--classes", type=int, help="synthetic class count (default 3)")
        sp.add_argument("--per-class", dest="per_class", type=int, help="synthetic images per class (default 20)")

    p = sub.add_parser("train", help="train a model on a dataset directory or synthetic data")
    common(p)
    dataset(p)
    p.add_argument("--epochs", type=int, help="override the number of epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and write the metrics report")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    dataset(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable operation")
    common(p, config=False, out=False)
    p.add_argument("--tol", type=positive_float, default=TOL)
    p.add_argument("--op", help="only run checks whose name contains this string")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-graph", help="dump one node's neighborhood as JSON plus a tinted overlay image")
    common(p, config=False, seed=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input image (binary P6 PPM)")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--layer", type=int, required=True)
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("params", help="print the parameter census for a configuration")
    common(p, out=False, seed=False)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, DatasetError, FileNotFoundError, NotADirectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # anything else is a runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
