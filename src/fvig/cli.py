"""Command-line interface: train, eval, gradcheck, export-graph, params.

Configuration is a flat key=value namespace (model plus training keys),
read from an optional ``--config`` file and overridden by repeatable
``--set key=value`` flags (last wins) and ``--seed``. ``train`` writes the
fully resolved configuration next to its outputs so it can be replayed.
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
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .checksuite import run_suite
from .data import DatasetError, DatasetSplit, bilinear_resize, load_dataset, read_ppm, synth_dataset, write_ppm
from .graph import export_record
from .metrics import evaluate
from .model import (
    CONFIG_TYPES, ConfigError, FViGModel, ModelConfig, config_text, count_params, parse_config_text, parse_config_value
)
from .tensor import no_grad
from .train import TrainConfig, train

_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
_FIELDS = {**CONFIG_TYPES, **_TRAIN_FIELDS}

RED = (1.0, 0.15, 0.15)
BLUE = (0.15, 0.3, 1.0)


def _config_values(args) -> dict[str, object]:
    """Typed keys from the config file, --set overrides (last wins), --seed and --epochs; unknown keys fail."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file '{path}' does not exist")
        values.update(parse_config_text(path.read_text(encoding="utf-8"), _FIELDS))
    for override in getattr(args, "set", []) or []:
        if "=" not in override:
            raise ConfigError(f"bad --set (expected key=value): '{override}'")
        key, _, raw = override.partition("=")
        values[key.strip()] = parse_config_value(key.strip(), raw.strip(), _FIELDS)
    if getattr(args, "seed", None) is not None:
        values["seed"] = int(args.seed)
    if getattr(args, "epochs", None) is not None:
        values["epochs"] = int(args.epochs)
    return values


def resolve_config(args) -> tuple[ModelConfig, TrainConfig, set[str]]:
    """Merge defaults, config file, --set overrides, and --seed; reject unknown keys."""
    values = _config_values(args)
    model_cfg = ModelConfig(**{k: v for k, v in values.items() if k in CONFIG_TYPES})
    train_cfg = TrainConfig(**{k: v for k, v in values.items() if k in _TRAIN_FIELDS})
    return model_cfg, train_cfg, set(values)


def _load_split(args, image_size: int, seed: int, synth_only: tuple[str, ...] = ()) -> DatasetSplit:
    """The --synth dataset, or the --data tree; a flag read only with --synth fails without it.

    ``synth_only`` names the command's own such flags besides ``--classes`` and ``--per-class``.
    """
    if args.synth and args.data:
        raise ConfigError("pass either --data or --synth, not both")
    if args.synth:
        classes = 3 if args.classes is None else args.classes
        per_class = 20 if args.per_class is None else args.per_class
        return synth_dataset(seed=seed, num_classes=classes, per_class=per_class, size=image_size)
    for flag in ("--classes", "--per-class", *synth_only):
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ConfigError(f"{flag} is read only with --synth")
    if not args.data:
        raise ConfigError("a dataset is required: pass --data DIR or --synth")
    return load_dataset(args.data, image_size)


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
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
    results = run_suite(tol=args.tol, only=args.op, seed=args.seed if args.seed is not None else 0)
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
    record = export_record(
        image_id=Path(args.image).name,
        layer=args.layer,
        center_index=args.node,
        neighbors=neighbors,
        dilation=cfg.rates()[args.layer],
        k=cfg.k,
    )
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
            sp.add_argument("--seed", type=int, help="random seed")

    def dataset(sp):
        sp.add_argument("--data", help="dataset root: one subdirectory of .ppm files per class")
        sp.add_argument("--synth", action="store_true", help="use the deterministic synthetic dataset")
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
    p.add_argument("--tol", type=float, default=1e-4)
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
