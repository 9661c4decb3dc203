"""Training loop tests: no-op at lr 0, descent, seeded reproducibility, CSV format."""

import dataclasses
import sys
import types

import numpy as np
import pytest

from fvig.data import DatasetSplit, synth_dataset
from fvig.model import ConfigError, FViGModel, ModelConfig
from fvig.optim import AdamW
from fvig.train import TrainConfig, cross_entropy, train, write_log_csv


def tiny_config():
    return ModelConfig(
        image_size=16, patch_size=8, dim=16, depth=1, k=2, heads=2,
        dilation_schedule="1", num_classes=2,
    )


def tiny_split():
    return synth_dataset(seed=0, num_classes=2, per_class=4, size=16)


def test_lr_zero_leaves_parameters_unchanged():
    model = FViGModel(tiny_config(), rng=np.random.default_rng(0))
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    train(model, tiny_split(), TrainConfig(batch_size=4, lr=0.0, epochs=1, seed=1))
    for name, t in model.named_parameters():
        np.testing.assert_array_equal(t.data, before[name])


def test_empty_split_rejected():
    model = FViGModel(tiny_config(), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty split"):
        train(model, DatasetSplit([], ["a", "b"]), TrainConfig(epochs=1))


def test_single_step_descends_on_fixed_micro_batch():
    model = FViGModel(tiny_config(), rng=np.random.default_rng(2))
    images, labels = tiny_split().stack()
    batch, batch_labels = images[:4], labels[:4]

    def batch_loss():
        return cross_entropy(model.forward(batch, training=False), batch_labels)

    before = batch_loss().item()
    optimizer = AdamW(model.named_parameters(), lr=1e-3)
    loss = cross_entropy(model.forward(batch, training=False), batch_labels)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    after = batch_loss().item()
    assert after < before


def test_fixed_seed_reproduces_first_epoch_loss():
    def run():
        model = FViGModel(tiny_config(), rng=np.random.default_rng(3))
        logs = train(model, tiny_split(), TrainConfig(batch_size=4, lr=1e-3, epochs=1, seed=11))
        return logs[0].loss

    assert run() == run()


def test_epoch_accuracy_is_eval_mode(tmp_path):
    from fvig.train import eval_accuracy

    model = FViGModel(tiny_config(), rng=np.random.default_rng(4))
    split = tiny_split()
    logs = train(model, split, TrainConfig(batch_size=4, lr=1e-3, epochs=2, seed=5))
    images, labels = split.stack()
    assert logs[-1].accuracy == eval_accuracy(model, images, labels)


def test_csv_log_format(tmp_path):
    model = FViGModel(tiny_config(), rng=np.random.default_rng(6))
    path = tmp_path / "log.csv"
    logs = train(model, tiny_split(), TrainConfig(batch_size=4, lr=1e-3, epochs=3, seed=7), log_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,acc,lr"
    assert len(lines) == 4
    for row, line in zip(logs, lines[1:]):
        epoch, loss, acc, lr = line.split(",")
        assert int(epoch) == row.epoch
        assert float(loss) == row.loss
        assert float(acc) == row.accuracy
        assert float(lr) == row.lr


def test_checkpoint_written(tmp_path):
    model = FViGModel(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.fvig"
    train(model, tiny_split(), TrainConfig(batch_size=4, lr=1e-3, epochs=1, seed=9), checkpoint_path=path)
    loaded = FViGModel.load(path)
    images, _ = tiny_split().stack()
    np.testing.assert_array_equal(loaded.forward(images[:2]).data, model.forward(images[:2]).data)


def test_lr_follows_cosine_schedule():
    model = FViGModel(tiny_config(), rng=np.random.default_rng(10))
    logs = train(model, tiny_split(), TrainConfig(batch_size=4, lr=2e-3, epochs=4, seed=12))
    lrs = [row.lr for row in logs]
    assert lrs[0] == pytest.approx(2e-3)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)


@pytest.mark.parametrize("key", ["lr", "lr_min", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_rate_rejected(key, value):
    # NaN fails every comparison, so a `< 0` check alone would let it through
    with pytest.raises(ConfigError, match="must be finite"):
        TrainConfig(**{key: value})


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def test_config_is_frozen_and_raises_config_error():
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.batch_size = 0
    with pytest.raises(ConfigError, match="batch_size 0"):
        dataclasses.replace(cfg, batch_size=0)


def test_write_log_csv_repr_roundtrip(tmp_path):
    from fvig.train import EpochLog

    rows = [EpochLog(epoch=0, loss=1 / 3, accuracy=2 / 3, lr=3.125e-5)]
    path = tmp_path / "log.csv"
    write_log_csv(path, rows)
    _, loss, acc, lr = path.read_text().splitlines()[1].split(",")
    assert float(loss) == 1 / 3 and float(acc) == 2 / 3 and float(lr) == 3.125e-5


def test_package_attribute_is_the_module():
    import fvig
    import fvig.train as m

    assert m is sys.modules["fvig.train"] and m.cross_entropy is cross_entropy
    assert all(isinstance(value, types.ModuleType) for name, value in vars(fvig).items() if name[0] != "_")
