"""CLI contract tests: exit codes, produced files, determinism, export records."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvig.cli import main
from fvig.checkpoint import load_checkpoint, save_checkpoint
from fvig.data import synth_dataset, write_ppm
from fvig.metrics import evaluate
from fvig.model import FViGModel, ModelConfig

FAST = [
    "--set", "dim=16",
    "--set", "heads=2",
    "--set", "k=4",
    "--set", "lr=1e-3",
]


def run_train(tmp_path, name="run", seed="5", epochs="3", per_class="4", extra=()):
    out = tmp_path / name
    code = main(
        ["train", "--synth", "--classes", "3", "--per-class", per_class,
         "--epochs", epochs, "--seed", seed, "--out", str(out), *FAST, *extra]
    )
    return code, out


class TestTrain:
    def test_smoke_produces_artifacts(self, tmp_path):
        code, out = run_train(tmp_path, epochs="5")
        assert code == 0
        assert (out / "checkpoint.fvig").is_file()
        assert (out / "config.txt").is_file()
        lines = (out / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,acc,lr"
        assert len(lines) == 6  # header + 5 epochs

    def test_missing_dataset_flags(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "x")]) == 2

    def test_missing_dataset_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "x")]) == 2

    def test_both_data_and_synth_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        assert main(["train", "--data", str(tmp_path / "d"), "--synth"]) == 2

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_out_at_or_below_a_file_exits_2(self, tmp_path, capsys, sub):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / sub
        assert main(["train", "--synth", "--epochs", "1", "--per-class", "2", "--out", str(out), *FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        code, _ = run_train(tmp_path, extra=("--set", "bogus_key=1"))
        assert code == 2

    def test_num_classes_conflict(self, tmp_path):
        code, _ = run_train(tmp_path, extra=("--set", "num_classes=7"))
        assert code == 2

    def test_bad_train_config_exits_2(self, tmp_path):
        code, _ = run_train(tmp_path, extra=("--set", "batch_size=0"))
        assert code == 2

    def test_single_synth_class_exits_2(self, tmp_path):
        assert main(["train", "--synth", "--classes", "1", "--out", str(tmp_path / "x")]) == 2

    def test_truncated_ppm_exits_2(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("a", "b"):
            (tmp_path / "d" / name).mkdir(parents=True)
            write_ppm(tmp_path / "d" / name / "0.ppm", rng.random((3, 8, 8)))
        broken = tmp_path / "d" / "b" / "0.ppm"
        broken.write_bytes(broken.read_bytes()[:-10])
        assert main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "x"), *FAST]) == 2

    def test_empty_class_directory_exits_2(self, tmp_path):
        (tmp_path / "d" / "a").mkdir(parents=True)
        write_ppm(tmp_path / "d" / "a" / "0.ppm", np.zeros((3, 8, 8)))
        (tmp_path / "d" / "b").mkdir()
        assert main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "x"), *FAST]) == 2

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        code1, out1 = run_train(tmp_path, name="a", seed="7")
        code2, out2 = run_train(tmp_path, name="b", seed="7")
        assert code1 == 0 and code2 == 0
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
        assert (out1 / "checkpoint.fvig").read_bytes() == (out2 / "checkpoint.fvig").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, out1 = run_train(tmp_path, name="a", seed="7")
        _, out2 = run_train(tmp_path, name="b", seed="8")
        assert (out1 / "train_log.csv").read_bytes() != (out2 / "train_log.csv").read_bytes()

    def test_resolved_config_written(self, tmp_path):
        _, out = run_train(tmp_path)
        text = (out / "config.txt").read_text()
        assert "dim=16" in text
        assert "seed=5" in text
        assert "num_classes=3" in text

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dim=16\nheads=2\nk=4\nlr=1e-3\nepochs=2\n")
        out = tmp_path / "run"
        code = main(
            ["train", "--synth", "--classes", "3", "--per-class", "4",
             "--config", str(cfg), "--set", "epochs=1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 2  # header + 1 epoch


class TestConfigGrammar:
    """``--config``, ``--set`` and the checkpoint header share one key=value parser."""

    def test_config_txt_replays_byte_for_byte(self, tmp_path):
        keys = ("--set", "use_dilation=false", "--set", "dilation_schedule=1,2", "--set", "use_spatial_saliency=no")
        code, first = run_train(tmp_path, name="first", epochs="2", extra=keys)
        assert code == 0
        text = (first / "config.txt").read_text()
        assert {"dim=16", "use_dilation=false", "dilation_schedule=1,2", "use_spatial_saliency=false"} <= set(
            text.splitlines()
        )
        replay = tmp_path / "replay"
        assert main(
            ["train", "--synth", "--classes", "3", "--per-class", "4",
             "--config", str(first / "config.txt"), "--out", str(replay)]
        ) == 0
        for name in ("config.txt", "train_log.csv", "checkpoint.fvig"):
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train", "params"])
    @pytest.mark.parametrize(
        "override", ["", "#lr=1", "lr", "lr=1\nepochs=2", "lr=1\nlr=2", "depth=two"],
        ids=["empty", "comment", "no-equals", "two-lines", "same-key-twice", "bad-integer"],
    )
    def test_malformed_override_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, command, override):
        monkeypatch.chdir(tmp_path)  # without --out, train writes under runs/ in the working directory
        argv = ["train", "--synth", "--epochs", "1", "--per-class", "2"] if command == "train" else ["params"]
        assert main([*argv, "--set", override]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "params"])
    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config_exits_2_naming_it_and_writes_nothing(self, tmp_path, monkeypatch, capsys, command, kind):
        monkeypatch.chdir(tmp_path)
        if kind == "directory":
            (tmp_path / "cfg").mkdir()
        else:
            (tmp_path / "cfg").write_bytes(b"dim=\xff\xfe\n")
        argv = ["train", "--synth", "--epochs", "1", "--per-class", "2"] if command == "train" else ["params"]
        assert main([*argv, "--config", "cfg"]) == 2
        assert "config file 'cfg' cannot be read" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg"]

    @pytest.mark.parametrize("key", ["lr", "lr_min", "weight_decay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_exits_2_before_the_out_dir(self, tmp_path, capsys, key, value):
        code, out = run_train(tmp_path, extra=("--set", f"{key}={value}"))
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--synth", "--seed", "-1"],
            ["train", "--synth", "--set", "seed=-1"],
            ["eval", "--checkpoint", "c.fvig", "--synth", "--seed", "-1"],
            ["gradcheck", "--seed", "-1"],
        ],
        ids=["train", "train-set", "eval", "gradcheck"],
    )
    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_eval_matches_final_train_log_accuracy(self, tmp_path, capsys):
        _, out = run_train(tmp_path, epochs="4")
        final_acc = float((out / "train_log.csv").read_text().splitlines()[-1].split(",")[2])
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.fvig"), "--synth",
             "--classes", "3", "--per-class", "4", "--seed", "5", "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        printed = capsys.readouterr().out
        acc_line = next(l for l in printed.splitlines() if l.startswith("accuracy "))
        reported = float(acc_line.split()[-1])
        assert abs(reported - final_acc) <= 1e-9

    def test_metrics_json_confusion_row_sums(self, tmp_path):
        _, out = run_train(tmp_path)
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.fvig"), "--synth",
             "--classes", "3", "--per-class", "4", "--seed", "5", "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        payload = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        row_sums = [sum(row) for row in payload["confusion"]]
        assert row_sums == [4, 4, 4]
        assert set(payload["per_class"]) == {"class_00", "class_01", "class_02"}

    def test_corrupt_checkpoint_magic(self, tmp_path):
        bad = tmp_path / "bad.fvig"
        bad.write_bytes(b"XXXX" + b"\0" * 32)
        assert main(["eval", "--checkpoint", str(bad), "--synth"]) == 2

    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path), "--synth"]) == 2  # a directory
        assert f"cannot read '{tmp_path}'" in capsys.readouterr().err

    def test_seed_picks_the_synthetic_images(self, tmp_path):
        _, out = run_train(tmp_path)
        checkpoint = out / "checkpoint.fvig"
        code = main(
            ["eval", "--checkpoint", str(checkpoint), "--synth", "--classes", "3",
             "--per-class", "4", "--seed", "8", "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        model = FViGModel.load(checkpoint)
        report = evaluate(model, synth_dataset(seed=8, num_classes=3, per_class=4, size=model.config.image_size))
        assert (tmp_path / "ev" / "metrics.json").read_text() == report.to_json()

    def test_nan_head_fails_without_metrics(self, tmp_path, capsys):
        # the block features stay finite, so only the metrics see the NaN probabilities
        _, out = run_train(tmp_path)
        header, arrays = load_checkpoint(out / "checkpoint.fvig")
        arrays["head.weight"][:] = np.nan
        save_checkpoint(tmp_path / "nan.fvig", arrays, header=header)
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "nan.fvig"), "--synth",
             "--classes", "3", "--per-class", "4", "--seed", "5", "--out", str(tmp_path / "ev")]
        )
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "metrics.json").exists()

    def test_class_count_mismatch(self, tmp_path):
        _, out = run_train(tmp_path)  # trained with 3 classes
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.fvig"), "--synth",
             "--classes", "4", "--per-class", "2", "--seed", "5", "--out", str(tmp_path / "ev")]
        )
        assert code == 2


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_impossible_tolerance_fails_with_report(self, capsys):
        assert main(["gradcheck", "--tol", "1e-14"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "failed for:" in out

    def test_op_filter(self, capsys):
        assert main(["gradcheck", "--op", "softmax"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 1 and "softmax" in lines[0]

    def test_unknown_op_filter(self, capsys):
        # a filter that matches nothing is a usage error
        assert main(["gradcheck", "--op", "warp_drive"]) == 2
        assert "no gradient check matches 'warp_drive'" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        assert main(["gradcheck", "--op", "softmax", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "expected a finite float above 0" in err

    def test_tiny_tolerance_still_reports_failure(self, capsys):
        assert main(["gradcheck", "--op", "softmax", "--tol", "1e-12"]) == 1
        assert "FAIL softmax" in capsys.readouterr().out

    def test_report_columns_line_up(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 40
        # the longest name sets the column, as in the params census
        assert len({l.index("max_rel_err=") for l in lines}) == 1, lines

    def test_two_operand_line_counts_both_and_names_the_operand(self, capsys):
        assert main(["gradcheck", "--op", "matmul"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        # a[2,3,4,5] and b[5,3]: 120 + 15 entries
        assert re.search(r"\(checked 135, worst at [ab]\[\d+\]\)$", line), line


class TestModuleEntry:
    """``python -m fvig.cli`` runs the same CLI as the ``fvig`` script."""

    @staticmethod
    def run_python(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)

    def run_module(self, *args):
        return self.run_python("-m", "fvig.cli", *args)

    def test_import_loads_only_numpy_and_the_standard_library(self):
        # numpy is the only runtime dependency; concurrent.futures waits for the first split backward,
        # since importing it eagerly made the micro recipe's setup about 20% slower. The package
        # imports none of its modules, so a module loads only what it imports itself.
        done = self.run_python("-c", (
            "import sys; before = set(sys.modules); import fvig.tensor\n"
            "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'fvig'))\n"
            "import fvig.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'fvig'}), 'concurrent.futures' in sys.modules)"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["['fvig', 'fvig.tensor']", "[] False"]

    def test_gradcheck_op_passes(self):
        done = self.run_module("gradcheck", "--op", "softmax")
        assert done.returncode == 0, done.stderr
        lines = [l for l in done.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 1 and lines[0].startswith("PASS softmax")

    def test_impossible_tolerance_exits_1(self):
        assert self.run_module("gradcheck", "--op", "softmax", "--tol", "1e-14").returncode == 1


class TestExportGraph:
    @pytest.fixture
    def trained(self, tmp_path):
        _, out = run_train(tmp_path, epochs="1")
        image = synth_dataset(seed=1, num_classes=2, per_class=1, size=48).items[0][0]
        img_path = tmp_path / "input.ppm"
        write_ppm(img_path, image)
        return out / "checkpoint.fvig", img_path, tmp_path

    def test_record_lists_k_neighbors_with_self(self, trained):
        ckpt, img, tmp = trained
        out = tmp / "export"
        code = main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "0", "--layer", "0", "--out", str(out)]
        )
        assert code == 0
        record = json.loads((out / "graph.json").read_text())
        assert [(key, type(value)) for key, value in record.items()] == [
            ("image_id", str), ("layer", int), ("center_index", int),
            ("neighbor_indices", list), ("dilation", int), ("k", int),
        ]
        assert all(type(j) is int for j in record["neighbor_indices"])
        assert record["image_id"] == "input.ppm" and record["layer"] == 0
        assert record["dilation"] == FViGModel.load(ckpt).config.rates()[0]
        assert record["center_index"] == 0
        assert record["k"] == 4
        assert len(record["neighbor_indices"]) == 4
        assert record["neighbor_indices"][0] == 0  # self survives first
        assert (out / "overlay.ppm").is_file()

    def test_indices_match_library_recomputation(self, trained):
        ckpt, img, tmp = trained
        out = tmp / "export2"
        main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "3", "--layer", "1", "--out", str(out)]
        )
        record = json.loads((out / "graph.json").read_text())

        from fvig.data import bilinear_resize, read_ppm

        model = FViGModel.load(ckpt)
        resized = bilinear_resize(read_ppm(img), model.config.image_size)
        collected = []
        model.forward(resized[None], adjacency_out=collected)
        np.testing.assert_array_equal(
            collected[1][0, 3], np.array(record["neighbor_indices"])
        )

    def test_k_equals_n_tints_every_patch(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--synth", "--classes", "2", "--per-class", "2", "--epochs", "1",
             "--seed", "2", "--out", str(out),
             "--set", "dim=16", "--set", "heads=2", "--set", "k=16",
             "--set", "use_dilation=false", "--set", "lr=1e-3"]
        )
        assert code == 0
        image = synth_dataset(seed=3, num_classes=2, per_class=1, size=32).items[0][0]
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, image)
        exp = tmp_path / "exp"
        code = main(
            ["export-graph", "--checkpoint", str(out / "checkpoint.fvig"), "--image", str(img_path),
             "--node", "5", "--layer", "0", "--out", str(exp)]
        )
        assert code == 0
        record = json.loads((exp / "graph.json").read_text())
        assert sorted(record["neighbor_indices"]) == list(range(16))

        from fvig.data import read_ppm

        overlay = read_ppm(exp / "overlay.ppm")
        original = read_ppm(img_path)
        # every 8x8 patch must have been tinted
        for gi in range(4):
            for gj in range(4):
                a = overlay[:, gi * 8 : (gi + 1) * 8, gj * 8 : (gj + 1) * 8]
                b = original[:, gi * 8 : (gi + 1) * 8, gj * 8 : (gj + 1) * 8]
                assert np.abs(a - b).max() > 0.01

    def test_node_out_of_range(self, trained):
        ckpt, img, tmp = trained
        code = main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "99", "--layer", "0", "--out", str(tmp / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "keys", [["--set", "k=2"], ["--set", "lr=1e-3", "--set", "heads=5"]],
        ids=["set", "set-after-training-key"],
    )
    def test_model_keys_rejected(self, trained, capsys, keys):
        # the checkpoint fixes the model config, so export-graph takes no --set at all
        ckpt, img, tmp = trained
        code = main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "0", "--layer", "0", "--out", str(tmp / "x"), *keys]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp / "x" / "graph.json").exists()

    def test_training_keys_accepted(self, trained):
        # the run behind the checkpoint set a training key; export-graph needs none restated
        ckpt, img, tmp = trained
        assert "lr=0.001" in (ckpt.parent / "config.txt").read_text().splitlines()
        code = main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "0", "--layer", "0", "--out", str(tmp / "x")]
        )
        assert code == 0
        assert (tmp / "x" / "graph.json").is_file()

    def test_layer_out_of_range(self, trained):
        ckpt, img, tmp = trained
        code = main(
            ["export-graph", "--checkpoint", str(ckpt), "--image", str(img),
             "--node", "0", "--layer", "9", "--out", str(tmp / "x")]
        )
        assert code == 2


class TestParams:
    def test_census_total_matches_checkpoint(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        _, arrays = load_checkpoint(out / "checkpoint.fvig")
        checkpoint_floats = sum(a.size for a in arrays.values())
        assert main(["params", "--set", "dim=16", "--set", "heads=2", "--set", "num_classes=3"]) == 0
        printed = capsys.readouterr().out
        total = int([l for l in printed.splitlines() if l.startswith("total")][0].split()[-1])
        assert total == checkpoint_floats

    def test_depth_doubling(self, capsys):
        def census_via_cli(depth, schedule):
            assert main(["params", "--set", f"depth={depth}", "--set", f"dilation_schedule={schedule}"]) == 0
            rows = dict(
                line.split() for line in capsys.readouterr().out.splitlines() if line.strip()
            )
            return {k: int(v) for k, v in rows.items()}

        shallow = census_via_cli(2, "1,2")
        deep = census_via_cli(4, "1,2,1,2")
        fixed = ["patch_embed", "positional_embedding", "head"]
        shallow_blocks = shallow["total"] - sum(shallow[k] for k in fixed)
        deep_blocks = deep["total"] - sum(deep[k] for k in fixed)
        assert deep_blocks == 2 * shallow_blocks

    def test_flags_off_zero_rows(self, capsys):
        assert main(
            ["params", "--set", "use_channel_saliency=false", "--set", "use_spatial_saliency=false"]
        ) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines() if line.strip())
        assert rows["channel_saliency"] == "0"
        assert rows["spatial_cluster"] == "0"

    def test_invalid_config(self):
        assert main(["params", "--set", "depth=0"]) == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["fly"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--op", "softmax", "--config", "absent.txt"],
            ["gradcheck", "--op", "softmax", "--set", "flux=1"],
            ["gradcheck", "--op", "softmax", "--out", "x"],
            ["params", "--out", "x"],
            ["params", "--seed", "3"],
            ["export-graph", "--checkpoint", "c.fvig", "--image", "i.ppm", "--node", "0", "--layer", "0",
             "--seed", "3"],
            # export-graph takes its model config from the checkpoint and reads no training key
            ["export-graph", "--checkpoint", "c.fvig", "--image", "i.ppm", "--node", "0", "--layer", "0",
             "--config", "model.cfg"],
            ["export-graph", "--checkpoint", "c.fvig", "--image", "i.ppm", "--node", "0", "--layer", "0",
             "--set", "lr=1e-3"],
            # eval too: its model config comes from the checkpoint, and it reads no training key
            ["eval", "--checkpoint", "c.fvig", "--synth", "--config", "model.cfg"],
            ["eval", "--checkpoint", "c.fvig", "--synth", "--set", "lr=5", "--set", "batch_size=7"],
        ],
        ids=[
            "gradcheck-config", "gradcheck-set", "gradcheck-out", "params-out", "params-seed", "export-graph-seed",
            "export-graph-config", "export-graph-set", "eval-config", "eval-set",
        ],
    )
    def test_flag_the_command_would_ignore_is_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            (["train"], ["--classes", "7"]),
            (["train"], ["--per-class", "9"]),
            (["eval", "--checkpoint", "CKPT"], ["--classes", "7"]),
            (["eval", "--checkpoint", "CKPT"], ["--per-class", "9"]),
            (["eval", "--checkpoint", "CKPT"], ["--seed", "3"]),
        ],
        ids=["train-classes", "train-per-class", "eval-classes", "eval-per-class", "eval-seed"],
    )
    def test_synthetic_data_flag_without_synth_is_rejected(self, tmp_path, capsys, command, flags):
        # --data names a PPM tree, so the synthetic set's size and seed would be ignored
        checkpoint = tmp_path / "c.fvig"
        FViGModel(ModelConfig(dim=16, heads=2, num_classes=2), rng=np.random.default_rng(0)).save(checkpoint)
        (tmp_path / "d" / "a").mkdir(parents=True)
        write_ppm(tmp_path / "d" / "a" / "0.ppm", np.zeros((3, 8, 8)))
        argv = [str(checkpoint) if arg == "CKPT" else arg for arg in command]
        assert main([*argv, "--data", str(tmp_path / "d"), *flags, "--out", str(tmp_path / "x")]) == 2
        assert f"{flags[0]} is read only with --synth" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
