"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the logged ablation comparison.
"""

import dataclasses
import time

import numpy as np

from fvig.checksuite import micro_config, run_suite
from fvig.cli import main
from fvig.cluster import ClusterParams, cluster_block
from fvig.data import synth_dataset
from fvig.graph import build_graph, pairwise_sq_euclidean
from fvig.metrics import report_from_scores, roc_auc
from fvig.model import FViGModel, GrapherBlock, ModelConfig
from fvig.saliency import ChannelSaliencyParams, channel_saliency_forward
from fvig.tensor import Tensor, softmax_lastdim
from fvig.train import TrainConfig, train

from test_graph import dilated_oracle, knn_oracle, random_alpha, weighted_oracle
from test_metrics import pairwise_auc_oracle
from test_model import baseline_block_forward


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    results = run_suite(tol=1e-4)
    elapsed = time.monotonic() - started
    worst = max(results, key=lambda item: item[1].max_rel_error)
    all_pass = all(report.passed for _, report in results)
    _report(
        1,
        "gradient suite",
        all_pass and elapsed < 60.0,
        f"{len(results)} checks, worst {worst[0]}={worst[1].max_rel_error:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(100)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, n + 1))
        feats = rng.normal(size=(1, n, 4))
        if trial % 10 == 0:
            feats = np.round(feats, 1)  # quantized coordinates force distance ties
        dist = pairwise_sq_euclidean(feats)
        assert np.array_equal(build_graph(feats, k), knn_oracle(dist, k))

        alpha = random_alpha(rng, 1, n)
        assert np.array_equal(build_graph(feats, k, alpha=alpha), weighted_oracle(alpha, dist, k))

        d = int(rng.integers(1, 4))
        kd = int(rng.integers(1, n // d + 1))
        assert np.array_equal(build_graph(feats, kd, dilation=d), dilated_oracle(dist, kd, d))
        checked += 1
    _report(2, "oracle equivalence", checked == 200, f"{checked} instances x 3 selections, exact")


def test_criterion_3_ablation_off_identities():
    rng = np.random.default_rng(101)

    # (a) zero saliency parameters -> weighted selection reduces to plain KNN exactly
    features = Tensor(rng.normal(size=(2, 16, 32)))
    sal = ChannelSaliencyParams(32, 32, np.random.default_rng(7), ModelConfig.leaky_slope)
    sal.self_score.data[:] = 0.0
    sal.neighbor_score.data[:] = 0.0
    alpha = channel_saliency_forward(features, sal)
    dist = pairwise_sq_euclidean(features.data)
    a_ok = np.array_equal(build_graph(features.data, 4, alpha=alpha.data), knn_oracle(dist, 4))

    # (b) gates driven closed -> dispatch is the identity within 1e-9
    cl = ClusterParams(32, 32, 4, np.random.default_rng(8))
    cl.gate_shift.data[:] = -40.0
    adjacency = build_graph(features.data, 4)
    dispatched = cluster_block(features, adjacency, cl)
    b_err = float(np.abs(dispatched.data - features.data).max())
    b_ok = b_err <= 1e-9

    # (c) all flags off -> the block equals a dedicated baseline implementation bit-for-bit
    cfg = dataclasses.replace(
        micro_config(), use_channel_saliency=False, use_spatial_saliency=False, use_dilation=False
    )
    block = GrapherBlock(cfg, dilation=1, rng=np.random.default_rng(9))
    x = Tensor(rng.normal(size=(2, 16, 32)))
    flagged, _ = block.forward(x, training=False)
    c_ok = np.array_equal(flagged.data, baseline_block_forward(block, x).data)

    _report(3, "ablation-off identities", a_ok and b_ok and c_ok, f"gate-closed err {b_err:.1e}")


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(102)

    softmax_rows = softmax_lastdim(Tensor(rng.normal(size=(8, 13)) * 6)).data
    softmax_ok = np.abs(softmax_rows.sum(axis=-1) - 1.0).max() <= 1e-9

    features = Tensor(rng.normal(size=(2, 16, 32)))
    sal = ChannelSaliencyParams(32, 32, np.random.default_rng(10), ModelConfig.leaky_slope)
    alpha = channel_saliency_forward(features, sal).data
    alpha_ok = np.abs(alpha.sum(axis=-1) - 1.0).max() <= 1e-6 and np.all((alpha > 0) & (alpha < 1))

    cl = ClusterParams(32, 32, 4, np.random.default_rng(11))
    adjacency = build_graph(features.data, 4, dilation=2)
    from fvig.cluster import aggregate_multihead

    _, gates = aggregate_multihead(features, adjacency, cl)
    lam_ok = bool(np.all(1.0 + gates.data.sum(axis=2) >= 1.0))

    rows_ok = np.array_equal(adjacency[:, :, 0], np.tile(np.arange(16), (2, 1))) and all(
        len(set(adjacency[b, i].tolist())) == adjacency.shape[-1]
        for b in range(2)
        for i in range(16)
    )

    perm = rng.permutation(16)
    inv = np.argsort(perm)
    graph_perm_ok = np.array_equal(
        build_graph(features.data[:, perm, :], 4, dilation=2), inv[adjacency[:, perm, :]]
    )

    cfg = dataclasses.replace(micro_config(), use_positional_embedding=False)
    model = FViGModel(cfg, rng=np.random.default_rng(12))
    image = rng.random((1, 3, 32, 32))
    permuted = np.empty_like(image)
    for dst, src in enumerate(perm):
        si, sj = divmod(int(src), 4)
        di, dj = divmod(dst, 4)
        permuted[:, :, di * 8 : (di + 1) * 8, dj * 8 : (dj + 1) * 8] = image[
            :, :, si * 8 : (si + 1) * 8, sj * 8 : (sj + 1) * 8
        ]
    logit_gap = float(np.abs(model.forward(image).data - model.forward(permuted).data).max())
    model_perm_ok = logit_gap <= 1e-6

    _report(
        4,
        "structural invariants",
        softmax_ok and alpha_ok and lam_ok and rows_ok and graph_perm_ok and model_perm_ok,
        f"model permutation logit gap {logit_gap:.1e}",
    )


def test_criterion_5_learning_sanity():
    split = synth_dataset(seed=7, num_classes=3, per_class=20, size=32)
    recipe = TrainConfig(batch_size=16, lr=3e-3, epochs=200, seed=7)

    started = time.monotonic()
    model = FViGModel(micro_config(), rng=np.random.default_rng(recipe.seed))
    logs = train(model, split, recipe)
    elapsed = time.monotonic() - started
    best = max(row.accuracy for row in logs)

    ablated_cfg = dataclasses.replace(micro_config(), use_channel_saliency=False, use_spatial_saliency=False)
    ablated = FViGModel(ablated_cfg, rng=np.random.default_rng(recipe.seed))
    ablated_logs = train(ablated, split, recipe)

    # directional comparison is logged, not asserted: desk-scale variance
    print(
        f"  saliency on : final loss {logs[-1].loss:.6f}, best acc {best:.3f}\n"
        f"  saliency off: final loss {ablated_logs[-1].loss:.6f}, "
        f"best acc {max(r.accuracy for r in ablated_logs):.3f}"
    )
    _report(
        5,
        "learning sanity",
        best >= 0.95 and elapsed < 600.0,
        f"best train acc {best:.3f} within {len(logs)} epochs, {elapsed:.0f}s",
    )


def test_criterion_6_metrics_correctness():
    rng = np.random.default_rng(103)
    auc_exact = True
    for trial in range(100):
        n = int(rng.integers(4, 50))
        scores = rng.random(n)
        if trial % 4 == 0:
            scores = np.round(scores, 1)
        positives = rng.random(n) < 0.5
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        if roc_auc(scores, positives) != pairwise_auc_oracle(scores, positives):
            auc_exact = False
            break

    labels = rng.integers(0, 4, size=40)
    perfect = np.eye(4)[labels] * 0.9 + 0.025
    report = report_from_scores(labels, perfect, ["a", "b", "c", "d"])
    perfect_ok = report.accuracy == 1.0 and all(
        stats["f1"] == 1.0 and stats["ap"] == 1.0 and stats["auc"] == 1.0
        for stats in report.per_class.values()
    )

    noisy = rng.dirichlet(np.ones(4), size=40)
    noisy_report = report_from_scores(labels, noisy, ["a", "b", "c", "d"])
    cm = noisy_report.confusion
    identities_ok = (
        np.trace(cm) / cm.sum() == noisy_report.accuracy
        and np.array_equal(cm.sum(axis=1), np.bincount(labels, minlength=4))
    )

    _report(6, "metrics correctness", auc_exact and perfect_ok and identities_ok)


def test_criterion_7_reproducibility(tmp_path):
    def run(out):
        code = main(
            ["train", "--synth", "--seed", "7", "--per-class", "6", "--epochs", "5",
             "--out", str(out), "--set", "lr=1e-3"]
        )
        assert code == 0

    run(tmp_path / "first")
    run(tmp_path / "second")
    csv_same = (tmp_path / "first" / "train_log.csv").read_bytes() == (
        tmp_path / "second" / "train_log.csv"
    ).read_bytes()
    ckpt_same = (tmp_path / "first" / "checkpoint.fvig").read_bytes() == (
        tmp_path / "second" / "checkpoint.fvig"
    ).read_bytes()
    _report(7, "reproducibility", csv_same and ckpt_same, "CSV and checkpoint byte-identical")
