"""Metrics tests: pairwise AUC oracle, hand-computed AP, confusion identities."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fvig.metrics import (
    average_precision,
    confusion_matrix,
    precision_recall_f1,
    predict_probabilities,
    report_from_scores,
    roc_auc,
)
from fvig.model import FViGModel, ModelConfig
from fvig.train import cross_entropy
from fvig.tensor import Tensor

from test_gradcheck import grad_check

SRC = Path(__file__).resolve().parents[1] / "src"


def pairwise_auc_oracle(scores, positives):
    """O(n^2) comparison count: wins + half-ties over all positive/negative pairs."""
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = cross_entropy(Tensor(np.zeros((2, 9))), np.array([3, 7]))
        assert loss.item() == pytest.approx(np.log(9.0), abs=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        assert cross_entropy(Tensor(logits), np.array([2])).item() < 1e-6

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        report = grad_check(lambda t: cross_entropy(t, labels), logits, h=1e-6, tol=1e-6)
        assert report.passed, report

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="label out of range"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


class TestConfusion:
    def test_trace_over_total_is_accuracy(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=50)
        preds = rng.integers(0, 4, size=50)
        cm = confusion_matrix(labels, preds, 4)
        assert np.trace(cm) / cm.sum() == pytest.approx((labels == preds).mean())

    def test_row_sums_are_class_counts(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        preds = np.array([0, 1, 1, 0, 2, 2])
        cm = confusion_matrix(labels, preds, 3)
        np.testing.assert_array_equal(cm.sum(axis=1), [2, 1, 3])

    def test_f1_recomputable_from_matrix(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=80)
        preds = rng.integers(0, 3, size=80)
        cm = confusion_matrix(labels, preds, 3)
        precision, recall, f1, _ = precision_recall_f1(cm)
        for c in range(3):
            if precision[c] + recall[c] > 0:
                expected = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
                assert f1[c] == pytest.approx(expected, abs=1e-12)


class TestAveragePrecision:
    def test_hand_computed_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        positives = np.array([True, False, True, True])
        # ranked hits at positions 1, 3, 4 -> precisions 1, 2/3, 3/4
        expected = (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0
        assert average_precision(scores, positives) == pytest.approx(expected, abs=1e-12)

    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        positives = np.array([True, True, False, False])
        assert average_precision(scores, positives) == 1.0

    def test_no_positives(self):
        assert average_precision(np.array([0.5, 0.2]), np.array([False, False])) == 0.0


class TestRocAuc:
    def test_100_random_score_sets_match_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(4, 40))
            scores = rng.random(n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force ties
            positives = rng.random(n) < 0.5
            if positives.all() or not positives.any():
                positives[0] = ~positives[0]
            assert roc_auc(scores, positives) == pairwise_auc_oracle(scores, positives)

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert roc_auc(scores, positives) == 1.0

    def test_all_ties_is_half(self):
        scores = np.full(10, 0.5)
        positives = np.array([True] * 5 + [False] * 5)
        assert roc_auc(scores, positives) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = np.round(rng.random(30), 3)
        positives = rng.random(30) < 0.4
        positives[0] = True
        positives[1] = False
        base = roc_auc(scores, positives)
        assert roc_auc(np.exp(scores), positives) == base
        assert roc_auc(2.0 * scores + 3.0, positives) == base

    def test_degenerate_classes_give_half(self):
        assert roc_auc(np.array([0.4, 0.6]), np.array([True, True])) == 0.5

    def test_signed_zeros_tie(self):
        scores = np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.5])
        positives = np.array([True, False, True, True, False, False])
        assert roc_auc(scores, positives) == pairwise_auc_oracle(scores, positives) == 7 / 9

    def test_nan_score_returns(self):
        # a NaN equals nothing, so a tie scan that waits for equality never ends; a fresh
        # interpreter with a timeout turns such a hang into a failure
        code = "from fvig.metrics import roc_auc; print(roc_auc([0.2, float('nan'), 0.7], [True, False, False]))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout.split() == ["0.0"], done.stderr  # a NaN ranks above every score


class TestReport:
    def test_perfect_predictor(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels] * 0.9 + 0.05
        report = report_from_scores(labels, probs, ["a", "b", "c"])
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(report.confusion, np.diag([2, 2, 2]))
        for stats in report.per_class.values():
            assert stats["f1"] == 1.0
            assert stats["ap"] == 1.0
            assert stats["auc"] == 1.0
        assert report.zero_prediction_classes == []

    def test_constant_predictor_on_balanced_two_class(self):
        labels = np.array([0, 1] * 10)
        probs = np.full((20, 2), 0.5)
        report = report_from_scores(labels, probs, ["neg", "pos"])
        assert report.accuracy == 0.5
        assert report.per_class["neg"]["auc"] == 0.5
        assert report.per_class["pos"]["auc"] == 0.5
        assert "pos" in report.zero_prediction_classes

    def test_zero_prediction_class_flagged_with_zero_precision(self):
        labels = np.array([0, 1, 2, 2])
        probs = np.array(
            [[0.8, 0.2, 0.0], [0.3, 0.7, 0.0], [0.6, 0.4, 0.0], [0.2, 0.8, 0.0]]
        )
        report = report_from_scores(labels, probs, ["a", "b", "c"])
        assert report.zero_prediction_classes == ["c"]
        assert report.per_class["c"]["precision"] == 0.0

    def test_json_structure(self):
        labels = np.array([0, 1])
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        report = report_from_scores(labels, probs, ["x", "y"])
        payload = json.loads(report.to_json())
        assert set(payload) == {"accuracy", "per_class", "confusion", "class_names", "zero_prediction_classes"}
        assert set(payload["per_class"]["x"]) == {"precision", "recall", "f1", "ap", "auc"}
        assert payload["confusion"] == [[1, 0], [0, 1]]

    def test_non_finite_probabilities_rejected_with_their_count(self):
        probs = np.array([[0.9, 0.1], [np.nan, np.nan], [0.2, np.inf]])
        with pytest.raises(ValueError, match="3 non-finite"):
            report_from_scores(np.array([0, 1, 1]), probs, ["x", "y"])

    @pytest.mark.parametrize("names", [["x", "y"], ["w", "x", "y", "z"]], ids=["fewer-names", "more-names"])
    def test_class_count_must_match_probability_columns(self, names):
        probs = np.full((2, 3), 1.0 / 3.0)
        shapes = rf"shape \(2, 3\), expected \(2, {len(names)}\)"
        with pytest.raises(ValueError, match=shapes):
            report_from_scores(np.array([0, 1]), probs, names)

    @pytest.mark.parametrize("labels, bad", [([0, 3], 3), ([0, -1], -1)], ids=["past-the-last", "negative"])
    def test_out_of_range_label_is_named_with_the_class_count(self, labels, bad):
        probs = np.full((2, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match=rf"^label {bad} is out of range for 3 classes$"):
            report_from_scores(np.array(labels), probs, ["a", "b", "c"])

    def test_confusion_identities_on_random_reports(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, c = 40, 4
            labels = rng.integers(0, c, size=n)
            probs = rng.dirichlet(np.ones(c), size=n)
            report = report_from_scores(labels, probs, [f"c{i}" for i in range(c)])
            cm = report.confusion
            assert np.trace(cm) / cm.sum() == report.accuracy
            np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(labels, minlength=c))
            assert all(0.0 <= v <= 1.0 for stats in report.per_class.values() for v in stats.values())


class TestPredictProbabilities:
    def test_mid_batch_peak_memory_holds_no_graph(self):
        # the mid config at batch 64 peaks at ~198 MiB of numpy buffers when it records its graph, ~29 MiB here
        cfg = ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4)
        model = FViGModel(cfg, rng=np.random.default_rng(60))
        images = np.random.default_rng(61).random((64, 3, 64, 64))
        tracemalloc.start()
        try:
            probabilities = predict_probabilities(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probabilities.shape == (64, 4)
        assert peak < 128 * 2**20
