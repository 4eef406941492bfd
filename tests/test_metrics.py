import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmtl.errors import DataError
from tabmtl.metrics import (
    classification_metrics,
    confusion_counts,
    f1_score,
    mse_metric,
    roc_auc,
)
from tabmtl.network import loss_reg


def pairwise_auc(scores, labels):
    """Independent oracle: direct count of concordant pairs, ties as 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_hand_counts(self):
        c = confusion_counts([1, 0, 1, 1, 0], [1, 1, 0, 1, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
        assert c.total == 5

    def test_f1_hand_value(self):
        c = confusion_counts([1, 0, 1, 1, 0], [1, 1, 0, 1, 0])
        assert f1_score(c) == pytest.approx(2 / 3)

    def test_f1_unit_counts(self):
        from tabmtl.metrics import ConfusionCounts

        assert f1_score(ConfusionCounts(tp=1, fp=1, tn=0, fn=1)) == 0.5

    def test_f1_degenerate_is_zero(self):
        # no true or predicted positives at all
        assert f1_score(confusion_counts([0, 0], [0, 0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_counts([], [])

    def test_positive_class_argument(self):
        c = confusion_counts([0, 1, 0], [0, 0, 1], positive_class=0)
        assert (c.tp, c.fp, c.fn) == (1, 1, 1)


class TestRocAuc:
    def test_hand_value(self):
        assert roc_auc([0.2, 0.8, 0.6, 0.4], [0, 1, 0, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2, 0.3], [0, 1, 2])

    def test_matches_pairwise_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 4, size=n) / 3.0
            if labels.min() == labels.max():
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1)),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_pairwise_oracle_property(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        if len(set(labels)) < 2:
            return
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )


class TestMse:
    def test_is_the_training_loss(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert mse_metric(a, b) == loss_reg(a, b)

    def test_hand_value(self):
        assert mse_metric([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)


class TestClassificationMetrics:
    def test_binary_consistent_with_parts(self):
        rng = np.random.default_rng(3)
        p1 = rng.uniform(size=40)
        probs = np.column_stack([1 - p1, p1])
        labels = rng.integers(0, 2, size=40)
        m = classification_metrics(probs, labels)
        pred = (p1 > 0.5).astype(int)
        assert m["f1"] == f1_score(confusion_counts(pred, labels))
        assert m["auc"] == roc_auc(p1, labels)

    def test_single_class_auc_is_none(self):
        probs = np.array([[0.4, 0.6], [0.7, 0.3]])
        m = classification_metrics(probs, np.array([1, 1]))
        assert m["auc"] is None
        assert m["f1"] == pytest.approx(2 / 3)

    def test_multiclass_macro_average(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(size=(60, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=60)
        m = classification_metrics(probs, labels)
        pred = probs.argmax(axis=1)
        f1s = [f1_score(confusion_counts(pred, labels, c)) for c in range(3)]
        aucs = [roc_auc(probs[:, c], (labels == c).astype(int)) for c in range(3)]
        assert m["f1"] == pytest.approx(np.mean(f1s))
        assert m["auc"] == pytest.approx(np.mean(aucs))

    @pytest.mark.parametrize("probs, labels", [
        ([[np.nan, np.nan], [0.4, 0.6], [0.7, 0.3]], [0, 1, 0]),
        ([[np.nan] * 3, [0.4, 0.5, 0.1], [0.7, 0.2, 0.1]], [0, 1, 2]),
    ], ids=["binary", "three_classes"])
    def test_nan_probability_is_refused(self, probs, labels):
        # the binary case scored {"f1": 1.0, "auc": None}: its AUC's error was dropped
        with pytest.raises(DataError, match="non-finite"):
            classification_metrics(probs, labels)

    @pytest.mark.parametrize("labels, message", [
        ([0.0, 1.0, 0.7], r"^labels, row 2: class label 0\.7 is not an integer$"),
        ([0, 2, 1], r"^labels, row 1: class label 2\.0 not in \[0, 2\)$"),
        ([0, -1, 1], r"^labels, row 1: class label -1\.0 not in \[0, 2\)$"),
        ([0.0, float("nan"), 1.0], r"^labels, row 1: class label nan not in \[0, 2\)$"),
    ], ids=["fractional", "too_large", "negative", "nan"])
    def test_labels_are_refused_not_truncated(self, labels, message):
        # a label that is not a class is refused, not truncated to one
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        with pytest.raises(DataError, match=message):
            classification_metrics(probs, labels)
