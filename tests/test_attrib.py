import json

import numpy as np
import pytest

from tabmtl.attrib import AttributionReport, grad_cam_features, top_k
from tabmtl.dataset import Dataset, NormalizationStats, OutcomeVector
from tabmtl.errors import ConfigError
from tabmtl.network import HeadSpec, ModelState, NetworkTopology, init_params, input_gradients
from tabmtl.synth import SynthConfig, generate
from tabmtl.train import TrainConfig, evaluate, train_model


def linear_cls_state(weights):
    """No trunk, no hidden layers: logits = x @ W + b."""
    w = np.asarray(weights, dtype=np.float64)
    topo = NetworkTopology(w.shape[0], (), (HeadSpec((), "classification", w.shape[1]),))
    return ModelState(topo, {
        "head.0.0.W": w,
        "head.0.0.b": np.zeros(w.shape[1]),
    })


def single_cls_dataset(x):
    n, d = x.shape
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    return Dataset(
        x, tuple(f"f{i}" for i in range(d)),
        (OutcomeVector("y", "classification", labels, 2),),
        NormalizationStats.identity(d),
    )


class TestLinearModels:
    def test_scores_equal_absolute_weights(self):
        w = np.array([[0.2, -1.5], [0.0, 0.75], [1.0, -0.25]])
        state = linear_cls_state(w)
        x = np.random.default_rng(0).normal(size=(30, 3))
        report = grad_cam_features(state, single_cls_dataset(x), target_class=1)
        assert np.allclose(report.scores, np.abs(w[:, 1]), atol=1e-12)

    def test_default_target_is_positive_class(self):
        w = np.array([[0.2, -1.5], [0.0, 0.75], [1.0, -0.25]])
        state = linear_cls_state(w)
        ds = single_cls_dataset(np.random.default_rng(1).normal(size=(10, 3)))
        default = grad_cam_features(state, ds)
        explicit = grad_cam_features(state, ds, target_class=1)
        assert default.target == 1
        assert np.array_equal(default.scores, explicit.scores)
        other = grad_cam_features(state, ds, target_class=0)
        assert not np.allclose(other.scores, default.scores)

    def test_ties_rank_by_feature_order(self):
        w = np.array([[0.5, 0.5], [-0.5, -0.5], [0.5, 0.5]])
        state = linear_cls_state(np.column_stack([w[:, 0], w[:, 1]]))
        ds = single_cls_dataset(np.random.default_rng(2).normal(size=(8, 3)))
        report = grad_cam_features(state, ds, target_class=1)
        assert np.allclose(report.scores, 0.5)
        assert report.ranking() == [0, 1, 2]


class TestValidation:
    def test_regression_rejects_target_class(self):
        topo = NetworkTopology(3, (), (HeadSpec((), "regression"),))
        state = init_params(topo, 0)
        ds = Dataset(
            np.zeros((4, 3)) + np.arange(3), ("a", "b", "c"),
            (OutcomeVector("y", "regression", np.arange(4.0)),),
            NormalizationStats.identity(3),
        )
        with pytest.raises(ConfigError):
            grad_cam_features(state, ds, target_class=1)

    def test_target_class_range_checked(self):
        state = linear_cls_state(np.zeros((3, 2)))
        ds = single_cls_dataset(np.ones((4, 3)))
        with pytest.raises(ConfigError):
            grad_cam_features(state, ds, target_class=2)

    @staticmethod
    def two_head_case():
        topo = NetworkTopology(3, (4,), (HeadSpec((), "classification", 2),) * 2)
        labels = np.array([0, 1, 0, 1])
        ds = Dataset(
            np.random.default_rng(3).normal(size=(4, 3)), ("a", "b", "c"),
            (OutcomeVector("y", "classification", labels, 2),
             OutcomeVector("z", "classification", labels, 2)),
            NormalizationStats.identity(3),
        )
        return init_params(topo, 0), ds

    @pytest.mark.parametrize("call", [
        lambda state, ds, **kw: input_gradients(state, ds.features, **kw), grad_cam_features,
    ], ids=["input_gradients", "grad_cam_features"])
    @pytest.mark.parametrize("field", ["task_index", "target_class"])
    @pytest.mark.parametrize("value", [1.5, True, 0.0])
    def test_a_non_integer_index_is_refused(self, call, field, value):
        # a bool is refused too: as an index, True selects every class's logit
        state, ds = self.two_head_case()
        kwargs = {"task_index": 1, "target_class": 1, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            call(state, ds, **kwargs)

    def test_numpy_integers_are_accepted(self):
        state, ds = self.two_head_case()
        report = grad_cam_features(state, ds, np.int64(1), np.int64(0))
        assert np.array_equal(report.scores, grad_cam_features(state, ds, 1, 0).scores)
        assert json.loads(json.dumps(report.to_dict()))["target"] == 0

    def test_feature_count_mismatch(self):
        state = linear_cls_state(np.zeros((4, 2)))
        ds = single_cls_dataset(np.ones((4, 3)))
        with pytest.raises(ConfigError):
            grad_cam_features(state, ds)

    def test_top_k_bounds(self):
        report = AttributionReport("t", 1, ("a", "b"), np.array([0.5, 0.1]), 4)
        with pytest.raises(ConfigError):
            top_k(report, 0)
        with pytest.raises(ConfigError):
            top_k(report, 3)
        assert top_k(report, 1) == [("a", 0.5)]


class TestReport:
    def test_to_dict_and_text(self):
        report = AttributionReport("task_a", 1, ("x1", "x2", "x3"),
                                   np.array([0.1, 0.9, 0.5]), 20)
        d = report.to_dict()
        assert d["ranking"] == [1, 2, 0]
        assert d["n_samples"] == 20
        assert d["mode"] == "input_gradient"
        text = report.render_text(2)
        assert "x2" in text and "x1" not in text
        assert text.splitlines()[1].startswith("- x2")


class TestTrainedModel:
    def test_informative_features_dominate(self):
        # 3 informative out of 12; trained model should put them on top
        cfg = SynthConfig(n_samples=400, n_features=12, n_informative=3,
                          rho=0.5, noise_std=0.1, seed=5)
        ds, truth = generate(cfg)
        heads = (
            HeadSpec((8,), "classification", 2),
            HeadSpec((8,), "classification", 2),
            HeadSpec((8,), "regression"),
        )
        topo = NetworkTopology(12, (16,), heads)
        config = TrainConfig(topo, lr0=0.01, epochs=40, batch_size=64, seed=0)
        result = train_model(ds, config)
        assert evaluate(result.state, ds)["tasks"]["task_a"]["auc"] > 0.9
        for task_index in range(3):
            report = grad_cam_features(result.state, ds, task_index=task_index)
            assert set(report.ranking()[:3]) == set(truth.informative_indices), task_index

    def test_permutation_layer_leaves_scores_unchanged(self):
        # relu(relu(z) @ P) = relu(z) @ P, and (h @ P) @ (P.T @ W) = h @ W: a
        # permutation layer on top of the trunk changes neither the outputs
        # nor any attribution, so every trunk layer must be walked back
        ds, _ = generate(SynthConfig(n_samples=50, n_features=6, n_informative=3, seed=8))
        heads = (
            HeadSpec((4,), "classification", 2),
            HeadSpec((), "classification", 2),
            HeadSpec((3,), "regression"),
        )
        state = init_params(NetworkTopology(6, (5,), heads), 3)
        perm = np.eye(5)[[3, 0, 4, 1, 2]]
        params = dict(state.params, **{"trunk.1.W": perm, "trunk.1.b": np.zeros(5)})
        for j in range(3):
            params[f"head.{j}.0.W"] = perm.T @ state.params[f"head.{j}.0.W"]
        permuted = ModelState(NetworkTopology(6, (5, 5), heads), params)
        for task_index in range(3):
            base = grad_cam_features(state, ds, task_index=task_index)
            other = grad_cam_features(permuted, ds, task_index=task_index)
            np.testing.assert_allclose(other.scores, base.scores, rtol=0, atol=1e-12)
