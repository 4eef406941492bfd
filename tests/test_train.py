import numpy as np
import pytest

from tabmtl.dataset import Dataset, NormalizationStats, OutcomeVector
from tabmtl import train
from tabmtl.errors import ConfigError, NumericalError
from tabmtl.network import HeadSpec, LossWeights, NetworkTopology, init_params, predict
from tabmtl.synth import SynthConfig, generate
from tabmtl.train import (
    SearchSpace,
    TrainConfig,
    check_compatible,
    cross_validate,
    evaluate,
    grid_search,
    train_model,
)

CLS2 = HeadSpec((), "classification", 2)
REG = HeadSpec((), "regression")


def synth_dataset(n=60, d=8, seed=0, **kw):
    ds, _ = generate(SynthConfig(n_samples=n, n_features=d, n_informative=3,
                                 seed=seed, **kw))
    return ds


def small_topology(d=8, trunk=(8,), head=(4,)):
    heads = (
        HeadSpec(head, "classification", 2),
        HeadSpec(head, "classification", 2),
        HeadSpec(head, "regression"),
    )
    return NetworkTopology(d, trunk, heads)


class TestConfig:
    def test_validation(self):
        topo = small_topology()
        with pytest.raises(ConfigError):
            TrainConfig(topo, epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(topo, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(topo, lr0=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(topo, lr_min=0.2, lr0=0.1)
        with pytest.raises(ConfigError):
            TrainConfig(topo, loss_weights=LossWeights((1.0, 1.0)))

    def test_compatibility_checks(self):
        ds = synth_dataset()
        with pytest.raises(ConfigError, match="features"):
            check_compatible(small_topology(d=9), ds)
        bad_kind = NetworkTopology(8, (), (CLS2, REG, REG))
        with pytest.raises(ConfigError, match="kind"):
            check_compatible(bad_kind, ds)
        bad_k = NetworkTopology(8, (), (HeadSpec((), "classification", 3), CLS2, REG))
        with pytest.raises(ConfigError, match="classes"):
            check_compatible(bad_k, ds)


class TestTrainModel:
    def test_zero_lr_leaves_initial_parameters(self):
        ds = synth_dataset()
        topo = small_topology()
        config = TrainConfig(topo, lr0=0.0, epochs=1, batch_size=16, seed=3)
        result = train_model(ds, config)
        init = init_params(topo, 3)
        for name in init.params:
            assert np.array_equal(result.state.params[name], init.params[name])

    def test_loss_decreases(self):
        ds = synth_dataset(n=80, noise_std=0.2)
        config = TrainConfig(small_topology(), lr0=0.01, epochs=20, batch_size=16)
        result = train_model(ds, config)
        assert result.history[-1]["total_loss"] < 0.5 * result.history[0]["total_loss"]

    def test_history_structure_and_weighting(self):
        ds = synth_dataset(n=30)
        weights = LossWeights((1.0, 0.5, 2.0))
        config = TrainConfig(small_topology(), loss_weights=weights,
                             epochs=3, batch_size=30)
        result = train_model(ds, config)
        assert len(result.history) == 3
        for entry in result.history:
            assert len(entry["task_losses"]) == 3
            expected = sum(w * l for w, l in zip(weights, entry["task_losses"]))
            assert entry["total_loss"] == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self):
        ds = synth_dataset()
        config = TrainConfig(small_topology(), epochs=4, batch_size=16, seed=9)
        a = train_model(ds, config)
        b = train_model(ds, config)
        for name in a.state.params:
            assert np.array_equal(a.state.params[name], b.state.params[name])
        other = TrainConfig(small_topology(), epochs=4, batch_size=16, seed=10)
        c = train_model(ds, other)
        assert any(
            not np.array_equal(a.state.params[n], c.state.params[n])
            for n in a.state.params
        )

    def test_partial_final_batch_handled(self):
        ds = synth_dataset(n=50)
        config = TrainConfig(small_topology(), epochs=2, batch_size=16)
        result = train_model(ds, config)  # 50 = 3*16 + 2
        assert np.all(np.isfinite(result.state.params["trunk.0.W"]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises_numerical_error(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        ds = Dataset(
            x, ("a", "b", "c"),
            (OutcomeVector("y", "regression", x[:, 0]),),
            NormalizationStats.identity(3),
        )
        topo = NetworkTopology(3, (), (REG,))
        config = TrainConfig(topo, lr0=1e200, epochs=3, batch_size=20)
        with pytest.raises(NumericalError):
            train_model(ds, config)

    def test_finite_loss_blowup_is_divergence(self):
        ds = synth_dataset(n=60)
        config = TrainConfig(small_topology(), lr0=1e6, epochs=5, batch_size=16)
        with pytest.raises(NumericalError, match="epoch"):
            train_model(ds, config)
        # a large but recovering step size stays under the bound
        ds = synth_dataset(n=400, d=15)
        result = train_model(ds, TrainConfig(small_topology(d=15, trunk=(64,), head=(32,)),
                                             lr0=1.0, epochs=5))
        assert np.isfinite(result.final_loss)

    def test_rejects_missing_features(self):
        ds, _ = generate(SynthConfig(n_samples=30, missing_frac=0.1, seed=0))
        config = TrainConfig(small_topology(d=30, trunk=(4,)), epochs=1)
        with pytest.raises(Exception, match="missing"):
            train_model(ds, config)

    def test_evaluate_shapes(self):
        ds = synth_dataset()
        config = TrainConfig(small_topology(), epochs=2, batch_size=16)
        result = train_model(ds, config)
        ev = evaluate(result.state, ds)
        assert set(ev["tasks"]) == {"task_a", "task_b", "task_c"}
        assert set(ev["tasks"]["task_a"]) == {"f1", "auc"}
        assert set(ev["tasks"]["task_c"]) == {"mse"}


class TestCrossValidate:
    def cv(self, **kw):
        ds = synth_dataset(n=60)
        config = TrainConfig(small_topology(trunk=(6,), head=()),
                             epochs=2, batch_size=16)
        return ds, cross_validate(ds, config, k=4, seed=1, **kw)

    def test_folds_partition_rows(self):
        ds, report = self.cv()
        assert report.k == 4
        covered = sorted(i for f in report.folds for i in f["test_indices"])
        assert covered == list(range(ds.n_rows))

    def test_aggregates_match_fold_values(self):
        _, report = self.cv()
        for name in report.task_names:
            for metric, agg in report.aggregates[name].items():
                values = [f["tasks"][name][metric] for f in report.folds
                          if f["tasks"][name][metric] is not None]
                assert agg["mean"] == pytest.approx(np.mean(values))
                assert agg["std"] == pytest.approx(np.std(values))
                assert agg["n_folds"] == len(values)

    def test_pooled_mse_equals_fold_mean_for_equal_folds(self):
        # 60 rows over 4 folds: every fold has 15 rows, so pooling and
        # averaging coincide for row-mean metrics
        _, report = self.cv()
        fold_mse = [f["tasks"]["task_c"]["mse"] for f in report.folds]
        assert report.pooled["task_c"]["mse"] == pytest.approx(np.mean(fold_mse), rel=1e-12)

    def test_one_prediction_per_fold(self, monkeypatch):
        calls = []
        monkeypatch.setattr(train, "predict", lambda *a: calls.append(1) or predict(*a))
        self.cv()
        assert len(calls) == 4

    def test_deterministic_rerun(self):
        _, a = self.cv()
        _, b = self.cv()
        assert a.to_dict() == b.to_dict()

    def test_heldout_row_does_not_touch_fold_stats(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        z = rng.normal(size=40)

        def build(features):
            return Dataset(
                features, tuple(f"f{i}" for i in range(5)),
                (OutcomeVector("c", "classification", y, 2),
                 OutcomeVector("r", "regression", z)),
                NormalizationStats.identity(5),
            )

        topo = NetworkTopology(5, (4,), (CLS2, REG))
        config = TrainConfig(topo, epochs=1, batch_size=20)
        base = cross_validate(build(x), config, k=4, seed=2)
        # poke one row, find a fold holding it out, compare that fold's stats
        row = int(base.folds[0]["test_indices"][0])
        perturbed = x.copy()
        perturbed[row] += 100.0
        alt = cross_validate(build(perturbed), config, k=4, seed=2)
        assert alt.folds[0]["test_indices"] == base.folds[0]["test_indices"]
        assert alt.folds[0]["normalization_stats"] == base.folds[0]["normalization_stats"]
        # sanity: folds that trained on the row do see different stats
        assert any(
            alt.folds[f]["normalization_stats"] != base.folds[f]["normalization_stats"]
            for f in range(1, 4)
        )

    def test_leaky_stats_keeps_global_normalization(self):
        ds = synth_dataset(n=40)
        config = TrainConfig(small_topology(trunk=(4,), head=()), epochs=1, batch_size=20)
        report = cross_validate(ds, config, k=4, seed=0, leaky_stats=True)
        global_stats = {
            "mean": ds.normalization_stats.mean.tolist(),
            "std": ds.normalization_stats.std.tolist(),
        }
        for fold in report.folds:
            assert fold["normalization_stats"] == global_stats

    def test_render_table_shape(self):
        _, report = self.cv()
        table = report.render_table()
        lines = table.splitlines()
        # header + (f1, auc) per binary task + mse for the regression task
        assert len(lines) == 1 + 2 + 2 + 1
        assert "task_a" in table and "mse" in table

    def test_to_dict_json_safe(self):
        import json

        _, report = self.cv()
        json.dumps(report.to_dict())


class TestGridSearch:
    def space(self, **kw):
        defaults = dict(
            trunk_depths=(1,), trunk_widths=(4, 8),
            head_depths=(1,), head_widths=(4,),
            lr0_values=(0.01,), weight_decay_values=(0.001,),
            epochs_values=(2,), loss_weight_values=(1.0,),
            primary_task="task_a", seed=0,
        )
        defaults.update(kw)
        return SearchSpace(**defaults)

    def test_enumerates_full_grid(self):
        ds = synth_dataset(n=40)
        result = grid_search(ds, self.space(), k=3)
        assert len(result.trials) == 2
        assert result.best_score == max(t["score"] for t in result.trials)
        assert result.best_params in [t["params"] for t in result.trials]

    def test_budget_subsamples_deterministically(self):
        ds = synth_dataset(n=40)
        space = self.space(trunk_widths=(4, 8, 12), loss_weight_values=(0.5, 1.0),
                           budget=3)
        a = grid_search(ds, space, k=3)
        b = grid_search(ds, space, k=3)
        assert len(a.trials) == 3
        indices = [t["trial"] for t in a.trials]
        assert indices == sorted(indices)
        assert [t["trial"] for t in b.trials] == indices

    def test_primary_weight_pinned_to_one(self):
        ds = synth_dataset(n=40)
        space = self.space(loss_weight_values=(0.25,), primary_task="task_b")
        result = grid_search(ds, space, k=3)
        weights = result.trials[0]["params"]["loss_weights"]
        assert weights == [0.25, 1.0, 0.25]

    def test_regression_primary_uses_negative_mse(self):
        ds = synth_dataset(n=40)
        result = grid_search(ds, self.space(primary_task="task_c"), k=3)
        for trial in result.trials:
            mse = trial["aggregates"]["task_c"]["mse"]["mean"]
            assert trial["score"] == pytest.approx(-mse)

    def test_unknown_primary_rejected(self):
        ds = synth_dataset(n=40)
        with pytest.raises(ConfigError):
            grid_search(ds, self.space(primary_task="nope"), k=3)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigError):
            self.space(lr0_values=())
