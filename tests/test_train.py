import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabmtl.dataset import (
    Dataset, NormalizationStats, OutcomeVector, apply_standardizer, fit_standardizer,
    kfold_split, subset_rows,
)
from tabmtl import train
from tabmtl.errors import ConfigError, NumericalError
from tabmtl.network import (
    HeadSpec, LossWeights, NetworkTopology, init_params, n_parameters, predict,
)
from tabmtl.synth import SynthConfig, generate
from tabmtl.train import (
    FOLD_SEED_STRIDE,
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

    def test_first_batch_fitted_by_chance_is_not_divergence(self):
        # lr0=0, so nothing trains, but the first step's one row sits on the
        # initial model's output: a loss of 8.5e-9 against an epoch mean of
        # 1.04 was called diverged
        dataset, config = fitted_first_row_job()
        result = train_model(dataset, config)
        assert 1.0 < result.final_loss < 1.1
        assert np.array_equal(result.state.params.flat,
                              init_params(config.topology, config.seed).params.flat)

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

    @pytest.mark.parametrize("field, values", [
        ("trunk_depths", (0, -1)), ("head_depths", (-2,)),
        ("trunk_widths", (0,)), ("head_widths", (4, 0)),
    ])
    def test_rejects_negative_depths_and_zero_widths(self, field, values):
        with pytest.raises(ConfigError, match=field):
            self.space(**{field: values})

    def test_grid_keeps_the_nested_order(self):
        space = self.space(trunk_depths=(1, 2), head_depths=(0, 1), lr0_values=(0.1, 0.2),
                           epochs_values=(1, 2), loss_weight_values=(0.5, 1.0))
        nested = [
            (td, tw, hd, hw, lr0, wd, epochs, lam)
            for td in space.trunk_depths for tw in space.trunk_widths
            for hd in space.head_depths for hw in space.head_widths
            for lr0 in space.lr0_values for wd in space.weight_decay_values
            for epochs in space.epochs_values for lam in space.loss_weight_values
        ]
        assert space.grid() == nested
        assert len(space.grid()) == 64
        default = SearchSpace()
        assert len(default.grid()) == 2 * 2 * 3 * 3 * 3 * 4

    def test_grid_axes_are_the_search_space_fields(self):
        space = SearchSpace()
        assert list(train.GRID_AXES) == [f.name for f in fields(SearchSpace)][:8]
        for name, kind in train.GRID_AXES.items():
            assert {type(v) for v in getattr(space, name)} == {kind}

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


# --- stacked training ---------------------------------------------------------

HEAD_KINDS = {
    "three_class": (("classification", 3),),
    "regression_only": (("regression", 1), ("regression", 1)),
    "mixed": (("classification", 2), ("classification", 3), ("regression", 1)),
}


def kinds_dataset(kinds, n, d, seed):
    rng = np.random.default_rng(seed)
    outcomes = tuple(
        OutcomeVector(f"t{j}", kind, rng.integers(0, k, n) if kind == "classification"
                      else rng.normal(size=n), k if kind == "classification" else None)
        for j, (kind, k) in enumerate(kinds)
    )
    return Dataset(rng.normal(size=(n, d)), tuple(f"f{i}" for i in range(d)), outcomes,
                   NormalizationStats.identity(d))


def fitted_first_row_job():
    """21 rows, batches of 1 and lr0=0: the initial model fits the first batch by chance."""
    kinds = HEAD_KINDS["regression_only"]
    topology = NetworkTopology(3, (), tuple(HeadSpec((4, 2), kind, k) for kind, k in kinds))
    config = TrainConfig(topology, loss_weights=LossWeights((1.0, 0.0)), lr0=0.0,
                         epochs=1, batch_size=1, seed=1103)
    return kinds_dataset(kinds, 21, 3, 0), config


def trained_bytes(result):
    """A result's parameters and history, bit for bit."""
    return result.state.params.flat.tobytes(), json.dumps(result.history)


@st.composite
def stack_cases(draw):
    kinds = HEAD_KINDS[draw(st.sampled_from(sorted(HEAD_KINDS)))]
    d = draw(st.integers(1, 5))
    trunk = draw(st.sampled_from([(), (5,), (6, 4, 3)]))
    head = draw(st.sampled_from([(), (3,), (4, 2)]))
    topology = NetworkTopology(d, trunk, tuple(HeadSpec(head, kind, k) for kind, k in kinds))
    n = draw(st.integers(3, 30))
    batch_size = draw(st.integers(1, n + 2))  # often leaves a partial last batch
    epochs = draw(st.integers(1, 3))
    # jobs draw from a pool of tables, so a stack often holds one table more than once
    pool = [kinds_dataset(kinds, n, d, draw(st.integers(0, 2**16)))
            for _ in range(draw(st.integers(1, 3)))]
    jobs = []
    for _ in range(draw(st.integers(2, train.STACK_MODELS))):
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                min_size=len(kinds), max_size=len(kinds))
                       .filter(lambda w: any(v > 0 for v in w)))
        lr0 = draw(st.sampled_from([0.0, 0.01, 0.2]))
        config = TrainConfig(
            topology, loss_weights=LossWeights(weights), lr0=lr0,
            lr_min=draw(st.sampled_from([0.0, lr0 / 10])),
            weight_decay=draw(st.sampled_from([0.0, 0.05])),
            epochs=epochs, batch_size=batch_size, seed=draw(st.integers(0, 2**16)),
        )
        jobs.append((pool[draw(st.integers(0, len(pool) - 1))], config))
    return jobs


class TestStackedTraining:
    @settings(max_examples=60, deadline=None)
    @given(stack_cases())
    @example([fitted_first_row_job(), fitted_first_row_job()])
    def test_stack_equals_each_model_trained_alone(self, jobs):
        # a model that diverges gets, stacked, the error it raises alone
        assert [self.stacked(r) for r in train._train_stack(jobs)] == [
            self.alone(*job) for job in jobs]

    @staticmethod
    def alone(dataset, config):
        try:
            return trained_bytes(train_model(dataset, config))
        except NumericalError as exc:
            return str(exc)

    @staticmethod
    def stacked(result):
        return str(result) if isinstance(result, NumericalError) else trained_bytes(result)

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2)])
    def test_diverging_members_get_their_own_errors(self, order):
        # the second order puts a diverging model first: the healthy ones
        # behind it still train to the end
        topology = small_topology(trunk=(6,), head=(3,))
        dataset = synth_dataset(n=40)
        healthy = TrainConfig(topology, lr0=0.01, epochs=4, batch_size=16, seed=1)
        blows_up = replace(healthy, lr0=1e6, seed=2)  # finite losses, caught at an epoch's end
        overflows = replace(healthy, lr0=1e200, seed=3)  # a non-finite loss, caught at a step
        configs = (healthy, blows_up, overflows, replace(healthy, seed=4))
        jobs = [(dataset, configs[i]) for i in order]
        stacked = train._train_stack(jobs)
        alone = [self.alone(*job) for job in jobs]
        assert sorted(isinstance(m, str) for m in alone) == [False, False, True, True]
        assert any("epoch" in m for m in alone if isinstance(m, str))
        assert any("step" in m for m in alone if isinstance(m, str))
        assert [self.stacked(r) for r in stacked] == alone

    @pytest.mark.parametrize("lr0_values", [(0.01, 1e6), (1e6, 0.01)])
    def test_grid_search_raises_the_error_serial_training_meets_first(self, lr0_values):
        # one topology and one epoch count: the healthy and the diverging trial
        # train in one stack
        dataset = synth_dataset(n=60)
        space = SearchSpace(
            trunk_depths=(1,), trunk_widths=(6,), head_depths=(1,), head_widths=(3,),
            lr0_values=lr0_values, weight_decay_values=(0.0,), epochs_values=(4,),
            loss_weight_values=(1.0,), primary_task="task_a", seed=3,
        )
        with pytest.raises(NumericalError) as raised:
            grid_search(dataset, space, k=3)
        # serially: trial by trial, fold by fold, the first error raised; each
        # fold's training rows are standardized with their own statistics
        plan = kfold_split(dataset.n_rows, 3, space.seed)
        raw = dataset.raw_features()

        def fold_train(f):
            stats = fit_standardizer(raw[plan.train_indices(f)])
            scaled = Dataset(apply_standardizer(raw, stats), dataset.feature_names,
                             dataset.outcomes, stats)
            return subset_rows(scaled, plan.train_indices(f))

        topology = train.build_topology(dataset, (6,), (3,))
        messages = [
            self.alone(fold_train(f),
                       TrainConfig(topology, loss_weights=LossWeights((1.0,) * 3), lr0=lr0,
                                   epochs=4, batch_size=train.SEARCH_BATCH_SIZE,
                                   seed=space.seed * FOLD_SEED_STRIDE + f))
            for lr0 in lr0_values for f in range(3)
        ]
        first = next(m for m in messages if isinstance(m, str))
        assert len(set(m for m in messages if isinstance(m, str))) > 1  # the folds differ
        assert str(raised.value) == first


# the tune benchmark's trunk of 32 (2,181 parameters, stacks of 10) and the
# default SearchSpace's topologies at 15 inputs, down to the two-layer trunk of
# 128 (43,653 parameters), which trains alone
GROUPING_TOPOLOGIES = [small_topology(15, trunk, head) for trunk, head in [
    ((32,), (16,)), ((128, 128), (64,)), ((64,), (64,)), ((128,), (64,)), ((64, 64), (64,)),
]]
GROUPING_DATA = [kinds_dataset((("classification", 2), ("classification", 2), ("regression", 1)),
                               n, 15, 0) for n in (20, 21)]


class TestStackGrouping:
    """Which jobs ``_train_jobs`` trains together, with ``_train_stack`` recording them."""

    @staticmethod
    def stacks_of(specs):
        jobs = [(GROUPING_DATA[data], TrainConfig(GROUPING_TOPOLOGIES[t], epochs=epochs,
                                                  batch_size=batch_size))
                for t, data, batch_size, epochs in specs]
        index = {id(job): i for i, job in enumerate(jobs)}
        stacks = []

        def record(stack_jobs):
            stacks.append([index[id(job)] for job in stack_jobs])
            return list(stack_jobs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train, "_train_stack", record)
            yielded = list(train._train_jobs(jobs))
        assert sorted(i for i, _ in yielded) == list(range(len(jobs)))
        assert all(result is jobs[i] for i, result in yielded)
        return jobs, stacks

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.tuples(st.integers(0, len(GROUPING_TOPOLOGIES) - 1),
                                        st.integers(0, 1), st.sampled_from([32, 64]),
                                        st.integers(1, 2)),
                              st.integers(1, 12)), max_size=8))
    def test_stacks_follow_the_caps(self, runs):
        # runs of like jobs, as a grid search's configs give them, groups interleaved
        jobs, stacks = self.stacks_of([spec for spec, count in runs for _ in range(count)])

        def key(i):
            data, config = jobs[i]
            return config.topology, data.n_rows, config.batch_size, config.epochs

        groups: dict[tuple, list[list[int]]] = {}
        for stack in stacks:
            assert len({key(i) for i in stack}) == 1
            groups.setdefault(key(stack[0]), []).append(stack)
        for (topology, *_), group in groups.items():
            members = [i for stack in group for i in stack]
            assert members == [i for i in range(len(jobs)) if key(i) == key(members[0])]
            cap = min(train.STACK_MODELS, max(1, train.STACK_PARAMS // n_parameters(topology)))
            sizes = [len(stack) for stack in group]
            assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
            assert len(group) == math.ceil(len(members) / cap)

    def test_tune_grid_trains_stacks_of_ten(self):
        _, stacks = self.stacks_of([(0, 0, 64, 10)] * 20 + [(1, 0, 64, 10)] * 2)
        assert stacks == [list(range(10)), list(range(10, 20)), [20], [21]]


class TestCells:
    """``_cross_validate_cells``: several cross-validations trained as one list of jobs."""

    TOPOLOGY_ARGS = ((6,), (3,))

    @staticmethod
    def cell(dataset, config, seed, k=3):
        return train._Cell(dataset, train._folds(dataset, k, seed), config, seed)

    def test_two_cells_report_as_each_alone_and_share_stacks(self):
        dataset = synth_dataset(n=60)
        config = TrainConfig(train.build_topology(dataset, *self.TOPOLOGY_ARGS),
                             epochs=3, batch_size=16)
        stacks, real_stack = [], train._train_stack

        def record(jobs):
            stacks.append([c.seed for _, c in jobs])
            return real_stack(jobs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train, "_train_stack", record)
            reports = train._cross_validate_cells([self.cell(dataset, config, 1),
                                                   self.cell(dataset, config, 2)])
        assert [json.dumps(r.to_dict()) for r in reports] == [
            json.dumps(cross_validate(dataset, config, k=3, seed=s).to_dict()) for s in (1, 2)]
        # the 6 jobs, 40 training rows each, share one stack in cell-then-fold order
        assert stacks == [[s * FOLD_SEED_STRIDE + f for s in (1, 2) for f in range(3)]]

    @staticmethod
    def serial(dataset, config, seed, k=3):
        """Each fold trained alone, in order: its error message, or None if it trains."""
        plan = kfold_split(dataset.n_rows, k, seed)
        raw = dataset.raw_features()
        messages = []
        for f in range(k):
            stats = fit_standardizer(raw[plan.train_indices(f)])
            scaled = Dataset(apply_standardizer(raw, stats), dataset.feature_names,
                             dataset.outcomes, stats)
            try:
                train_model(subset_rows(scaled, plan.train_indices(f)),
                            replace(config, seed=seed * FOLD_SEED_STRIDE + f))
                messages.append(None)
            except NumericalError as exc:
                messages.append(str(exc))
        return messages

    @pytest.mark.parametrize("cells", [
        ("healthy", "diverging"), ("diverging", "healthy"),
        # cross_validate's own case: one cell, its folds in order
        ("diverging",),
        # the third cell stacks with the first, so its error is met before the second's
        ("healthy", "diverging_longer", "diverging"),
    ])
    def test_raises_the_error_serial_training_meets_first(self, cells):
        dataset = synth_dataset(n=60)
        healthy = TrainConfig(train.build_topology(dataset, *self.TOPOLOGY_ARGS),
                              lr0=0.01, epochs=4)
        diverging = replace(healthy, lr0=1e6)
        configs = {"healthy": (healthy, 5), "diverging": (diverging, 3),
                   "diverging_longer": (replace(diverging, epochs=5), 4)}
        messages = [m for name in cells for m in self.serial(dataset, *configs[name])]
        errors = [m for m in messages if m is not None]
        assert len(set(errors)) == len(errors) > 1  # each fold's error is its own
        with pytest.raises(NumericalError) as raised:
            if len(cells) == 1:
                config, seed = configs[cells[0]]
                cross_validate(dataset, config, k=3, seed=seed)
            else:
                train._cross_validate_cells([self.cell(dataset, *configs[name])
                                             for name in cells])
        assert str(raised.value) == errors[0]

    @pytest.mark.parametrize("cells, trained", [
        # the second stack starts after the first one's failure: it cannot hold an earlier one
        (("diverging", "healthy_longer"), 1),
        # the second stack starts before the first one's failure, and holds an earlier one
        (("healthy", "diverging_longer", "diverging"), 2),
    ])
    def test_skips_a_stack_that_starts_after_the_first_failure(self, cells, trained):
        dataset = synth_dataset(n=60)
        healthy = TrainConfig(train.build_topology(dataset, *self.TOPOLOGY_ARGS),
                              lr0=0.01, epochs=4)
        configs = {"healthy": (healthy, 5), "healthy_longer": (replace(healthy, epochs=5), 6),
                   "diverging": (replace(healthy, lr0=1e6), 3),
                   "diverging_longer": (replace(healthy, lr0=1e6, epochs=5), 4)}
        first_error = next(m for name in cells for m in self.serial(dataset, *configs[name])
                           if m is not None)
        stacks, real_stack = [], train._train_stack

        def record(jobs):
            stacks.append([c.seed for _, c in jobs])
            return real_stack(jobs)

        with pytest.MonkeyPatch.context() as patch, pytest.raises(NumericalError) as raised:
            patch.setattr(train, "_train_stack", record)
            train._cross_validate_cells([self.cell(dataset, *configs[name]) for name in cells])
        assert str(raised.value) == first_error
        assert len(stacks) == trained
