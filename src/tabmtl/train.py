"""Training loop, k-fold cross-validation, and grid search.

Single-task learning is the one-head special case of the same machinery; the
multi-task/single-task comparisons in the demos and tests all route through
``train_model`` and ``cross_validate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (
    CLASSIFICATION,
    Dataset,
    FoldPlan,
    OutcomeVector,
    apply_standardizer,
    fit_standardizer,
    kfold_split,
    subset_rows,
)
from .errors import ConfigError, NumericalError
from .metrics import classification_metrics, mse_metric
from .network import (
    HeadSpec,
    LossWeights,
    ModelState,
    NetworkTopology,
    as_loss_weights,
    backward,
    forward,
    init_params,
    loss_mtl,
    n_parameters,
    predict,
    task_loss,
)
from .optim import ScheduleConfig, adam_step, cosine_lr, init_adam

# fold f of a run seeded s trains with this derived seed, so folds differ
# from each other but stay reproducible across runs
FOLD_SEED_STRIDE = 1000003
SEARCH_BATCH_SIZE = 64
# an epoch whose mean loss exceeds this multiple of the first step's loss has diverged
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class TrainConfig:
    topology: NetworkTopology
    loss_weights: LossWeights | None = None
    lr0: float = 1e-2
    lr_min: float = 0.0
    weight_decay: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 < 0.0:
            raise ConfigError(f"lr0 must be >= 0, got {self.lr0}")
        if not 0.0 <= self.lr_min <= max(self.lr0, 0.0):
            raise ConfigError(f"lr_min must be in [0, lr0], got {self.lr_min}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.loss_weights is not None:
            weights = as_loss_weights(self.loss_weights)
            if len(weights) != self.topology.num_tasks:
                raise ConfigError(
                    f"{len(weights)} loss weights for {self.topology.num_tasks} tasks"
                )
            object.__setattr__(self, "loss_weights", weights)

    def resolved_weights(self) -> LossWeights:
        if self.loss_weights is not None:
            return self.loss_weights
        return LossWeights((1.0,) * self.topology.num_tasks)


def check_compatible(topology: NetworkTopology, dataset: Dataset) -> None:
    if topology.input_dim != dataset.n_features:
        raise ConfigError(
            f"topology expects {topology.input_dim} features, dataset has {dataset.n_features}"
        )
    if topology.num_tasks != dataset.n_tasks:
        raise ConfigError(
            f"topology has {topology.num_tasks} heads, dataset has {dataset.n_tasks} tasks"
        )
    for head, outcome in zip(topology.heads, dataset.outcomes):
        if head.kind != outcome.kind:
            raise ConfigError(
                f"task {outcome.task_name!r}: head kind {head.kind!r} "
                f"does not match outcome kind {outcome.kind!r}"
            )
        if head.kind == CLASSIFICATION and head.num_classes != outcome.num_classes:
            raise ConfigError(
                f"task {outcome.task_name!r}: head has {head.num_classes} classes, "
                f"outcome declares {outcome.num_classes}"
            )


@dataclass
class TrainResult:
    state: ModelState
    history: list[dict]

    @property
    def final_loss(self) -> float:
        return self.history[-1]["total_loss"]


def train_model(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Minibatch Adam training with a cosine learning-rate schedule.

    Rows are reshuffled every epoch with the config seed's PRNG; the final
    partial batch of an epoch is kept at its true size. History records one
    entry per epoch with the sample-weighted mean total loss and per-task
    losses.

    Raises NumericalError naming the step if a batch loss is non-finite, and
    naming the epoch if at its end any parameter is non-finite or the
    epoch's mean total loss exceeds ``DIVERGENCE_FACTOR`` (1e6) times the
    loss of the first step.
    """
    dataset.require_complete()
    check_compatible(config.topology, dataset)
    weights = config.resolved_weights()
    n = dataset.n_rows
    steps_per_epoch = math.ceil(n / config.batch_size)
    schedule = ScheduleConfig(config.lr0, config.lr_min, config.epochs * steps_per_epoch)

    state = init_params(config.topology, config.seed)
    adam = init_adam(state)
    shuffle_rng = np.random.default_rng(config.seed)
    targets = [o.values for o in dataset.outcomes]

    history = []
    step = 0
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        task_sums = np.zeros(dataset.n_tasks)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = dataset.features[idx]
            batch_targets = [t[idx] for t in targets]
            predictions, cache = forward(state, batch)
            task_losses = [
                task_loss(head, pred, tgt)
                for head, pred, tgt in zip(config.topology.heads, predictions, batch_targets)
            ]
            total = loss_mtl(task_losses, weights)
            if not np.isfinite(total):
                raise NumericalError(
                    f"non-finite training loss at step {step} (epoch {epoch})"
                )
            if step == 0:
                first_loss = total
            grads = backward(state, cache, batch_targets, weights)
            lr = cosine_lr(step, schedule)
            state, adam = adam_step(state, grads, adam, lr, config.weight_decay)
            step += 1
            loss_sum += total * len(idx)
            task_sums += np.array(task_losses) * len(idx)
        mean_loss = loss_sum / n
        if not np.all(np.isfinite(state.params.flat)):
            raise NumericalError(f"training diverged: non-finite parameters after epoch {epoch}")
        if mean_loss > DIVERGENCE_FACTOR * first_loss:
            raise NumericalError(
                f"training diverged: epoch {epoch} mean loss {mean_loss:.6g} exceeds "
                f"{DIVERGENCE_FACTOR:g} x the first step's loss {first_loss:.6g}"
            )
        history.append(
            {
                "epoch": epoch,
                "total_loss": mean_loss,
                "task_losses": (task_sums / n).tolist(),
            }
        )
    return TrainResult(state, history)


def _task_metrics(
    predictions: list[np.ndarray], outcomes: tuple[OutcomeVector, ...]
) -> dict[str, dict]:
    """Per-task metrics: f1/auc for classification heads, mse for regression."""
    return {
        o.task_name: classification_metrics(pred, o.values) if o.kind == CLASSIFICATION
        else {"mse": mse_metric(pred, o.values)}
        for pred, o in zip(predictions, outcomes)
    }


def evaluate(state: ModelState, dataset: Dataset) -> dict:
    """Per-task metrics: f1/auc for classification heads, mse for regression."""
    dataset.require_complete()
    check_compatible(state.topology, dataset)
    return {"tasks": _task_metrics(predict(state, dataset.features), dataset.outcomes)}


def _mean_std(values: list[float]) -> dict:
    """Fold-aggregate mean and population std, skipping undefined (None) entries."""
    defined = [v for v in values if v is not None]
    if not defined:
        return {"mean": None, "std": None, "n_folds": 0}
    arr = np.asarray(defined, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "n_folds": len(defined),
    }


@dataclass
class CvReport:
    """Per-fold metrics plus fold-averaged and pooled aggregates.

    ``aggregates`` averages each metric over the folds where it is defined
    (AUC is undefined on a single-class fold and skipped). ``pooled``
    recomputes each metric once over the concatenated out-of-fold
    predictions. Fold-averaged values are the headline numbers; pooled ones
    are reported alongside for sanity checks.
    """

    k: int
    seed: int
    task_names: tuple[str, ...]
    folds: list[dict]
    aggregates: dict
    pooled: dict

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "task_names": list(self.task_names),
            "folds": self.folds,
            "aggregates": self.aggregates,
            "pooled": self.pooled,
        }

    def render_table(self) -> str:
        def fmt(v) -> str:
            return "n/a" if v is None else f"{v:.6f}"

        lines = [f"{'task':<12}{'metric':<8}{'mean':>12}{'std':>12}{'pooled':>12}"]
        for name in self.task_names:
            for metric, agg in self.aggregates[name].items():
                pooled = self.pooled[name].get(metric)
                lines.append(
                    f"{name:<12}{metric:<8}{fmt(agg['mean']):>12}"
                    f"{fmt(agg['std']):>12}{fmt(pooled):>12}"
                )
        return "\n".join(lines)


def _run_fold(
    dataset: Dataset,
    config: TrainConfig,
    plan: FoldPlan,
    fold: int,
    seed: int,
    leaky_stats: bool,
) -> dict:
    train_idx = plan.train_indices(fold)
    test_idx = plan.test_indices(fold)
    if leaky_stats:
        stats = dataset.normalization_stats
        features = dataset.features
    else:
        # refit normalization on the training rows only, so nothing about the
        # held-out rows leaks into the transform
        raw = dataset.raw_features()
        stats = fit_standardizer(raw[train_idx])
        features = apply_standardizer(raw, stats)
    fold_dataset = Dataset(features, dataset.feature_names, dataset.outcomes, stats)
    fold_config = replace(config, seed=seed * FOLD_SEED_STRIDE + fold)
    result = train_model(subset_rows(fold_dataset, train_idx), fold_config)
    test_set = subset_rows(fold_dataset, test_idx)
    predictions = predict(result.state, test_set.features)
    return {
        "fold": fold,
        "test_indices": test_idx,
        "stats": stats,
        "tasks": _task_metrics(predictions, test_set.outcomes),
        "predictions": predictions,
        "final_loss": result.final_loss,
    }


def cross_validate(
    dataset: Dataset,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    leaky_stats: bool = False,
) -> CvReport:
    """Seeded k-fold evaluation of one configuration.

    Fold f trains with seed ``seed * 1000003 + f`` on the other folds'
    rows. By default per-fold normalization statistics are refit on the
    training rows only; ``leaky_stats=True`` keeps the dataset's whole-table
    statistics (the shortcut a leakage audit should flag).
    """
    dataset.require_complete()
    check_compatible(config.topology, dataset)
    plan = kfold_split(dataset.n_rows, k, seed)
    raw_folds = [_run_fold(dataset, config, plan, f, seed, leaky_stats) for f in range(k)]

    task_names = dataset.task_names()
    folds = []
    for rf in raw_folds:
        folds.append(
            {
                "fold": rf["fold"],
                "test_indices": rf["test_indices"].tolist(),
                "normalization_stats": rf["stats"].to_dict(),
                "final_train_loss": rf["final_loss"],
                "tasks": rf["tasks"],
            }
        )

    aggregates: dict[str, dict] = {}
    for name in task_names:
        metric_names = folds[0]["tasks"][name].keys()
        aggregates[name] = {
            m: _mean_std([f["tasks"][name][m] for f in folds]) for m in metric_names
        }

    # pooled: every row scored exactly once by the model that did not see it
    order = np.concatenate([rf["test_indices"] for rf in raw_folds])
    inverse = np.argsort(order)
    pooled = _task_metrics(
        [np.concatenate([rf["predictions"][j] for rf in raw_folds])[inverse]
         for j in range(dataset.n_tasks)],
        dataset.outcomes,
    )

    return CvReport(k, seed, task_names, folds, aggregates, pooled)


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian hyperparameter grid for ``grid_search``.

    Every trunk is ``trunk_depth`` layers of ``trunk_width`` units; every
    head is ``head_depth`` hidden layers of ``head_width`` units (all heads
    alike). ``loss_weight_values`` are candidate weights applied to every
    non-primary task while the primary task stays at 1. Batch size is fixed
    at ``SEARCH_BATCH_SIZE`` (64) and the schedule always decays to lr_min = 0.
    """

    trunk_depths: tuple[int, ...] = (1, 2)
    trunk_widths: tuple[int, ...] = (64, 128)
    head_depths: tuple[int, ...] = (1,)
    head_widths: tuple[int, ...] = (64,)
    lr0_values: tuple[float, ...] = (5e-3, 1e-2, 2e-2)
    weight_decay_values: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    epochs_values: tuple[int, ...] = (20, 50, 100)
    loss_weight_values: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    primary_task: str = ""
    budget: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in (
            "trunk_depths", "trunk_widths", "head_depths", "head_widths",
            "lr0_values", "weight_decay_values", "epochs_values", "loss_weight_values",
        ):
            values = tuple(getattr(self, name))
            if not values:
                raise ConfigError(f"search space field {name} must be non-empty")
            object.__setattr__(self, name, values)
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")

    def n_combinations(self) -> int:
        return (
            len(self.trunk_depths) * len(self.trunk_widths)
            * len(self.head_depths) * len(self.head_widths)
            * len(self.lr0_values) * len(self.weight_decay_values)
            * len(self.epochs_values) * len(self.loss_weight_values)
        )


@dataclass
class GridSearchResult:
    best_params: dict
    best_score: float | None
    best_report: CvReport
    trials: list[dict]

    def to_dict(self) -> dict:
        return {
            "best_params": self.best_params,
            "best_score": self.best_score,
            "best_report": self.best_report.to_dict(),
            "trials": self.trials,
        }


def build_topology(
    dataset: Dataset, trunk: tuple[int, ...], head_hidden: tuple[int, ...]
) -> NetworkTopology:
    """A shared ``trunk``, then one head per outcome with hidden widths ``head_hidden``."""
    heads = tuple(
        HeadSpec(head_hidden, o.kind, o.num_classes if o.num_classes else 1)
        for o in dataset.outcomes
    )
    return NetworkTopology(dataset.n_features, trunk, heads)


def grid_search(
    dataset: Dataset,
    space: SearchSpace,
    k: int = 5,
    leaky_stats: bool = False,
) -> GridSearchResult:
    """Exhaustive (or budget-capped) search over the grid, scored by CV.

    Combinations enumerate in a fixed nested order (trunk depth, trunk
    width, head depth, head width, lr0, weight decay, epochs, loss weight).
    A budget below the grid size selects that many combinations without
    replacement using the space's seed, keeping enumeration order. The
    selection metric is the primary task's fold-averaged AUC (classification)
    or negated MSE (regression); ties prefer fewer parameters, then the
    earlier combination.
    """
    if not space.primary_task:
        raise ConfigError("search space needs a primary_task name")
    primary = dataset.outcome_by_name(space.primary_task)
    primary_index = dataset.task_names().index(space.primary_task)

    combos = list(
        itertools.product(
            space.trunk_depths, space.trunk_widths,
            space.head_depths, space.head_widths,
            space.lr0_values, space.weight_decay_values,
            space.epochs_values, space.loss_weight_values,
        )
    )
    indices = list(range(len(combos)))
    if space.budget is not None and space.budget < len(combos):
        rng = np.random.default_rng(space.seed)
        chosen = rng.choice(len(combos), size=space.budget, replace=False)
        indices = sorted(int(i) for i in chosen)

    trials = []
    best = None  # (score, n_params, enum_index, report, params)
    for enum_index in indices:
        td, tw, hd, hw, lr0, wd, epochs, lam = combos[enum_index]
        topology = build_topology(dataset, (tw,) * td, (hw,) * hd)
        weights = tuple(
            1.0 if j == primary_index else lam for j in range(dataset.n_tasks)
        )
        config = TrainConfig(
            topology,
            loss_weights=LossWeights(weights),
            lr0=lr0,
            weight_decay=wd,
            epochs=epochs,
            batch_size=SEARCH_BATCH_SIZE,
            seed=space.seed,
        )
        report = cross_validate(dataset, config, k, seed=space.seed, leaky_stats=leaky_stats)
        agg = report.aggregates[space.primary_task]
        if primary.kind == CLASSIFICATION:
            mean_auc = agg["auc"]["mean"]
            score = -math.inf if mean_auc is None else mean_auc
        else:
            score = -agg["mse"]["mean"]
        if not np.isfinite(score):
            score = -math.inf
        params = {
            "trunk_layers": [tw] * td,
            "head_layers": [hw] * hd,
            "lr0": lr0,
            "weight_decay": wd,
            "epochs": epochs,
            "secondary_loss_weight": lam,
            "loss_weights": list(weights),
        }
        trials.append({
            "trial": enum_index,
            "params": params,
            "score": score if math.isfinite(score) else None,
            "aggregates": report.aggregates,
        })
        key = (score, -n_parameters(topology), -enum_index)
        if best is None or key > best[0]:
            best = (key, params, report)

    (best_score, _, _), best_params, best_report = best
    if not math.isfinite(best_score):
        best_score = None
    return GridSearchResult(best_params, best_score, best_report, trials)
