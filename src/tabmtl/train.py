"""Training loop, k-fold cross-validation, and grid search.

Single-task learning is the one-head special case of the same machinery; the
multi-task/single-task comparisons in the demos and tests all route through
``train_model`` and ``cross_validate``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import (
    CLASSIFICATION,
    Dataset,
    OutcomeVector,
    as_int,
    as_real,
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
    ParamVector,
    backward_pass,
    batch_losses,
    forward_pass,
    init_params,
    n_parameters,
    predict,
)
from .optim import AdamState, ScheduleConfig, adam_update, cosine_lr

# fold f of a run seeded s trains with this derived seed, so folds differ
# from each other but stay reproducible across runs
FOLD_SEED_STRIDE = 1000003
SEARCH_BATCH_SIZE = 64
# an epoch whose mean loss exceeds DIVERGENCE_FACTOR x the first step's loss, or
# x DIVERGENCE_FLOOR if that is larger, has diverged. The floor is about an
# untrained classification head's loss: a first batch the initial model
# happens to fit (one row can be) must not make an ordinary epoch look diverged
DIVERGENCE_FACTOR = 1e6
DIVERGENCE_FLOOR = 1.0
# a training stack holds at most STACK_MODELS models and STACK_PARAMS
# parameters summed over them (measured with one BLAS thread, batches of 64
# rows and 15 inputs). A stack step has a fixed cost that its models share:
# training the tune benchmark's 40 jobs (1,157 and 2,181 parameters) took
# a median 720, 1,240 and 2,570 us per stack step at stacks of 5, 10 and 20,
# or 144, 124 and 128 us per model-step. But every model of a stack adds
# its activations to the working set: that benchmark's peak RSS read 48.0,
# 48.2 and 50.8 MB at caps of 5, 10 and 20, and its op read no faster at 20.
# Models of 14k-27k parameters (three of the default SearchSpace's four
# topologies) ran 1.1-1.5x faster in stacks of up to 65k parameters; at 44k
# parameters a stack of 2 ran 0.97-1.01x and larger ones 0.82-0.93x, so
# models of more than 32k parameters train alone.
STACK_MODELS = 10
STACK_PARAMS = 1 << 16
# the search grid's axes and each one's value type, in enumeration order
GRID_AXES = {
    "trunk_depths": int, "trunk_widths": int, "head_depths": int, "head_widths": int,
    "lr0_values": float, "weight_decay_values": float, "epochs_values": int,
    "loss_weight_values": float,
}


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings; ``loss_weights`` becomes a LossWeights, all ones if None."""

    topology: NetworkTopology
    loss_weights: LossWeights | None = None
    lr0: float = 1e-2
    lr_min: float = 0.0
    weight_decay: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, least))
        ScheduleConfig(self.lr0, self.lr_min, 1)  # refuses a bad lr0 or lr_min
        object.__setattr__(self, "weight_decay", as_real(self.weight_decay, "weight_decay", 0))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))
        n_tasks = self.topology.num_tasks
        weights = LossWeights((1.0,) * n_tasks if self.loss_weights is None else self.loss_weights)
        if len(weights) != n_tasks:
            raise ConfigError(f"{len(weights)} loss weights for {n_tasks} tasks")
        object.__setattr__(self, "loss_weights", weights)


def check_compatible(topology: NetworkTopology, dataset: Dataset) -> None:
    """Refuse, as ConfigError or DataError, a dataset with missing features or one the
    topology does not fit: its feature count, task count, head kinds and class counts."""
    dataset.require_complete()
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
    loss of the first step, or times ``DIVERGENCE_FLOOR`` (1) if that is
    larger.
    """
    check_compatible(config.topology, dataset)
    ((_, result),) = _train_jobs([(dataset, config)])
    return result


def _train_stack(jobs: list[tuple[Dataset, TrainConfig]]) -> list[TrainResult | NumericalError]:
    """Train the jobs' models in lockstep, as one stack, exactly as ``train_model`` would alone.

    The jobs share a topology, a row count, a batch size and epochs, so every
    step takes a batch of the same size from each. Each model keeps its own
    seed (initial weights and shuffle stream), schedule, weight decay and
    loss weights, and its result is bitwise the one it gets alone. A model
    that diverges gets, in place of a result, the NumericalError it would
    raise alone; its parameters are then zeroed and its learning rate set to
    0, so it runs on without overflow while the others finish.
    """
    datasets, configs = zip(*jobs)
    topology, batch_size, epochs = configs[0].topology, configs[0].batch_size, configs[0].epochs
    n, n_models, n_tasks = datasets[0].n_rows, len(jobs), datasets[0].n_tasks
    total_steps = epochs * math.ceil(n / batch_size)
    try:  # each model's learning rate at each step, allocated before a step is taken
        lr = np.empty((n_models, total_steps))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest shape
        raise ConfigError(f"cannot allocate the {total_steps}-step learning-rate schedule "
                          f"({exc}); lower --epochs or --epochs-values") from None
    for row, c in zip(lr, configs):
        schedule = ScheduleConfig(c.lr0, c.lr_min, total_steps)
        row[:] = [cosine_lr(t, schedule) for t in range(total_steps)]
    weight_decay = np.array([c.weight_decay for c in configs])
    lam = np.array([c.loss_weights.values for c in configs])

    # the loop owns all its storage: each row of these is one model's flat vector
    layout = topology.param_layout
    params = np.stack([init_params(topology, c.seed).params.flat for c in configs])
    grads, scratch = np.empty_like(params), np.empty_like(params)
    adam = AdamState(0, ParamVector(layout, np.zeros_like(params)),
                     ParamVector(layout, np.zeros_like(params)))
    param_views, grad_views = layout.views(params), layout.views(grads)
    shuffle_rngs = [np.random.default_rng(c.seed) for c in configs]
    # each distinct dataset's rows once in one table per array, in first-seen
    # order, so one take gathers the whole stack's batch. A grid search's
    # configs share their fold tables: the tune benchmark's stacks of 10 join
    # 5 tables (0.23 MB, half of a copy per model), and a stack of one table
    # uses it, no copy
    distinct = list({id(d): d for d in datasets}.values())
    slot = {id(d): k for k, d in enumerate(distinct)}

    def joined(tables: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(tables) if len(tables) > 1 else tables[0]

    features = joined([d.features for d in distinct])
    targets = [joined([d.outcomes[j].values for d in distinct]) for j in range(n_tasks)]
    first_rows = n * np.array([slot[id(d)] for d in datasets])[:, None]

    errors: list[NumericalError | None] = [None] * n_models
    histories: list[list[dict]] = [[] for _ in range(n_models)]

    def fail(i: int, message: str) -> None:
        if errors[i] is None:
            errors[i] = NumericalError(message)
            params[i] = adam.m.flat[i] = adam.v.flat[i] = lr[i] = 0.0

    step = 0
    # overflow in a diverging model is caught below, as a non-finite loss or parameter
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            perm = np.stack([rng.permutation(n) for rng in shuffle_rngs]) + first_rows
            loss_sum = np.zeros(n_models)
            task_sums = np.zeros((n_models, n_tasks))
            for start in range(0, n, batch_size):
                idx = perm[:, start : start + batch_size]
                batch = features.take(idx, axis=0)
                batch_targets = [t.take(idx) for t in targets]
                cache = forward_pass(topology, param_views, batch)
                task_losses = batch_losses(topology, cache, batch_targets)
                total = sum(lam[:, j] * task_losses[:, j] for j in range(n_tasks))
                if step == 0:
                    first_loss = total
                backward_pass(topology, param_views, cache, batch_targets, lam, grad_views)
                adam_update(params, grads, adam, lr[:, step], weight_decay, scratch)
                for i in np.flatnonzero(~np.isfinite(total)):
                    fail(i, f"non-finite training loss at step {step} (epoch {epoch})")
                step += 1
                loss_sum += total * idx.shape[1]
                task_sums += task_losses * idx.shape[1]
            mean_loss = loss_sum / n
            finite = np.isfinite(params).all(axis=1)
            for i in range(n_models):
                if not finite[i]:
                    fail(i, f"training diverged: non-finite parameters after epoch {epoch}")
                if mean_loss[i] > DIVERGENCE_FACTOR * max(first_loss[i], DIVERGENCE_FLOOR):
                    fail(i, f"training diverged: epoch {epoch} mean loss {mean_loss[i]:.6g} "
                            f"exceeds {DIVERGENCE_FACTOR:g} x the larger of the first step's "
                            f"loss {first_loss[i]:.6g} and {DIVERGENCE_FLOOR:g}")
                histories[i].append({"epoch": epoch, "total_loss": float(mean_loss[i]),
                                     "task_losses": (task_sums[i] / n).tolist()})
            if all(errors):
                break
    return [
        error or TrainResult(ModelState(topology, ParamVector(layout, params[i].copy())), history)
        for i, (error, history) in enumerate(zip(errors, histories))
    ]


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
        return asdict(self)

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


@dataclass(frozen=True)
class _Fold:
    train: Dataset
    test: Dataset
    test_indices: np.ndarray


def _folds(dataset: Dataset, k: int, seed: int) -> list[_Fold]:
    """The k folds' training and test sets, built once for every configuration."""
    plan = kfold_split(dataset.n_rows, k, seed)
    raw = dataset.raw_features()
    folds = []
    for fold in range(k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        # refit normalization on the training rows only, so nothing about the
        # held-out rows leaks into the transform
        fold_dataset = dataset.rescaled(fit_standardizer(raw[train_idx]))
        folds.append(_Fold(subset_rows(fold_dataset, train_idx),
                           subset_rows(fold_dataset, test_idx), test_idx))
    return folds


@dataclass(frozen=True)
class _Cell:
    """One cross-validation: a dataset, its folds, a config and the CV seed."""

    dataset: Dataset
    folds: list[_Fold]
    config: TrainConfig
    seed: int


def _train_jobs(jobs: list[tuple[Dataset, TrainConfig]]) -> Iterator[tuple[int, TrainResult]]:
    """Train the jobs, yielding ``(job index, result)`` one stack at a time.

    Jobs share a stack when they share a topology, a row count, a batch
    size and epochs, up to ``STACK_MODELS`` models and ``STACK_PARAMS``
    parameters a stack, in job order. If a job diverges, raises, once the
    stacks are done, the NumericalError of the earliest job in job order to
    diverge: the one training the jobs one by one meets first. A stack
    whose first job comes after the earliest failure found so far cannot
    change that error, so it is skipped.
    """
    first_error: tuple[int, NumericalError] | None = None
    groups: dict[tuple, list[int]] = {}
    for i, (data, config) in enumerate(jobs):
        key = (config.topology, data.n_rows, config.batch_size, config.epochs)
        groups.setdefault(key, []).append(i)
    for (topology, *_), members in groups.items():
        # as few stacks as the cap allows, of even sizes
        per_stack = min(STACK_MODELS, max(1, STACK_PARAMS // n_parameters(topology)))
        n_stacks = math.ceil(len(members) / per_stack)
        bounds = [k * len(members) // n_stacks for k in range(n_stacks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            stack = members[lo:hi]
            if first_error is not None and stack[0] > first_error[0]:
                continue
            for i, result in zip(stack, _train_stack([jobs[i] for i in stack])):
                if not isinstance(result, NumericalError):
                    yield i, result
                elif first_error is None or i < first_error[0]:
                    first_error = i, result
    if first_error is not None:
        raise first_error[1]


@dataclass(frozen=True)
class _FoldOutcome:
    """What a fold's report needs of its trained model."""

    final_loss: float
    predictions: list[np.ndarray]


def _cross_validate_cells(cells: list[_Cell]) -> list[CvReport]:
    """``cross_validate`` of each cell, training every fold of every cell as stacks.

    Jobs of different cells stack together. Each model is dropped once its
    test fold is predicted, so no more than one stack's models are alive at
    a time. If any fold diverges, raises the NumericalError that training
    the cells in order, fold by fold, meets first (see ``_train_jobs``).
    """
    where = [(c, f) for c, cell in enumerate(cells) for f in range(len(cell.folds))]
    jobs = [(cells[c].folds[f].train,
             replace(cells[c].config, seed=cells[c].seed * FOLD_SEED_STRIDE + f))
            for c, f in where]
    outcomes: list[list] = [[None] * len(cell.folds) for cell in cells]
    for i, result in _train_jobs(jobs):
        c, f = where[i]
        outcomes[c][f] = _FoldOutcome(result.final_loss,
                                      predict(result.state, cells[c].folds[f].test.features))
    return [_cv_report(cell.dataset, cell.folds, fold_outcomes, cell.seed)
            for cell, fold_outcomes in zip(cells, outcomes)]


def _cv_report(
    dataset: Dataset, folds: list[_Fold], outcomes: list[_FoldOutcome], seed: int
) -> CvReport:
    task_names = dataset.task_names()
    fold_dicts = [
        {
            "fold": f,
            "test_indices": fold.test_indices.tolist(),
            "normalization_stats": fold.test.normalization_stats.to_dict(),
            "final_train_loss": outcome.final_loss,
            "tasks": _task_metrics(outcome.predictions, fold.test.outcomes),
        }
        for f, (fold, outcome) in enumerate(zip(folds, outcomes))
    ]

    aggregates: dict[str, dict] = {}
    for name in task_names:
        metric_names = fold_dicts[0]["tasks"][name].keys()
        aggregates[name] = {
            m: _mean_std([f["tasks"][name][m] for f in fold_dicts]) for m in metric_names
        }

    # pooled: every row scored exactly once by the model that did not see it
    order = np.concatenate([fold.test_indices for fold in folds])
    inverse = np.argsort(order)
    pooled = _task_metrics(
        [np.concatenate([o.predictions[j] for o in outcomes])[inverse]
         for j in range(dataset.n_tasks)],
        dataset.outcomes,
    )
    return CvReport(len(folds), seed, task_names, fold_dicts, aggregates, pooled)


def cross_validate(
    dataset: Dataset,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
) -> CvReport:
    """Seeded k-fold evaluation of one configuration.

    Fold f trains with seed ``seed * 1000003 + f`` on the other folds'
    rows, normalized with statistics refit on those training rows only.
    The folds train together as stacks (see ``_train_stack``), with the
    results each gets alone; if any diverges, the error raised is the one
    training the folds in order meets first.
    """
    check_compatible(config.topology, dataset)
    (report,) = _cross_validate_cells([_Cell(dataset, _folds(dataset, k, seed), config, seed)])
    return report


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
        least = {"trunk_depths": 0, "trunk_widths": 1, "head_depths": 0, "head_widths": 1}
        for name in GRID_AXES:
            values = tuple(getattr(self, name))
            if not values:
                raise ConfigError(f"search space field {name} must be non-empty")
            if name in least:
                values = tuple(as_int(v, f"search space field {name} value", least[name])
                               for v in values)
            object.__setattr__(self, name, values)
        if self.budget is not None:
            object.__setattr__(self, "budget", as_int(self.budget, "budget", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))

    def grid(self) -> list[tuple]:
        """Every combination of the axes' values, in the nested order of ``GRID_AXES``."""
        return list(itertools.product(*(getattr(self, name) for name in GRID_AXES)))


@dataclass
class GridSearchResult:
    best_params: dict
    best_score: float | None
    best_report: CvReport
    trials: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)


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
) -> GridSearchResult:
    """Exhaustive (or budget-capped) search over the grid, scored by CV.

    Combinations enumerate in a fixed nested order (trunk depth, trunk
    width, head depth, head width, lr0, weight decay, epochs, loss weight).
    A budget below the grid size selects that many combinations without
    replacement using the space's seed, keeping enumeration order. The
    selection metric is the primary task's fold-averaged AUC (classification)
    or negated MSE (regression); ties prefer fewer parameters, then the
    earlier combination. Trials that share a topology and epochs train
    together as stacks, with the results each gets alone; if any diverges,
    the error raised is the one running the trials in order meets first.
    """
    if not space.primary_task:
        raise ConfigError("search space needs a primary_task name")
    primary_index = dataset.task_index(space.primary_task)
    primary = dataset.outcomes[primary_index]

    combos = space.grid()
    indices = list(range(len(combos)))
    if space.budget is not None and space.budget < len(combos):
        rng = np.random.default_rng(space.seed)
        chosen = rng.choice(len(combos), size=space.budget, replace=False)
        indices = sorted(int(i) for i in chosen)

    dataset.require_complete()
    trials = []
    for enum_index in indices:
        td, tw, hd, hw, lr0, wd, epochs, lam = combos[enum_index]
        topology = build_topology(dataset, (tw,) * td, (hw,) * hd)
        weights = tuple(
            1.0 if j == primary_index else lam for j in range(dataset.n_tasks)
        )
        config = TrainConfig(
            topology,
            loss_weights=weights,
            lr0=lr0,
            weight_decay=wd,
            epochs=epochs,
            batch_size=SEARCH_BATCH_SIZE,
            seed=space.seed,
        )
        params = {
            "trunk_layers": [tw] * td,
            "head_layers": [hw] * hd,
            "lr0": lr0,
            "weight_decay": wd,
            "epochs": epochs,
            "secondary_loss_weight": lam,
            "loss_weights": list(weights),
        }
        trials.append((enum_index, params, config))

    folds = _folds(dataset, k, space.seed)
    reports = _cross_validate_cells([_Cell(dataset, folds, config, space.seed)
                                     for _, _, config in trials])

    def score(report: CvReport) -> float:
        """The primary task's selection score, -inf where undefined or not finite."""
        agg = report.aggregates[space.primary_task]
        value = agg["auc"]["mean"] if primary.kind == CLASSIFICATION else -agg["mse"]["mean"]
        return value if value is not None and math.isfinite(value) else -math.inf

    scores = [score(report) for report in reports]
    records = [
        {"trial": enum_index, "params": params,
         "score": s if math.isfinite(s) else None, "aggregates": report.aggregates}
        for (enum_index, params, _), s, report in zip(trials, scores, reports)
    ]
    best = max(range(len(trials)), key=lambda t: (
        scores[t], -n_parameters(trials[t][2].topology), -trials[t][0]))
    return GridSearchResult(trials[best][1], records[best]["score"], reports[best], records)
